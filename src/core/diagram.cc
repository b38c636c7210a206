#include "src/core/diagram.h"

#include <utility>
#include <variant>

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/core/build_report.h"
#include "src/core/dynamic_baseline.h"
#include "src/core/dynamic_scanning.h"
#include "src/core/dynamic_subset.h"
#include "src/core/global_diagram.h"
#include "src/core/quadrant_baseline.h"
#include "src/core/quadrant_dsg.h"
#include "src/core/quadrant_scanning.h"
#include "src/core/quadrant_staircase.h"
#include "src/core/query_engine.h"
#include "src/core/serialize.h"
#include "src/core/validate.h"
#include "src/skyline/query.h"

namespace skydia {

namespace {

// Debug builds re-check every freshly built diagram against the structural
// invariants plus a few sampled brute-force queries (src/core/validate.h),
// and check that the semantics rule reads back the type that was built.
// Release/RelWithDebInfo builds skip this entirely.
#ifndef NDEBUG
constexpr size_t kDebugValidateSamples = 4;

void DebugValidate(const SkylineDiagram& diagram) {
  if (diagram.cell_diagram() != nullptr) {
    SKYDIA_CHECK(DiagramSemantics(*diagram.cell_diagram()) == diagram.type());
  }
  ValidateOptions validate;
  validate.sample_queries = kDebugValidateSamples;
  const Status status = ValidateDiagram(diagram, validate);
  if (!status.ok()) {
    SKYDIA_LOG(Error) << "freshly built " << SkylineQueryTypeName(diagram.type())
                      << " diagram violates its invariants: " << status;
  }
  SKYDIA_CHECK(status.ok());
}
#endif  // NDEBUG

}  // namespace

std::vector<PointId> OracleSkyline(const Dataset& dataset,
                                   SkylineQueryType type, const Point2D& q) {
  switch (type) {
    case SkylineQueryType::kQuadrant:
      return FirstQuadrantSkyline(dataset, q);
    case SkylineQueryType::kGlobal:
      return GlobalSkyline(dataset, q);
    case SkylineQueryType::kDynamic:
      return DynamicSkyline(dataset, q);
  }
  return {};
}

SkylineQueryType DiagramSemantics(const CellDiagram& diagram) {
  const CellGrid& grid = diagram.grid();
  const bool corner_empty =
      diagram.CellSkyline(grid.num_columns() - 1, grid.num_rows() - 1).empty();
  return corner_empty ? SkylineQueryType::kQuadrant : SkylineQueryType::kGlobal;
}

const char* SkylineQueryTypeName(SkylineQueryType type) {
  switch (type) {
    case SkylineQueryType::kQuadrant:
      return "quadrant";
    case SkylineQueryType::kGlobal:
      return "global";
    case SkylineQueryType::kDynamic:
      return "dynamic";
  }
  return "?";
}

StatusOr<SkylineQueryType> ParseSkylineQueryType(const std::string& name) {
  if (name == "quadrant") return SkylineQueryType::kQuadrant;
  if (name == "global") return SkylineQueryType::kGlobal;
  if (name == "dynamic") return SkylineQueryType::kDynamic;
  return Status::InvalidArgument("unknown query semantics \"" + name +
                                 "\" (quadrant|global|dynamic)");
}

const char* BuildAlgorithmName(BuildAlgorithm algorithm) {
  switch (algorithm) {
    case BuildAlgorithm::kAuto:
      return "auto";
    case BuildAlgorithm::kBaseline:
      return "baseline";
    case BuildAlgorithm::kDsg:
      return "dsg";
    case BuildAlgorithm::kSubset:
      return "subset";
    case BuildAlgorithm::kScanning:
      return "scanning";
  }
  return "?";
}

StatusOr<BuildAlgorithm> ParseBuildAlgorithm(const std::string& name) {
  if (name == "auto") return BuildAlgorithm::kAuto;
  if (name == "baseline") return BuildAlgorithm::kBaseline;
  if (name == "dsg") return BuildAlgorithm::kDsg;
  if (name == "subset") return BuildAlgorithm::kSubset;
  if (name == "scanning") return BuildAlgorithm::kScanning;
  return Status::InvalidArgument(
      "unknown build algorithm \"" + name +
      "\" (auto|baseline|dsg|subset|scanning)");
}

namespace {

/// Runs the construction `algorithm` names for `type` into `cell` (quadrant,
/// global) or `subcell` (dynamic): the one place a BuildAlgorithm picks a
/// construction. Quadrant and global diagrams run a first-quadrant
/// construction (Algorithms 1-3, or the staircase scan for kAuto), global
/// ones on the four reflections. Dynamic diagrams run Algorithm 5,
/// Algorithm 7 on `parallelism` threads, or Algorithm 6 over a global
/// diagram of the named quadrant construction (the staircase for kSubset).
Status Construct(const Dataset& dataset, SkylineQueryType type,
                 BuildAlgorithm algorithm, int parallelism,
                 std::unique_ptr<CellDiagram>* cell,
                 std::unique_ptr<SubcellDiagram>* subcell) {
  const bool dynamic = type == SkylineQueryType::kDynamic;
  internal::QuadrantBuilder quadrant = nullptr;
  switch (algorithm) {
    case BuildAlgorithm::kAuto:
    case BuildAlgorithm::kScanning:
      if (dynamic) {
        *subcell = std::make_unique<SubcellDiagram>(
            internal::BuildDynamicScanning(dataset, parallelism));
        return Status::OK();
      }
      quadrant = algorithm == BuildAlgorithm::kAuto
                     ? internal::BuildQuadrantStaircase
                     : internal::BuildQuadrantScanning;
      break;
    case BuildAlgorithm::kBaseline:
      if (dynamic) {
        *subcell = std::make_unique<SubcellDiagram>(
            internal::BuildDynamicBaseline(dataset));
        return Status::OK();
      }
      quadrant = internal::BuildQuadrantBaseline;
      break;
    case BuildAlgorithm::kDsg:
      // For a dynamic diagram, the DSG spelling is the subset construction
      // over a DSG-built global diagram.
      quadrant = internal::BuildQuadrantDsg;
      break;
    case BuildAlgorithm::kSubset:
      if (!dynamic) {
        return Status::InvalidArgument(
            "the subset construction builds dynamic diagrams only");
      }
      quadrant = internal::BuildQuadrantStaircase;
      break;
  }
  switch (type) {
    case SkylineQueryType::kQuadrant:
      *cell = std::make_unique<CellDiagram>(quadrant(dataset));
      break;
    case SkylineQueryType::kGlobal:
      *cell = std::make_unique<CellDiagram>(
          internal::BuildGlobalDiagram(dataset, quadrant));
      break;
    case SkylineQueryType::kDynamic:
      *subcell = std::make_unique<SubcellDiagram>(
          internal::BuildDynamicSubset(dataset, quadrant));
      break;
  }
  return Status::OK();
}

/// The construction a build runs, as BuildReport names it: kAuto is the
/// staircase scan for quadrant and global diagrams and Algorithm 7
/// (scanning) for dynamic ones.
const char* ResolvedAlgorithmName(SkylineQueryType type,
                                  BuildAlgorithm algorithm) {
  if (algorithm != BuildAlgorithm::kAuto) return BuildAlgorithmName(algorithm);
  return type == SkylineQueryType::kDynamic ? "scanning" : "staircase";
}

/// The threads a build runs on: the requested count for the dynamic
/// scanning construction, the only one with a parallel form, and 1 for
/// every other request.
int ResolvedParallelism(SkylineQueryType type,
                        const SkylineBuildOptions& options) {
  const bool scanning = options.algorithm == BuildAlgorithm::kAuto ||
                        options.algorithm == BuildAlgorithm::kScanning;
  return type == SkylineQueryType::kDynamic && scanning ? options.parallelism
                                                        : 1;
}

}  // namespace

StatusOr<SkylineDiagram> SkylineDiagram::Build(
    Dataset dataset, SkylineQueryType type,
    const SkylineBuildOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot build a diagram of zero points");
  }
  if (options.parallelism < 1) {
    return Status::InvalidArgument("parallelism must be >= 1");
  }
  const int parallelism = ResolvedParallelism(type, options);
  BuildReport* report = options.report;
  if (report != nullptr) {
    *report = BuildReport{};
    report->diagram_type = SkylineQueryTypeName(type);
    report->algorithm = ResolvedAlgorithmName(type, options.algorithm);
    report->parallelism = parallelism;
    report->dataset_points = dataset.size();
  }
  std::unique_ptr<CellDiagram> cell;
  std::unique_ptr<SubcellDiagram> subcell;
  {
    SKYDIA_TRACE_SPAN("build");
    build_report_internal::ReportInstaller installer(report);
    const uint64_t start_ns = trace::NowNanos();
    const Status status = Construct(dataset, type, options.algorithm,
                                    parallelism, &cell, &subcell);
    if (!status.ok()) return status;
    if (report != nullptr) {
      report->total_seconds =
          static_cast<double>(trace::NowNanos() - start_ns) / 1e9;
    }
  }
  SkylineDiagram diagram(std::make_shared<const Dataset>(std::move(dataset)),
                         std::move(cell), std::move(subcell), type);
  if (report != nullptr) {
    const DiagramStats stats = diagram.ComputeStats();
    report->num_cells = stats.num_cells;
    report->num_distinct_sets = stats.num_distinct_sets;
    report->total_set_elements = stats.total_set_elements;
    report->arena_bytes = stats.pool_bytes;
    report->approx_bytes = stats.approx_bytes;
  }
#ifndef NDEBUG
  DebugValidate(diagram);
#endif
  return diagram;
}

StatusOr<SkylineDiagram> SkylineDiagram::Load(const std::string& path) {
  SKYDIA_TRACE_SPAN("load");
  StatusOr<LoadedDiagram> loaded = [&] {
    SKYDIA_TRACE_SPAN("load.blob");
    return LoadDiagram(path);
  }();
  if (!loaded.ok()) return loaded.status();
  if (auto* cell = std::get_if<LoadedCellDiagram>(&*loaded)) {
    return Wrap(std::make_shared<const Dataset>(std::move(cell->dataset)),
                std::make_shared<const CellDiagram>(std::move(cell->diagram)));
  }
  auto& subcell = std::get<LoadedSubcellDiagram>(*loaded);
  return Wrap(std::make_shared<const Dataset>(std::move(subcell.dataset)),
              std::make_shared<const SubcellDiagram>(
                  std::move(subcell.diagram)));
}

SkylineDiagram SkylineDiagram::Wrap(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const CellDiagram> diagram) {
  SKYDIA_CHECK(dataset != nullptr && diagram != nullptr);
  SKYDIA_TRACE_SPAN("index.build");
  const SkylineQueryType type = DiagramSemantics(*diagram);
  return SkylineDiagram(std::move(dataset), std::move(diagram), nullptr, type);
}

SkylineDiagram SkylineDiagram::Wrap(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const SubcellDiagram> diagram) {
  SKYDIA_CHECK(dataset != nullptr && diagram != nullptr);
  SKYDIA_TRACE_SPAN("index.build");
  return SkylineDiagram(std::move(dataset), nullptr, std::move(diagram),
                        SkylineQueryType::kDynamic);
}

SkylineDiagram SkylineDiagram::Wrap(std::shared_ptr<const Dataset> dataset,
                                    std::shared_ptr<const CellDiagram> diagram,
                                    SkylineQueryType type) {
  SKYDIA_CHECK(diagram != nullptr && DiagramSemantics(*diagram) == type);
  return Wrap(std::move(dataset), std::move(diagram));
}

SkylineDiagram::SkylineDiagram(std::shared_ptr<const Dataset> dataset,
                               std::shared_ptr<const CellDiagram> cell,
                               std::shared_ptr<const SubcellDiagram> subcell,
                               SkylineQueryType type)
    : dataset_(std::move(dataset)),
      cell_(std::move(cell)),
      subcell_(std::move(subcell)),
      engine_(cell_ != nullptr ? new QueryEngine(*dataset_, *cell_, type)
                               : new QueryEngine(*dataset_, *subcell_)) {}

SkylineDiagram::SkylineDiagram(SkylineDiagram&&) noexcept = default;
SkylineDiagram& SkylineDiagram::operator=(SkylineDiagram&&) noexcept = default;
SkylineDiagram::~SkylineDiagram() = default;

Status SkylineDiagram::Save(const std::string& path) const {
  return cell_ != nullptr ? SaveCellDiagram(*dataset_, *cell_, path)
                          : SaveSubcellDiagram(*dataset_, *subcell_, path);
}

SkylineQueryType SkylineDiagram::type() const { return engine_->semantics(); }

std::span<const PointId> SkylineDiagram::Query(const Point2D& q) const {
  return engine_->Answer(q);
}

std::vector<PointId> SkylineDiagram::QueryExact(const Point2D& q) const {
  QueryOptions exact;
  exact.exact = true;
  // Without a semantics override the exact Answer cannot fail.
  return engine_->Answer(q, exact).value();
}

std::vector<std::string> SkylineDiagram::QueryLabels(const Point2D& q) const {
  std::vector<std::string> labels;
  for (PointId id : QueryExact(q)) labels.push_back(dataset_->label(id));
  return labels;
}

const PointLocationIndex& SkylineDiagram::index() const {
  return engine_->index();
}

DiagramStats SkylineDiagram::ComputeStats() const {
  const PointLocationIndex& index = engine_->index();
  const SkylineSetPool& pool = index.pool();
  DiagramStats stats;
  stats.num_cells = index.num_cells();
  stats.num_distinct_sets = pool.size();
  stats.total_set_elements = pool.total_elements();
  stats.pool_bytes = pool.ApproximateMemoryBytes();
  stats.approx_bytes = stats.pool_bytes + stats.num_cells * sizeof(SetId);
  return stats;
}

}  // namespace skydia
