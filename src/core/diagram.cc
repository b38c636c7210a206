#include "src/core/diagram.h"

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
#include "src/core/validate.h"
#include "src/skyline/query.h"

namespace skydia {

namespace {

// Debug builds re-check every freshly built diagram against the structural
// invariants plus a few sampled brute-force queries (src/core/validate.h).
// Release/RelWithDebInfo builds skip this entirely.
#ifndef NDEBUG
constexpr size_t kDebugValidateSamples = 4;

void DebugValidate(const SkylineDiagram& diagram) {
  ValidateOptions validate;
  validate.sample_queries = kDebugValidateSamples;
  Status status;
  if (diagram.cell_diagram() != nullptr) {
    validate.semantics = diagram.type() == SkylineQueryType::kQuadrant
                             ? CellSemantics::kQuadrant
                             : CellSemantics::kGlobal;
    status =
        ValidateDiagram(diagram.dataset(), *diagram.cell_diagram(), validate);
  } else {
    status = ValidateDiagram(diagram.dataset(), *diagram.subcell_diagram(),
                             validate);
  }
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
  SkylineDiagram diagram(std::move(dataset), type);
  const int parallelism = ResolvedParallelism(type, options);
  BuildReport* report = options.report;
  if (report != nullptr) {
    *report = BuildReport{};
    report->diagram_type = SkylineQueryTypeName(type);
    report->algorithm = ResolvedAlgorithmName(type, options.algorithm);
    report->parallelism = parallelism;
    report->dataset_points = diagram.dataset_.size();
  }
  {
    SKYDIA_TRACE_SPAN("build");
    build_report_internal::ReportInstaller installer(report);
    const uint64_t start_ns = trace::NowNanos();
    const Status status =
        Construct(diagram.dataset_, type, options.algorithm, parallelism,
                  &diagram.cell_, &diagram.subcell_);
    if (!status.ok()) return status;
    if (report != nullptr) {
      report->total_seconds =
          static_cast<double>(trace::NowNanos() - start_ns) / 1e9;
    }
  }
  if (report != nullptr) {
    if (diagram.cell_ != nullptr) {
      const CellDiagram::Stats stats = diagram.cell_->ComputeStats();
      report->num_cells = stats.num_cells;
      report->num_distinct_sets = stats.num_distinct_sets;
      report->total_set_elements = stats.total_set_elements;
      report->arena_bytes = stats.pool_bytes;
      report->approx_bytes = stats.approx_bytes;
    } else {
      const SubcellDiagram::Stats stats = diagram.subcell_->ComputeStats();
      report->num_cells = stats.num_subcells;
      report->num_distinct_sets = stats.num_distinct_sets;
      report->total_set_elements = stats.total_set_elements;
      report->arena_bytes = stats.pool_bytes;
      report->approx_bytes = stats.approx_bytes;
    }
  }
  if (diagram.cell_ != nullptr) {
    diagram.index_.emplace(*diagram.cell_);
  } else {
    diagram.index_.emplace(*diagram.subcell_);
  }
#ifndef NDEBUG
  DebugValidate(diagram);
#endif
  return diagram;
}

std::vector<PointId> SkylineDiagram::QueryExact(const Point2D& q) const {
  if (NeedsOracle(type_, *index_, q)) return OracleSkyline(dataset_, type_, q);
  const auto span = Query(q);
  return std::vector<PointId>(span.begin(), span.end());
}

std::vector<std::string> SkylineDiagram::QueryLabels(const Point2D& q) const {
  std::vector<std::string> labels;
  for (PointId id : QueryExact(q)) labels.push_back(dataset_.label(id));
  return labels;
}

}  // namespace skydia
