#include "src/core/diagram.h"

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/core/build_report.h"
#include "src/core/dynamic_baseline.h"
#include "src/core/dynamic_scanning.h"
#include "src/core/dynamic_subset.h"
#include "src/core/parallel.h"
#include "src/core/validate.h"
#include "src/skyline/query.h"

namespace skydia {

namespace {

// Debug builds re-check every freshly built diagram against the structural
// invariants plus a few sampled brute-force queries (src/core/validate.h).
// Release/RelWithDebInfo builds skip this entirely.
#ifndef NDEBUG
constexpr size_t kDebugValidateSamples = 4;

void DebugValidate(const SkylineDiagram& diagram,
                   const SkylineBuildOptions& options) {
  ValidateOptions validate;
  validate.sample_queries = kDebugValidateSamples;
  validate.require_canonical_pool = options.diagram.intern_result_sets;
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

const char* DynamicAlgorithmName(DynamicAlgorithm algorithm) {
  switch (algorithm) {
    case DynamicAlgorithm::kBaseline:
      return "baseline";
    case DynamicAlgorithm::kSubset:
      return "subset";
    case DynamicAlgorithm::kScanning:
      return "scanning";
  }
  return "?";
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

/// Builds the cell diagram (quadrant or global) for the resolved options.
StatusOr<CellDiagram> BuildCell(const Dataset& dataset, SkylineQueryType type,
                                const SkylineBuildOptions& options) {
  QuadrantAlgorithm cell = QuadrantAlgorithm::kScanning;
  switch (options.algorithm) {
    case BuildAlgorithm::kAuto:
      cell = (options.parallelism > 1 && type == SkylineQueryType::kQuadrant)
                 ? QuadrantAlgorithm::kDsg
                 : QuadrantAlgorithm::kScanning;
      break;
    case BuildAlgorithm::kBaseline:
      cell = QuadrantAlgorithm::kBaseline;
      break;
    case BuildAlgorithm::kDsg:
      cell = QuadrantAlgorithm::kDsg;
      break;
    case BuildAlgorithm::kScanning:
      cell = QuadrantAlgorithm::kScanning;
      break;
    case BuildAlgorithm::kSubset:
      return Status::InvalidArgument(
          "the subset construction builds dynamic diagrams only");
  }
  if (options.parallelism > 1) {
    if (type == SkylineQueryType::kGlobal) {
      return Status::InvalidArgument(
          "global diagrams have no parallel construction; use parallelism 1");
    }
    if (cell != QuadrantAlgorithm::kDsg) {
      return Status::InvalidArgument(
          "parallel quadrant construction runs the dsg algorithm; request "
          "algorithm auto or dsg");
    }
    return BuildQuadrantDsgParallel(dataset, options.parallelism,
                                    options.diagram);
  }
  return type == SkylineQueryType::kQuadrant
             ? BuildQuadrantDiagram(dataset, cell, options.diagram)
             : BuildGlobalDiagram(dataset, cell, options.diagram);
}

/// Builds the subcell diagram (dynamic semantics) for the resolved options.
StatusOr<SubcellDiagram> BuildSubcell(const Dataset& dataset,
                                      const SkylineBuildOptions& options) {
  if (options.parallelism > 1) {
    if (options.algorithm != BuildAlgorithm::kAuto &&
        options.algorithm != BuildAlgorithm::kScanning) {
      return Status::InvalidArgument(
          "parallel dynamic construction runs the scanning algorithm; "
          "request algorithm auto or scanning");
    }
    return BuildDynamicScanningParallel(dataset, options.parallelism,
                                        options.diagram);
  }
  switch (options.algorithm) {
    case BuildAlgorithm::kAuto:
    case BuildAlgorithm::kScanning:
      return BuildDynamicScanning(dataset, options.diagram);
    case BuildAlgorithm::kBaseline:
      return BuildDynamicBaseline(dataset, options.diagram);
    case BuildAlgorithm::kSubset:
      return BuildDynamicSubset(dataset, QuadrantAlgorithm::kScanning,
                                options.diagram);
    case BuildAlgorithm::kDsg:
      // The DSG spelling of a dynamic build: the subset construction over a
      // DSG-built global diagram.
      return BuildDynamicSubset(dataset, QuadrantAlgorithm::kDsg,
                                options.diagram);
  }
  return Status::Internal("unreachable dynamic algorithm");
}

/// The algorithm a kAuto request resolves to (mirrors BuildCell /
/// BuildSubcell), for the BuildReport header line.
const char* ResolvedAlgorithmName(SkylineQueryType type,
                                  const SkylineBuildOptions& options) {
  if (options.algorithm != BuildAlgorithm::kAuto) {
    return BuildAlgorithmName(options.algorithm);
  }
  return (options.parallelism > 1 && type == SkylineQueryType::kQuadrant)
             ? "dsg"
             : "scanning";
}

}  // namespace

StatusOr<SkylineDiagram> SkylineDiagram::Build(Dataset dataset,
                                               SkylineQueryType type,
                                               const BuildOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot build a diagram of zero points");
  }
  if (options.parallelism < 1) {
    return Status::InvalidArgument("parallelism must be >= 1");
  }
  SkylineDiagram diagram(std::move(dataset), type);
  BuildReport* report = options.report;
  if (report != nullptr) {
    *report = BuildReport{};
    report->diagram_type = SkylineQueryTypeName(type);
    report->algorithm = ResolvedAlgorithmName(type, options);
    report->parallelism = options.parallelism;
    report->dataset_points = diagram.dataset_.size();
  }
  {
    SKYDIA_TRACE_SPAN("build");
    build_report_internal::ReportInstaller installer(report);
    const uint64_t start_ns = trace::NowNanos();
    if (type == SkylineQueryType::kDynamic) {
      auto subcell = BuildSubcell(diagram.dataset_, options);
      if (!subcell.ok()) return subcell.status();
      diagram.subcell_ =
          std::make_unique<SubcellDiagram>(std::move(subcell).value());
    } else {
      auto cell = BuildCell(diagram.dataset_, type, options);
      if (!cell.ok()) return cell.status();
      diagram.cell_ = std::make_unique<CellDiagram>(std::move(cell).value());
    }
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
  DebugValidate(diagram, options);
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
