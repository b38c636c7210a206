// SkylineDiagram: the library's user-facing entry point.
//
// Builds the skyline diagram for one of the three query semantics and
// answers point-location queries in O(log n) through a PointLocationIndex
// built with it. This is the analogue of using a (k-th order) Voronoi
// diagram to answer kNN queries: build once, then every skyline query is a
// grid lookup instead of an O(n log n) computation.
//
// Example:
//   auto dataset = Dataset::Create(points, /*domain_size=*/1024);
//   auto diagram = SkylineDiagram::Build(std::move(dataset).value(),
//                                        SkylineQueryType::kQuadrant);
//   for (PointId id : diagram->Query({10, 80})) { ... }
#ifndef SKYDIA_SRC_CORE_DIAGRAM_H_
#define SKYDIA_SRC_CORE_DIAGRAM_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/point_location.h"
#include "src/core/skyline_cell.h"
#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"

namespace skydia {

struct BuildReport;

/// Which skyline query semantics the diagram precomputes.
enum class SkylineQueryType { kQuadrant, kGlobal, kDynamic };

const char* SkylineQueryTypeName(SkylineQueryType type);

/// The one exact-answer rule. The cell `index` locates for `q` answers it
/// exactly unless a dynamic diagram puts `q` exactly on one of its grid or
/// bisector lines (see point_location.h); there the brute-force oracle must
/// answer instead. Quadrant and global diagrams are exact everywhere.
inline bool NeedsOracle(SkylineQueryType type, const PointLocationIndex& index,
                        const Point2D& q) {
  return type == SkylineQueryType::kDynamic && index.OnBoundary(q);
}

/// The brute-force O(n log n) skyline of `dataset` at `q` under `type`
/// (src/skyline/query.h): the oracle behind NeedsOracle.
std::vector<PointId> OracleSkyline(const Dataset& dataset,
                                   SkylineQueryType type, const Point2D& q);

/// Parses "quadrant" | "global" | "dynamic" (the CLI and wire spellings).
StatusOr<SkylineQueryType> ParseSkylineQueryType(const std::string& name);

/// Algorithm selector for SkylineDiagram::Build, unified across the three
/// query semantics. Every named paper construction is reachable through this
/// one enum; Build() rejects combinations that do not exist (for example
/// kSubset for a quadrant diagram) with InvalidArgument.
enum class BuildAlgorithm {
  /// The recommended construction. Quadrant and global diagrams run the
  /// staircase scan (src/core/quadrant_staircase.h): Algorithm 3's cells,
  /// SetIds and bytes in O(cells) time. Dynamic diagrams run Algorithm 7
  /// (scanning) on the requested parallelism. BuildReport names the
  /// construction that ran ("staircase" or "scanning").
  kAuto,
  kBaseline,  // Algorithm 1 (quadrant/global) / Algorithm 5 (dynamic)
  kDsg,       // Algorithm 2 (quadrant/global); DSG-backed subset for dynamic
  kSubset,    // Algorithm 6 (dynamic only)
  kScanning,  // Algorithm 3 (quadrant/global) / Algorithm 7 (dynamic)
};

const char* BuildAlgorithmName(BuildAlgorithm algorithm);

/// Parses "auto" | "baseline" | "dsg" | "subset" | "scanning" (the CLI and
/// config spellings). Returns InvalidArgument on anything else.
StatusOr<BuildAlgorithm> ParseBuildAlgorithm(const std::string& name);

/// Options for SkylineDiagram::Build.
struct SkylineBuildOptions {
  /// Which construction to run (see BuildAlgorithm).
  BuildAlgorithm algorithm = BuildAlgorithm::kAuto;
  /// Worker threads for construction (>= 1). Only the dynamic scanning
  /// construction (kAuto or kScanning) has a parallel form; every other
  /// request builds sequentially, and BuildReport::parallelism records the
  /// thread count that ran.
  int parallelism = 1;
  /// When non-null, Build() fills this with per-phase wall times and
  /// structure counts (see src/core/build_report.h). The pointee must
  /// outlive the Build() call; it is overwritten, not appended to.
  BuildReport* report = nullptr;
};

/// A built skyline diagram with its source dataset. Movable, not copyable.
class SkylineDiagram {
 public:
  /// Builds the diagram: the one way to build a 2-D diagram. Takes ownership
  /// of the dataset (queries need it for labels and for the boundary
  /// fallback).
  static StatusOr<SkylineDiagram> Build(
      Dataset dataset, SkylineQueryType type,
      const SkylineBuildOptions& options = {});

  SkylineDiagram(SkylineDiagram&&) = default;
  SkylineDiagram& operator=(SkylineDiagram&&) = default;

  SkylineQueryType type() const { return type_; }
  const Dataset& dataset() const { return dataset_; }

  /// Answers the skyline query at `q` via point location. For quadrant and
  /// global diagrams the answer is exact for every `q`; for dynamic diagrams
  /// it is exact for `q` off the grid and bisector lines (see
  /// subcell_diagram.h) — use QueryExact for guaranteed-exact answers at
  /// arbitrary positions.
  std::span<const PointId> Query(const Point2D& q) const {
    return index_->Query(q);
  }

  /// Exact answer at any position: uses the diagram unless NeedsOracle, and
  /// then the O(n log n) reference evaluation.
  std::vector<PointId> QueryExact(const Point2D& q) const;

  /// Query result rendered through the dataset's labels.
  std::vector<std::string> QueryLabels(const Point2D& q) const;

  /// The underlying cell diagram (quadrant/global builds only).
  const CellDiagram* cell_diagram() const { return cell_.get(); }
  /// The underlying subcell diagram (dynamic builds only).
  const SubcellDiagram* subcell_diagram() const { return subcell_.get(); }
  /// The point-location index every query goes through.
  const PointLocationIndex& index() const { return *index_; }

 private:
  SkylineDiagram(Dataset dataset, SkylineQueryType type)
      : dataset_(std::move(dataset)), type_(type) {}

  Dataset dataset_;
  SkylineQueryType type_;
  std::unique_ptr<CellDiagram> cell_;
  std::unique_ptr<SubcellDiagram> subcell_;
  // Built last in Build(). It views the heap objects above, which a move of
  // the SkylineDiagram does not relocate.
  std::optional<PointLocationIndex> index_;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_DIAGRAM_H_
