// SkylineDiagram: the library's user-facing entry point, and the one
// diagram type that is built, loaded, wrapped, saved and served.
//
// Holds the diagram for one of the three query semantics together with its
// dataset and the one QueryEngine (src/core/query_engine.h) that answers
// point-location queries over it in O(log n). This is the analogue of using
// a (k-th order) Voronoi diagram to answer kNN queries: build once, then
// every skyline query is a grid lookup instead of an O(n log n) computation.
//
// A cell table states its own semantics (DiagramSemantics), so a loaded or
// wrapped diagram serves what it is without a caller naming it.
//
// Example:
//   auto dataset = Dataset::Create(points, /*domain_size=*/1024);
//   auto diagram = SkylineDiagram::Build(std::move(dataset).value(),
//                                        SkylineQueryType::kQuadrant);
//   for (PointId id : diagram->Query({10, 80})) { ... }
#ifndef SKYDIA_SRC_CORE_DIAGRAM_H_
#define SKYDIA_SRC_CORE_DIAGRAM_H_

#include <cstdint>
#include <memory>
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
class QueryEngine;

/// Which skyline query semantics the diagram precomputes.
enum class SkylineQueryType { kQuadrant, kGlobal, kDynamic };

const char* SkylineQueryTypeName(SkylineQueryType type);

/// The one semantics rule: what a diagram's own table says it answers. Cell
/// (num_columns - 1, num_rows - 1) lies beyond every point, so no point is
/// in its first quadrant and every point is in its third: it is empty
/// exactly when the table is quadrant, and holds global answers otherwise.
/// The rule reads the cell's content, not its SetId, because a mutated pool
/// can hold the empty set under another id. O(1).
SkylineQueryType DiagramSemantics(const CellDiagram& diagram);
/// A subcell diagram answers dynamic queries.
inline SkylineQueryType DiagramSemantics(const SubcellDiagram& /*diagram*/) {
  return SkylineQueryType::kDynamic;
}

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

/// Structure statistics of a built or loaded diagram of either kind, for
/// the space-analysis experiments and `skydia stats`.
struct DiagramStats {
  uint64_t num_cells = 0;           // cells (quadrant/global) or subcells
  uint64_t num_distinct_sets = 0;   // interned sets incl. empty
  uint64_t total_set_elements = 0;  // sum of distinct set sizes
  /// SkylineSetPool::ApproximateMemoryBytes: the arena plus the set
  /// records, hash chains and dedup index, where built.
  uint64_t pool_bytes = 0;
  uint64_t approx_bytes = 0;  // pool + cell table footprint
};

/// A skyline diagram with its dataset and the one QueryEngine answering
/// queries over it: the one type that is built, loaded, wrapped, saved and
/// served. It holds the dataset and diagram as shared_ptr<const ...>, which
/// pins the addresses the engine's index references and lets others share
/// them read-only (the mutation pipeline wraps its shadow's objects, and the
/// shadow adopts a served diagram's). Movable, not copyable.
class SkylineDiagram {
 public:
  /// Builds the diagram: the one way to build a 2-D diagram. Takes ownership
  /// of the dataset (queries need it for labels and for the boundary
  /// fallback).
  static StatusOr<SkylineDiagram> Build(
      Dataset dataset, SkylineQueryType type,
      const SkylineBuildOptions& options = {});

  /// Loads a serialized cell or subcell diagram (LoadDiagram: the blob's
  /// kind byte decides) and wraps it under the semantics its table states.
  static StatusOr<SkylineDiagram> Load(const std::string& path);

  /// Wraps an existing diagram of `dataset` and builds its index; the
  /// semantics are the ones DiagramSemantics reads from the table. Load
  /// ends here, and the mutation pipeline wraps its shadow's objects here
  /// at zero copy cost. Both pointers must be non-null.
  static SkylineDiagram Wrap(std::shared_ptr<const Dataset> dataset,
                             std::shared_ptr<const CellDiagram> diagram);
  static SkylineDiagram Wrap(std::shared_ptr<const Dataset> dataset,
                             std::shared_ptr<const SubcellDiagram> diagram);
  /// Wrap for callers that still name the semantics (the serving
  /// benchmark): CHECK-fails unless `type` is what the table states.
  static SkylineDiagram Wrap(std::shared_ptr<const Dataset> dataset,
                             std::shared_ptr<const CellDiagram> diagram,
                             SkylineQueryType type);

  SkylineDiagram(SkylineDiagram&&) noexcept;
  SkylineDiagram& operator=(SkylineDiagram&&) noexcept;
  ~SkylineDiagram();

  /// Saves the diagram as a blob of its kind (SaveCellDiagram or
  /// SaveSubcellDiagram).
  Status Save(const std::string& path) const;

  SkylineQueryType type() const;
  const Dataset& dataset() const { return *dataset_; }

  /// Answers the skyline query at `q` via point location. For quadrant and
  /// global diagrams the answer is exact for every `q`; for dynamic diagrams
  /// it is exact for `q` off the grid and bisector lines (see
  /// subcell_diagram.h) — use QueryExact for guaranteed-exact answers at
  /// arbitrary positions.
  std::span<const PointId> Query(const Point2D& q) const;

  /// Exact answer at any position: the engine's exact Answer, which uses the
  /// diagram unless NeedsOracle, and then the O(n log n) reference
  /// evaluation.
  std::vector<PointId> QueryExact(const Point2D& q) const;

  /// Query result rendered through the dataset's labels.
  std::vector<std::string> QueryLabels(const Point2D& q) const;

  /// Cell count and pool footprint, read from the engine's index and pool:
  /// the same for either kind.
  DiagramStats ComputeStats() const;

  /// The underlying cell diagram (quadrant/global only; else null).
  const CellDiagram* cell_diagram() const { return cell_.get(); }
  /// The underlying subcell diagram (dynamic only; else null).
  const SubcellDiagram* subcell_diagram() const { return subcell_.get(); }
  /// The point-location index every query goes through (the engine's).
  const PointLocationIndex& index() const;
  /// The engine answering every query: point batches, exact and range
  /// queries, and the serving counters.
  const QueryEngine& engine() const { return *engine_; }

  /// The held objects themselves, for a producer that adopts them (the
  /// mutation pipeline seeds its shadow here). Null for the other kind.
  const std::shared_ptr<const Dataset>& shared_dataset() const {
    return dataset_;
  }
  const std::shared_ptr<const CellDiagram>& shared_cell_diagram() const {
    return cell_;
  }
  const std::shared_ptr<const SubcellDiagram>& shared_subcell_diagram()
      const {
    return subcell_;
  }

 private:
  SkylineDiagram(std::shared_ptr<const Dataset> dataset,
                 std::shared_ptr<const CellDiagram> cell,
                 std::shared_ptr<const SubcellDiagram> subcell,
                 SkylineQueryType type);

  std::shared_ptr<const Dataset> dataset_;
  std::shared_ptr<const CellDiagram> cell_;
  std::shared_ptr<const SubcellDiagram> subcell_;
  // Declared last so it is destroyed first: its index references the above.
  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_DIAGRAM_H_
