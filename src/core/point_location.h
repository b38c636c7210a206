// PointLocationIndex: the serving-side point-location structure over a built
// skyline diagram — the step that makes the diagram the Voronoi counterpart
// for skyline queries. Build once, then every query is two binary searches
// over flat sorted line arrays plus one table load and one arena read:
// O(log s) with s distinct grid lines per axis, touching four cache lines
// end to end (two line arrays, the cell table, the interned arena).
//
// The index is a *view*: it copies the O(s) grid-line coordinates into dense
// arrays it owns, and references the diagram's cell table and interned result
// pool in place (both are flat already — the cell table is row-major SetIds,
// the pool is one arena, see src/skyline/interning.h). It must not outlive
// the diagram it was built from. Rebuilding after deserialization is O(s)
// and allocation-light, so a loaded blob is immediately servable.
//
// Boundary and tie-breaking convention (pinned by
// tests/core/point_location_test.cc; keep the builders, the validator and
// this index in sync):
//
//   * Column cx covers the half-open x-interval (line[cx-1], line[cx]].
//     A query exactly ON a grid line belongs to the column that *ends* at
//     that line (the left/lower side); symmetrically for rows. Column 0
//     extends to -inf, the last column to +inf, so every integer query —
//     including positions outside the data's bounding box and negative
//     coordinates — locates to a cell.
//   * Quadrant and global semantics: the convention is exact for EVERY
//     query position, including queries on grid lines and on data points.
//     Each quadrant's candidate set is constant on a half-open cell, lines
//     included: for q in column cx, {p : p.x >= q.x} = {p : p.x >= line[cx]}
//     and {p : p.x < q.x} = {p : p.x <= line[cx-1]} (see
//     src/geometry/grid.h). Moving q inside one quadrant shifts every
//     distance by the same amount, so dominance and ties do not change, and
//     the global answer (Definition 3: the union of the four quadrant
//     skylines) is constant on the cell too.
//   * Dynamic semantics: exact for queries in the open interior of a
//     subcell. The bisector lines are exactly where two mapped distances
//     tie, so a query on a line, answered with the adjacent interior result
//     on the line's left/below side, can differ from the true answer there.
//     Boundary-exact answers go through NeedsOracle (diagram.h), the one
//     exact-answer rule behind SkylineDiagram::QueryExact and
//     QueryEngine::Answer(q, {.exact = true}): it detects those positions
//     via OnBoundary() and falls back to the O(n log n) oracle.
//   * Dynamic diagrams also cut on bisector lines, which live on
//     half-integers; the index stores those axes in doubled coordinates and
//     scales queries by 2 internally. Integer queries therefore never land
//     between two adjacent doubled lines.
//   * Queries first clamp to [-1, Dataset::kMaxDomainSize] (ClampQuery).
//     Every line of every diagram lies inside that range, so the clamp moves
//     no query to another cell or off or onto a line, and the doubled
//     coordinates cannot overflow.
#ifndef SKYDIA_SRC_CORE_POINT_LOCATION_H_
#define SKYDIA_SRC_CORE_POINT_LOCATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/skyline_cell.h"
#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"
#include "src/geometry/point.h"
#include "src/skyline/interning.h"

namespace skydia {

/// Flat point-location index over a cell (quadrant/global) or subcell
/// (dynamic) diagram. Cheap to build, immutable afterwards; all methods are
/// const and safe to call concurrently.
class PointLocationIndex {
 public:
  /// Builds the index over a cell diagram (quadrant or global semantics).
  explicit PointLocationIndex(const CellDiagram& diagram);
  /// Builds the index over a subcell diagram (dynamic semantics).
  explicit PointLocationIndex(const SubcellDiagram& diagram);

  /// Grid cell of a located query.
  struct CellRef {
    uint32_t cx;
    uint32_t cy;
  };

  /// Locates `q` under the half-open convention above. Total: every query
  /// maps to exactly one cell.
  CellRef Locate(const Point2D& q) const {
    const Point2D c = ClampQuery(q, Dataset::kMaxDomainSize);
    return CellRef{SlabOf(x_lines_, scale_ * c.x),
                   SlabOf(y_lines_, scale_ * c.y)};
  }

  /// Interned result-set id of the cell containing `q`.
  SetId LocateSet(const Point2D& q) const {
    const CellRef c = Locate(q);
    return cells_[static_cast<uint64_t>(c.cy) * num_columns_ + c.cx];
  }

  /// The query answer: sorted point ids of the cell containing `q`. The span
  /// points into the diagram's interned arena and stays valid as long as the
  /// diagram does.
  std::span<const PointId> Query(const Point2D& q) const {
    return pool_->Get(LocateSet(q));
  }

  /// True when `q` lies exactly on a grid line (or, for dynamic diagrams, a
  /// bisector line) of either axis — the positions where dynamic answers
  /// carry the interior-adjacent convention instead of being exact.
  bool OnBoundary(const Point2D& q) const {
    const Point2D c = ClampQuery(q, Dataset::kMaxDomainSize);
    return OnLine(x_lines_, scale_ * c.x) || OnLine(y_lines_, scale_ * c.y);
  }

  uint32_t num_columns() const { return num_columns_; }
  uint32_t num_rows() const { return num_rows_; }
  uint64_t num_cells() const { return cells_.size(); }
  const SkylineSetPool& pool() const { return *pool_; }

  /// Interned result of cell (cx, cy). Feeds the range-query sweeps.
  SetId cell_set(uint32_t cx, uint32_t cy) const {
    return cells_[static_cast<uint64_t>(cy) * num_columns_ + cx];
  }

  /// Members of an interned set (for callers holding SetIds from LocateSet).
  std::span<const PointId> Get(SetId id) const { return pool_->Get(id); }

 private:
  static uint32_t SlabOf(const std::vector<int64_t>& lines, int64_t v);
  static bool OnLine(const std::vector<int64_t>& lines, int64_t v);

  std::vector<int64_t> x_lines_;  // sorted; scaled by `scale_`
  std::vector<int64_t> y_lines_;
  int64_t scale_ = 1;  // 1 for cell diagrams, 2 for (doubled) subcell axes
  uint32_t num_columns_ = 0;
  uint32_t num_rows_ = 0;
  std::span<const SetId> cells_;  // the diagram's row-major cell table
  const SkylineSetPool* pool_ = nullptr;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_POINT_LOCATION_H_
