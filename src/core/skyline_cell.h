// CellDiagram: the common output representation of the cell-based diagram
// algorithms (baseline, DSG, scanning — for quadrant and global skylines).
//
// It maps every skyline cell (see CellGrid) to an interned result set.
// Queries locate their cell through a PointLocationIndex
// (src/core/point_location.h): for the first-quadrant semantics the half-open
// cell convention is exact for every query position, including queries on
// grid lines.
#ifndef SKYDIA_SRC_CORE_SKYLINE_CELL_H_
#define SKYDIA_SRC_CORE_SKYLINE_CELL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/geometry/dataset.h"
#include "src/geometry/grid.h"
#include "src/geometry/point.h"
#include "src/skyline/interning.h"

namespace skydia {

/// Result of a cell-based diagram construction. Movable, not copyable
/// (the interning pool can be large).
class CellDiagram {
 public:
  explicit CellDiagram(const Dataset& dataset)
      : grid_(dataset),
        pool_(std::make_unique<SkylineSetPool>()),
        cells_(grid_.num_cells(), kEmptySetId) {}

  CellDiagram(CellDiagram&&) = default;
  CellDiagram& operator=(CellDiagram&&) = default;

  const CellGrid& grid() const { return grid_; }
  SkylineSetPool& pool() { return *pool_; }
  const SkylineSetPool& pool() const { return *pool_; }

  SetId cell_set(uint32_t cx, uint32_t cy) const {
    return cells_[grid_.CellIndex(cx, cy)];
  }
  void set_cell(uint32_t cx, uint32_t cy, SetId id) {
    cells_[grid_.CellIndex(cx, cy)] = id;
  }

  /// Skyline result (sorted point ids) of cell (cx, cy).
  std::span<const PointId> CellSkyline(uint32_t cx, uint32_t cy) const {
    return pool_->Get(cell_set(cx, cy));
  }

  /// The full row-major cell table (index = cy * num_columns + cx). Flat
  /// view consumed by PointLocationIndex; stays valid while the diagram
  /// lives (set_cell writes in place, the table never reallocates after
  /// construction). The blob parser decodes into the mutable view.
  std::span<const SetId> cell_table() const { return cells_; }
  std::span<SetId> cell_table() { return cells_; }

  /// Semantic equality: same grid shape and the same result set in every
  /// cell (compares set contents, not SetIds, so diagrams built by different
  /// algorithms compare equal when they agree).
  bool SameResults(const CellDiagram& other) const;

  /// Structure statistics for the space-analysis experiments.
  struct Stats {
    uint64_t num_cells = 0;
    uint64_t num_distinct_sets = 0;   // interned sets incl. empty
    uint64_t total_set_elements = 0;  // sum of distinct set sizes
    uint64_t pool_bytes = 0;          // interning arena footprint alone
    uint64_t approx_bytes = 0;        // pool + cell map footprint
  };
  Stats ComputeStats() const;

 private:
  CellGrid grid_;
  std::unique_ptr<SkylineSetPool> pool_;
  std::vector<SetId> cells_;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_SKYLINE_CELL_H_
