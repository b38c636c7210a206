// SubcellDiagram: output representation of the dynamic skyline diagram
// builders (baseline, subset, scanning). Maps every skyline subcell to an
// interned dynamic-skyline result set.
//
// Queries locate their subcell through a PointLocationIndex
// (src/core/point_location.h). Exactness contract: results are exact for
// queries in the interior of their subcell. Queries exactly on a
// grid/bisector line are answered with the adjacent interior subcell's
// result (half-open convention), which can differ from the true boundary
// result when the tie changes dominance; NeedsOracle (src/core/diagram.h)
// detects those positions.
#ifndef SKYDIA_SRC_CORE_SUBCELL_DIAGRAM_H_
#define SKYDIA_SRC_CORE_SUBCELL_DIAGRAM_H_

#include <memory>
#include <span>
#include <vector>

#include "src/core/subcell_grid.h"
#include "src/geometry/dataset.h"
#include "src/skyline/interning.h"

namespace skydia {

/// Result of a subcell-based diagram construction. Movable, not copyable.
class SubcellDiagram {
 public:
  explicit SubcellDiagram(const Dataset& dataset)
      : grid_(dataset),
        pool_(std::make_unique<SkylineSetPool>()),
        cells_(grid_.num_subcells(), kEmptySetId) {}

  SubcellDiagram(SubcellDiagram&&) = default;
  SubcellDiagram& operator=(SubcellDiagram&&) = default;

  const SubcellGrid& grid() const { return grid_; }
  SkylineSetPool& pool() { return *pool_; }
  const SkylineSetPool& pool() const { return *pool_; }

  SetId subcell_set(uint32_t sx, uint32_t sy) const {
    return cells_[grid_.SubcellIndex(sx, sy)];
  }
  void set_subcell(uint32_t sx, uint32_t sy, SetId id) {
    cells_[grid_.SubcellIndex(sx, sy)] = id;
  }

  std::span<const PointId> SubcellSkyline(uint32_t sx, uint32_t sy) const {
    return pool_->Get(subcell_set(sx, sy));
  }

  /// The full row-major subcell table (index = sy * num_columns + sx). Flat
  /// view consumed by PointLocationIndex; stays valid while the diagram
  /// lives. The scanning builder and the blob parser fill the mutable view.
  std::span<const SetId> cell_table() const { return cells_; }
  std::span<SetId> cell_table() { return cells_; }

  /// Semantic equality over all subcells (content comparison).
  bool SameResults(const SubcellDiagram& other) const {
    if (grid_.num_columns() != other.grid_.num_columns() ||
        grid_.num_rows() != other.grid_.num_rows()) {
      return false;
    }
    for (uint32_t sy = 0; sy < grid_.num_rows(); ++sy) {
      for (uint32_t sx = 0; sx < grid_.num_columns(); ++sx) {
        const auto a = SubcellSkyline(sx, sy);
        const auto b = other.SubcellSkyline(sx, sy);
        if (a.size() != b.size() ||
            !std::equal(a.begin(), a.end(), b.begin())) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  SubcellGrid grid_;
  std::unique_ptr<SkylineSetPool> pool_;
  std::vector<SetId> cells_;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_SUBCELL_DIAGRAM_H_
