#include "src/core/skyline_cell.h"

#include <algorithm>

namespace skydia {

bool CellDiagram::SameResults(const CellDiagram& other) const {
  if (grid_.num_columns() != other.grid_.num_columns() ||
      grid_.num_rows() != other.grid_.num_rows()) {
    return false;
  }
  for (uint32_t cy = 0; cy < grid_.num_rows(); ++cy) {
    for (uint32_t cx = 0; cx < grid_.num_columns(); ++cx) {
      const auto a = CellSkyline(cx, cy);
      const auto b = other.CellSkyline(cx, cy);
      if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace skydia
