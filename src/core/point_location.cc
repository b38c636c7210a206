#include "src/core/point_location.h"

#include <algorithm>

namespace skydia {

PointLocationIndex::PointLocationIndex(const CellDiagram& diagram)
    : scale_(1),
      num_columns_(diagram.grid().num_columns()),
      num_rows_(diagram.grid().num_rows()),
      cells_(diagram.cell_table()),
      pool_(&diagram.pool()) {
  const CellGrid& grid = diagram.grid();
  x_lines_.reserve(grid.num_distinct_x());
  for (uint32_t i = 0; i < grid.num_distinct_x(); ++i) {
    x_lines_.push_back(grid.x_value(i));
  }
  y_lines_.reserve(grid.num_distinct_y());
  for (uint32_t i = 0; i < grid.num_distinct_y(); ++i) {
    y_lines_.push_back(grid.y_value(i));
  }
}

PointLocationIndex::PointLocationIndex(const SubcellDiagram& diagram)
    : scale_(2),
      num_columns_(diagram.grid().num_columns()),
      num_rows_(diagram.grid().num_rows()),
      cells_(diagram.cell_table()),
      pool_(&diagram.pool()) {
  const SubcellAxis& x = diagram.grid().x_axis();
  x_lines_.reserve(x.num_lines());
  for (uint32_t i = 0; i < x.num_lines(); ++i) x_lines_.push_back(x.line(i));
  const SubcellAxis& y = diagram.grid().y_axis();
  y_lines_.reserve(y.num_lines());
  for (uint32_t i = 0; i < y.num_lines(); ++i) y_lines_.push_back(y.line(i));
}

uint32_t PointLocationIndex::SlabOf(const std::vector<int64_t>& lines,
                                    int64_t v) {
  // Half-open convention: the slab index is the number of lines strictly
  // below v, so a query exactly on line i lands in slab i — the slab whose
  // interval (line[i-1], line[i]] ends at the line.
  return static_cast<uint32_t>(
      std::lower_bound(lines.begin(), lines.end(), v) - lines.begin());
}

bool PointLocationIndex::OnLine(const std::vector<int64_t>& lines, int64_t v) {
  return std::binary_search(lines.begin(), lines.end(), v);
}

}  // namespace skydia
