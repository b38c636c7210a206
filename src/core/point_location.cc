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

void PointLocationIndex::BuildPolyominoTable() {
  constexpr uint32_t kUnlabelled = ~uint32_t{0};
  cell_polyomino_.assign(cells_.size(), kUnlabelled);
  num_polyominoes_ = 0;
  std::vector<uint64_t> stack;
  for (uint64_t start = 0; start < cells_.size(); ++start) {
    if (cell_polyomino_[start] != kUnlabelled) continue;
    const uint32_t label = num_polyominoes_++;
    const SetId set = cells_[start];
    cell_polyomino_[start] = label;
    stack.push_back(start);
    while (!stack.empty()) {
      const uint64_t cell = stack.back();
      stack.pop_back();
      const uint32_t cx = static_cast<uint32_t>(cell % num_columns_);
      const uint32_t cy = static_cast<uint32_t>(cell / num_columns_);
      const auto visit = [&](uint64_t next) {
        if (cell_polyomino_[next] == kUnlabelled && cells_[next] == set) {
          cell_polyomino_[next] = label;
          stack.push_back(next);
        }
      };
      if (cx > 0) visit(cell - 1);
      if (cx + 1 < num_columns_) visit(cell + 1);
      if (cy > 0) visit(cell - num_columns_);
      if (cy + 1 < num_rows_) visit(cell + num_columns_);
    }
  }
}

uint64_t PointLocationIndex::OwnedBytes() const {
  return (x_lines_.capacity() + y_lines_.capacity()) * sizeof(int64_t) +
         cell_polyomino_.capacity() * sizeof(uint32_t);
}

}  // namespace skydia
