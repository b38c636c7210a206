#include "src/core/global_diagram.h"

#include <algorithm>
#include <array>

#include "src/common/logging.h"
#include "src/core/build_report.h"

namespace skydia::internal {

namespace {

Dataset Reflect(const Dataset& dataset, bool flip_x, bool flip_y) {
  const int64_t d = dataset.domain_size();
  std::vector<Point2D> points;
  points.reserve(dataset.size());
  for (const Point2D& p : dataset.points()) {
    points.push_back(Point2D{flip_x ? d - 1 - p.x : p.x,
                             flip_y ? d - 1 - p.y : p.y});
  }
  auto reflected = Dataset::Create(std::move(points), d);
  SKYDIA_CHECK(reflected.ok());
  return std::move(reflected).value();
}

}  // namespace

CellDiagram BuildGlobalDiagram(const Dataset& dataset,
                               QuadrantBuilder build_quadrant) {
  // Quadrant diagrams of the four reflections. Index k matches
  // QuadrantOf(): 0 = (+x, +y), 1 = (-x, +y), 2 = (-x, -y), 3 = (+x, -y).
  // The nested quadrant builds open their own phases; they show up in the
  // trace but only the enclosing "quadrants" reaches the build report.
  const std::array<CellDiagram, 4> quads = [&] {
    PhaseScope phase("quadrants");
    return std::array<CellDiagram, 4>{
        build_quadrant(dataset),
        build_quadrant(Reflect(dataset, /*flip_x=*/true, /*flip_y=*/false)),
        build_quadrant(Reflect(dataset, /*flip_x=*/true, /*flip_y=*/true)),
        build_quadrant(Reflect(dataset, /*flip_x=*/false, /*flip_y=*/true))};
  }();
  const CellDiagram& q1 = quads[0];
  const CellDiagram& q2 = quads[1];
  const CellDiagram& q3 = quads[2];
  const CellDiagram& q4 = quads[3];

  CellDiagram global = [&] {
    PhaseScope phase("grid");
    return CellDiagram(dataset);
  }();
  const CellGrid& grid = global.grid();
  const uint32_t cols = grid.num_columns();
  const uint32_t rows = grid.num_rows();
  SKYDIA_CHECK_EQ(cols, q2.grid().num_columns());
  SKYDIA_CHECK_EQ(rows, q2.grid().num_rows());

  {
    PhaseScope phase("merge");
    std::vector<PointId> merged;
    for (uint32_t cy = 0; cy < rows; ++cy) {
      SKYDIA_TRACE_SPAN("merge.row");
      for (uint32_t cx = 0; cx < cols; ++cx) {
        // Reflected axes index from the other end: interior column cx of the
        // original grid corresponds to interior column (cols-1) - cx of an
        // x-reflected grid, and likewise for rows.
        const uint32_t rx = (cols - 1) - cx;
        const uint32_t ry = (rows - 1) - cy;
        merged.clear();
        const auto append = [&](std::span<const PointId> part) {
          merged.insert(merged.end(), part.begin(), part.end());
        };
        append(q1.CellSkyline(cx, cy));
        append(q2.CellSkyline(rx, cy));
        append(q3.CellSkyline(rx, ry));
        append(q4.CellSkyline(cx, ry));
        std::sort(merged.begin(), merged.end());
        // The quadrants partition the candidates, so no duplicates can
        // occur; dedupe defensively anyway (it is free on sorted data).
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
        global.set_cell(cx, cy, global.pool().InternCopy(merged));
      }
    }
  }
  {
    PhaseScope phase("freeze");
    global.pool().Freeze();
  }
  return global;
}

}  // namespace skydia::internal
