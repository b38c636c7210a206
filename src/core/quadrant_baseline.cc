#include "src/core/quadrant_baseline.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/core/build_report.h"

namespace skydia::internal {

CellDiagram BuildQuadrantBaseline(const Dataset& dataset) {
  CellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return CellDiagram(dataset);
  }();
  const CellGrid& grid = diagram.grid();
  const size_t n = dataset.size();

  // Sort once by (x asc, y asc); every per-cell scan reuses this order
  // (Algorithm 1, line 1).
  std::vector<PointId> order(n);
  {
    PhaseScope phase("sort");
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](PointId a, PointId b) {
      const Point2D& pa = dataset.point(a);
      const Point2D& pb = dataset.point(b);
      if (pa.x != pb.x) return pa.x < pb.x;
      if (pa.y != pb.y) return pa.y < pb.y;
      return a < b;
    });
  }

  std::vector<PointId> scratch;
  {
    PhaseScope phase("cells");
    for (uint32_t cy = 0; cy < grid.num_rows(); ++cy) {
      SKYDIA_TRACE_SPAN("cells.row");
      for (uint32_t cx = 0; cx < grid.num_columns(); ++cx) {
        // Candidates: xrank >= cx && yrank >= cy. Staircase over the sorted
        // order: within each x-group the minimal-y candidates come first, and
        // a group contributes its minimum-y candidates when that minimum
        // beats every earlier group's best.
        scratch.clear();
        int64_t best_y = std::numeric_limits<int64_t>::max();
        size_t i = 0;
        while (i < n) {
          const PointId first = order[i];
          const int64_t gx = dataset.point(first).x;
          size_t j = i;
          int64_t group_min = std::numeric_limits<int64_t>::max();
          bool group_seen = false;
          // One pass over the x-group: candidates appear in ascending y, so
          // the first candidate carries the group minimum.
          while (j < n && dataset.point(order[j]).x == gx) {
            const PointId id = order[j];
            if (grid.xrank(id) >= cx && grid.yrank(id) >= cy) {
              const int64_t y = dataset.point(id).y;
              if (!group_seen) {
                group_min = y;
                group_seen = true;
              }
              if (y == group_min && group_min < best_y) {
                scratch.push_back(id);
              }
            }
            ++j;
          }
          if (group_seen && group_min < best_y) best_y = group_min;
          i = j;
        }
        std::sort(scratch.begin(), scratch.end());
        diagram.set_cell(cx, cy, diagram.pool().InternCopy(scratch));
      }
    }
  }
  {
    PhaseScope phase("freeze");
    diagram.pool().Freeze();
  }
  return diagram;
}

}  // namespace skydia::internal
