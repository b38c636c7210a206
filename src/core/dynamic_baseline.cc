#include "src/core/dynamic_baseline.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "src/core/build_report.h"

namespace skydia::internal {

namespace {

// Point ids in ascending mapped-x order (|4*p.x - repx4|) for one subcell
// column, with group boundaries between distinct mapped values. The order is
// shared by every subcell of the column.
struct ColumnOrder {
  std::vector<PointId> ids;
  std::vector<uint32_t> group_begin;  // indices into ids; sentinel ids.size()
};

ColumnOrder BuildColumnOrder(const Dataset& dataset,
                             const std::vector<PointId>& by_x, int64_t repx4) {
  const size_t n = by_x.size();
  ColumnOrder order;
  order.ids.reserve(n);
  // Split: [0, split) lie strictly left of the representative. The
  // representative never coincides with a mapped point (see SubcellAxis).
  size_t split = 0;
  while (split < n && 4 * dataset.point(by_x[split]).x < repx4) ++split;
  size_t li = split;  // walks down through [0, split)
  size_t ri = split;  // walks up through [split, n)
  auto mapped = [&](size_t idx) {
    return std::llabs(4 * dataset.point(by_x[idx]).x - repx4);
  };
  int64_t last = -1;
  while (li > 0 || ri < n) {
    bool take_left;
    if (li == 0) {
      take_left = false;
    } else if (ri == n) {
      take_left = true;
    } else {
      take_left = mapped(li - 1) < mapped(ri);
    }
    const size_t idx = take_left ? li - 1 : ri;
    const int64_t m = mapped(idx);
    if (m != last) {
      order.group_begin.push_back(static_cast<uint32_t>(order.ids.size()));
      last = m;
    }
    order.ids.push_back(by_x[idx]);
    if (take_left) {
      --li;
    } else {
      ++ri;
    }
  }
  order.group_begin.push_back(static_cast<uint32_t>(order.ids.size()));
  return order;
}

}  // namespace

SubcellDiagram BuildDynamicBaseline(const Dataset& dataset) {
  SubcellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return SubcellDiagram(dataset);
  }();
  const SubcellGrid& grid = diagram.grid();
  const size_t n = dataset.size();

  std::vector<PointId> by_x(n);
  {
    PhaseScope phase("sort");
    std::iota(by_x.begin(), by_x.end(), 0);
    std::sort(by_x.begin(), by_x.end(), [&](PointId a, PointId b) {
      return dataset.point(a).x < dataset.point(b).x;
    });
  }

  {
    PhaseScope phase("cells");
    std::vector<PointId> scratch;
    for (uint32_t sx = 0; sx < grid.num_columns(); ++sx) {
      SKYDIA_TRACE_SPAN("cells.column");
      const int64_t repx4 = grid.x_axis().Representative4(sx);
      const ColumnOrder order = BuildColumnOrder(dataset, by_x, repx4);
      const size_t groups = order.group_begin.size() - 1;
      for (uint32_t sy = 0; sy < grid.num_rows(); ++sy) {
        const int64_t repy4 = grid.y_axis().Representative4(sy);
        // Staircase over mapped y, ascending mapped x, tie-groups intact.
        scratch.clear();
        int64_t best = std::numeric_limits<int64_t>::max();
        for (size_t g = 0; g < groups; ++g) {
          const uint32_t lo = order.group_begin[g];
          const uint32_t hi = order.group_begin[g + 1];
          int64_t group_min = std::numeric_limits<int64_t>::max();
          for (uint32_t k = lo; k < hi; ++k) {
            group_min = std::min<int64_t>(
                group_min,
                std::llabs(4 * dataset.point(order.ids[k]).y - repy4));
          }
          if (group_min < best) {
            for (uint32_t k = lo; k < hi; ++k) {
              if (std::llabs(4 * dataset.point(order.ids[k]).y - repy4) ==
                  group_min) {
                scratch.push_back(order.ids[k]);
              }
            }
            best = group_min;
          }
        }
        std::sort(scratch.begin(), scratch.end());
        diagram.set_subcell(sx, sy, diagram.pool().InternCopy(scratch));
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
