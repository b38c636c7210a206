#include "src/core/dynamic_subset.h"

#include <algorithm>

#include "src/core/build_report.h"
#include "src/skyline/query.h"

namespace skydia::internal {

namespace {

// Maps every subcell slab to the skyline-cell column/row containing its
// interior: the number of distinct point coordinates whose grid line lies at
// or left of the slab's left boundary (no point line crosses a slab
// interior).
std::vector<uint32_t> SlabToCellIndex(const SubcellAxis& axis,
                                      const std::vector<int64_t>& doubled) {
  std::vector<uint32_t> map(axis.num_slabs());
  map[0] = 0;
  for (uint32_t slab = 1; slab < axis.num_slabs(); ++slab) {
    const int64_t left = axis.line(slab - 1);
    map[slab] = static_cast<uint32_t>(
        std::upper_bound(doubled.begin(), doubled.end(), left) -
        doubled.begin());
  }
  return map;
}

std::vector<int64_t> DoubledDistinct(const Dataset& dataset, bool use_x) {
  std::vector<int64_t> values;
  values.reserve(dataset.size());
  for (const Point2D& p : dataset.points()) {
    values.push_back(2 * (use_x ? p.x : p.y));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace

SubcellDiagram BuildDynamicSubset(const Dataset& dataset,
                                  QuadrantBuilder build_quadrant) {
  const CellDiagram global = [&] {
    PhaseScope phase("global");
    return BuildGlobalDiagram(dataset, build_quadrant);
  }();
  SubcellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return SubcellDiagram(dataset);
  }();
  const SubcellGrid& grid = diagram.grid();

  {
    PhaseScope phase("scan");
    const std::vector<uint32_t> col_of = SlabToCellIndex(
        grid.x_axis(), DoubledDistinct(dataset, /*use_x=*/true));
    const std::vector<uint32_t> row_of = SlabToCellIndex(
        grid.y_axis(), DoubledDistinct(dataset, /*use_x=*/false));

    std::vector<MappedCandidate> scratch;
    std::vector<PointId> sky;
    for (uint32_t sy = 0; sy < grid.num_rows(); ++sy) {
      SKYDIA_TRACE_SPAN("scan.row");
      const int64_t repy4 = grid.y_axis().Representative4(sy);
      for (uint32_t sx = 0; sx < grid.num_columns(); ++sx) {
        const int64_t repx4 = grid.x_axis().Representative4(sx);
        DynamicSkylineOfSubsetAt4(dataset,
                                  global.CellSkyline(col_of[sx], row_of[sy]),
                                  repx4, repy4, &scratch, &sky);
        diagram.set_subcell(sx, sy, diagram.pool().InternCopy(sky));
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
