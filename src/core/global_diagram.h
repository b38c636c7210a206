// Global skyline diagram: the global skyline is the union of the four
// per-quadrant skylines (§III), so the diagram is assembled from four runs of
// a quadrant builder on reflected copies of the dataset — reflection turns
// each quadrant's dominance into first-quadrant dominance, and cell indices
// map back by reversing the reflected axes.
//
// Exactness: cell results are exact at every query position, grid lines
// included. For q in column cx the reflected quadrants' strict candidate
// test p.x < q.x selects exactly the points with p.x <= line[cx-1], so each
// quadrant's candidate set — and with it the union — is constant on the
// half-open cell (see src/core/point_location.h). Dynamic diagrams
// (src/core/dynamic_*.h) are exact only off their grid and bisector lines.
#ifndef SKYDIA_SRC_CORE_GLOBAL_DIAGRAM_H_
#define SKYDIA_SRC_CORE_GLOBAL_DIAGRAM_H_

#include "src/core/skyline_cell.h"
#include "src/geometry/dataset.h"

namespace skydia::internal {

/// A first-quadrant cell construction: BuildQuadrantBaseline, BuildQuadrantDsg
/// or BuildQuadrantScanning (Algorithms 1-3).
using QuadrantBuilder = CellDiagram (*)(const Dataset&);

/// Builds the global skyline diagram (union of the four quadrant skylines per
/// cell), running `build_quadrant` for each of the four reflected
/// constructions.
CellDiagram BuildGlobalDiagram(const Dataset& dataset,
                               QuadrantBuilder build_quadrant);

}  // namespace skydia::internal

#endif  // SKYDIA_SRC_CORE_GLOBAL_DIAGRAM_H_
