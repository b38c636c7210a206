// Directed-skyline-graph construction of the quadrant skyline diagram
// (Algorithm 2 of the paper).
//
// Instead of recomputing every cell from scratch, the builder maintains the
// skyline incrementally: crossing a grid line removes exactly the points on
// that line, and a removed point's direct children (in the DSG) with no
// remaining direct parents become new skyline members. The sweep removes
// points in monotone rank order, so dominators are always removed no later
// than the points they dominate, which is what makes direct-parent counting
// sufficient (see src/skyline/dsg.h).
//
// Worst case O(n^3) like the baseline, but the work per row is proportional
// to the number of direct links, which is far below n^2 in practice (§IV.B).
#ifndef SKYDIA_SRC_CORE_QUADRANT_DSG_H_
#define SKYDIA_SRC_CORE_QUADRANT_DSG_H_

#include "src/core/skyline_cell.h"
#include "src/geometry/dataset.h"

namespace skydia::internal {

/// Builds the first-quadrant skyline diagram with the DSG algorithm.
CellDiagram BuildQuadrantDsg(const Dataset& dataset);

}  // namespace skydia::internal

#endif  // SKYDIA_SRC_CORE_QUADRANT_DSG_H_
