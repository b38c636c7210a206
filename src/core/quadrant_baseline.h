// Baseline skyline-diagram construction for quadrant skyline queries
// (Algorithm 1 of the paper): computes the skyline of every skyline cell from
// scratch with a sorted scan. O(n^3) time after the initial sort (the paper's
// bound; O(min(s^2, n^2) * n) under a limited domain of size s).
#ifndef SKYDIA_SRC_CORE_QUADRANT_BASELINE_H_
#define SKYDIA_SRC_CORE_QUADRANT_BASELINE_H_

#include "src/core/skyline_cell.h"
#include "src/geometry/dataset.h"

namespace skydia::internal {

/// Builds the first-quadrant skyline diagram with the baseline algorithm.
CellDiagram BuildQuadrantBaseline(const Dataset& dataset);

}  // namespace skydia::internal

#endif  // SKYDIA_SRC_CORE_QUADRANT_BASELINE_H_
