// Scanning construction of the quadrant skyline diagram (Algorithm 3 +
// Theorem 1 of the paper): scan cells from the top-right corner down-left and
// obtain each cell's skyline from its three already-computed neighbours with
// one multiset identity,
//
//   Sky(C[i][j]) = Sky(C[i+1][j]) + Sky(C[i][j+1]) - Sky(C[i+1][j+1]),
//
// except for cells that carry a point on their upper-right corner, whose
// skyline is exactly the corner point(s). The subtraction saturates at zero:
// a candidate dominated both by a point on the crossed vertical line and by
// one on the crossed horizontal line — while surviving among the strictly
// upper-right points — appears in neither neighbour sum but does appear in
// the subtrahend. Saturating handles this exactly (it also covers tie-heavy
// data, where whole groups share one grid line); the case analysis lives in
// tests/core/theorems_test.cc.
#ifndef SKYDIA_SRC_CORE_QUADRANT_SCANNING_H_
#define SKYDIA_SRC_CORE_QUADRANT_SCANNING_H_

#include "src/core/skyline_cell.h"
#include "src/geometry/dataset.h"

namespace skydia::internal {

/// Builds the first-quadrant skyline diagram with the scanning algorithm.
CellDiagram BuildQuadrantScanning(const Dataset& dataset);

/// The Theorem 1 combination step: out = (right + up) - upright over sorted
/// sets, subtraction saturating at zero. Shared with the incremental
/// maintenance code.
void ScanningMergeIdentity(std::span<const PointId> right,
                           std::span<const PointId> up,
                           std::span<const PointId> upright,
                           std::vector<PointId>* out);

}  // namespace skydia::internal

#endif  // SKYDIA_SRC_CORE_QUADRANT_SCANNING_H_
