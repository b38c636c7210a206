// Baseline dynamic skyline diagram (Algorithm 5): for every skyline subcell,
// map all points through |p - q| for the subcell's representative and compute
// the traditional skyline. O(n^5) over an unlimited domain; O(min(s^2,n^2)^2
// * n) with domain size s.
//
// The per-subcell skyline runs in O(n) as in the paper: the mapped x-order of
// the points is fixed within one subcell *column* (a two-way merge of the
// x-sorted points around the representative), so it is computed once per
// column and each subcell performs a single staircase scan.
#ifndef SKYDIA_SRC_CORE_DYNAMIC_BASELINE_H_
#define SKYDIA_SRC_CORE_DYNAMIC_BASELINE_H_

#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"

namespace skydia::internal {

/// Builds the dynamic skyline diagram with the baseline algorithm.
SubcellDiagram BuildDynamicBaseline(const Dataset& dataset);

}  // namespace skydia::internal

#endif  // SKYDIA_SRC_CORE_DYNAMIC_BASELINE_H_
