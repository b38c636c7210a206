// Subset dynamic skyline diagram (Algorithm 6): the dynamic skyline of a
// subcell is always a subset of the *global* skyline of the skyline cell
// containing it (a mapped point can only dominate more, never less). The
// builder therefore computes the global diagram first and evaluates each
// subcell's dynamic skyline over that cell's (small) global result instead of
// all n points. Worst case matches the baseline; amortized
// O(n^4 log n)-style behaviour in practice because global results average
// O(log n) points (§V.B).
#ifndef SKYDIA_SRC_CORE_DYNAMIC_SUBSET_H_
#define SKYDIA_SRC_CORE_DYNAMIC_SUBSET_H_

#include "src/core/global_diagram.h"
#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"

namespace skydia::internal {

/// Builds the dynamic skyline diagram via the subset algorithm, over a global
/// diagram whose four quadrant constructions run `build_quadrant`.
SubcellDiagram BuildDynamicSubset(const Dataset& dataset,
                                  QuadrantBuilder build_quadrant);

}  // namespace skydia::internal

#endif  // SKYDIA_SRC_CORE_DYNAMIC_SUBSET_H_
