// Scanning dynamic skyline diagram (Algorithm 7, §V.C): sweep the subcells
// row by row; when the sweep crosses a vertical (resp. horizontal) grid or
// bisector line, only the points party to that line can change dominance, so
//
//   Sky(SC_next) = DynamicSkyline( Sky(SC_prev) ∪ contributors(line) )
//
// evaluated at the next subcell's representative. Correctness: a pairwise
// dominance relation (a, b) flips only at a's and b's bisector lines, so the
// new skyline is contained in the candidate set; and because dynamic
// dominance (fixed query) is transitive, any candidate dominated by a
// non-candidate is also dominated by a new-skyline member, which *is* a
// candidate — so the skyline of the candidate set equals the true skyline.
//
// On more than one thread the build follows the parallel direction of the
// paper's journal version (arXiv 1812.01663): the subcell rows are split into
// horizontal stripes, each worker enters its stripe with one from-scratch
// skyline at the stripe's first subcell and scans its rows into a private
// interning pool, and a deterministic merge remaps the private pools into the
// diagram's in stripe order. The diagram's contents and SetId numbering are
// therefore the same at every thread count.
#ifndef SKYDIA_SRC_CORE_DYNAMIC_SCANNING_H_
#define SKYDIA_SRC_CORE_DYNAMIC_SCANNING_H_

#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"

namespace skydia::internal {

/// Builds the dynamic skyline diagram with the scanning algorithm on
/// `threads` (>= 1) workers, one stripe of rows each. With one stripe the
/// scan runs on the calling thread, straight into the diagram's pool.
SubcellDiagram BuildDynamicScanning(const Dataset& dataset, int threads = 1);

}  // namespace skydia::internal

#endif  // SKYDIA_SRC_CORE_DYNAMIC_SCANNING_H_
