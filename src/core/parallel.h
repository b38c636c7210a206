// Parallel diagram construction — the direction the paper's journal
// extension develops, kept for the one construction where it pays: dynamic
// scanning (Algorithm 7). The subcell grid is partitioned into horizontal
// stripes; each worker enters its stripe with one from-scratch skyline at
// the stripe's first subcell and then scans its rows with the shared kernel
// (src/core/sweep_kernel.h), producing results in a worker-local interning
// pool. A deterministic merge remaps the per-stripe pools into the final
// diagram in stripe order, so its contents (and, with interning, its SetId
// numbering) match the sequential builder's regardless of thread count.
#ifndef SKYDIA_SRC_CORE_PARALLEL_H_
#define SKYDIA_SRC_CORE_PARALLEL_H_

#include "src/core/options.h"
#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"

namespace skydia {

/// Deprecated direct entry point — new code should go through
/// SkylineDiagram::Build (src/core/diagram.h), which dispatches here.
/// Builds the dynamic skyline diagram with the scanning algorithm
/// (Algorithm 7) across `num_threads` workers. Subcell rows are striped;
/// each worker seeds its first row with one O(n log n) from-scratch skyline
/// and scans incrementally from there. SameResults-equal to
/// BuildDynamicScanning for every thread count.
SubcellDiagram BuildDynamicScanningParallel(const Dataset& dataset,
                                            int num_threads,
                                            const DiagramOptions& options = {});

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_PARALLEL_H_
