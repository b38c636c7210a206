// Structural invariant validator for built (or loaded) skyline diagrams.
//
// A diagram is the paper's precompute-once artifact: the skyline polyominoes
// tile the (s+1) x (s+1) grid (Definitions 4-6 of Liu et al., ICDE 2018) and
// every cell stores exactly the skyline of any query inside it (Theorems
// 1-2). Nothing in the serving path recomputes skylines, so a corrupted
// diagram silently serves wrong answers forever. ValidateDiagram() checks the
// defining invariants mechanically:
//
//  1. Pool arena integrity: records cover the frozen arena back to back in id
//     order — in-bounds, non-overlapping, no gaps, record 0 is the empty set
//     — and every member list is sorted, duplicate-free, and references a
//     real point.
//  2. Cell tiling: the grid axes are strictly increasing, every point sits on
//     a grid line, the cell table covers the full rank-space grid (rows x
//     columns with no gaps — the compressed image of the paper's domain
//     tiling), and every cell references an existing result set.
//  3. Polyomino consistency: adjacent cells merged into one polyomino carry
//     identical interned result sets (checked through MergeCells for cell
//     diagrams), and — for canonical pools — no two distinct SetIds hold
//     identical contents, so the polyomino decomposition by SetId equals the
//     decomposition by content (Definition 6's "same skyline" regions).
//  4. Sampled ground truth (sample_queries > 0): for randomly chosen cells,
//     the stored result equals the O(n log n) brute-force skyline at an
//     interior representative position (quarter-integer coordinates, so the
//     sample never sits on a grid or bisector line). A cell diagram is
//     sampled against the oracle of the semantics its table states
//     (DiagramSemantics, src/core/diagram.h).
//
// The checks are pure reads; validation never mutates the diagram.
#ifndef SKYDIA_SRC_CORE_VALIDATE_H_
#define SKYDIA_SRC_CORE_VALIDATE_H_

#include <cstddef>
#include <cstdint>

#include "src/common/status.h"
#include "src/core/skyline_cell.h"
#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"

namespace skydia {

class SkylineDiagram;

struct ValidateOptions {
  /// Number of random cells to compare against the brute-force oracle.
  /// 0 = structural checks only.
  size_t sample_queries = 0;
  /// Seed for the sample-cell choice (deterministic).
  uint64_t seed = 1;
  /// Require the pool to be duplicate-free (hash-consing held). True for
  /// every diagram the builders produce; set false when validating a mutated
  /// diagram, whose adopted pool can hold duplicate contents
  /// (SkylineSetPool::AdoptFrom), or a blob saved from one.
  bool require_canonical_pool = true;
};

/// Validates a built or loaded diagram of either kind against its own
/// dataset: what `skydia check` and the debug re-check of every build run.
/// Returns OK or Corruption naming the first violated invariant.
Status ValidateDiagram(const SkylineDiagram& diagram,
                       const ValidateOptions& options = {});

/// The per-kind checks it dispatches to, over a bare table and the dataset
/// it was built from: a quadrant/global cell diagram or a dynamic subcell
/// diagram. They also check a table that cannot be wrapped (Wrap reads the
/// corner cell, which a corrupted table may not have).
Status ValidateDiagram(const Dataset& dataset, const CellDiagram& diagram,
                       const ValidateOptions& options = {});
Status ValidateDiagram(const Dataset& dataset, const SubcellDiagram& diagram,
                       const ValidateOptions& options = {});

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_VALIDATE_H_
