// Staircase construction of the quadrant skyline diagram: the cells of
// Algorithm 3 (src/core/quadrant_scanning.h) in O(cells) time, with no
// per-cell merge and no hashing.
//
// The identity. Fix a row cy. Moving from column cx+1 to column cx adds the
// points of xrank cx as candidates. Let g be the lowest group of them with
// yrank >= cy (the corner group PointsAtCorner(cx, yrank), exact duplicates
// together). g has the strictly smallest x, so nothing dominates it, and it
// dominates exactly the members of Sky(cx+1, cy) with yrank >= its own;
// those form a prefix of the skyline in x order. So
//
//   Sky(cx, cy) = g followed by a suffix of Sky(cx+1, cy),
//
// and with no such g, Sky(cx, cy) = Sky(cx+1, cy). Every cell's answer is
// therefore one (head, tail) node whose tail is another node, and each row
// is a walk down the lists of the row itself, O(columns) amortized.
//
// Deduplication without hashing. A fixed head g is the head of one run of
// rows in its column, and there its tail is the skyline of the band
// {xrank > g.x, cy <= yrank < g.y}. As cy falls the band only grows, so a
// point that leaves the tail never comes back, and a tail that changed never
// returns to an earlier value. One memo per head of (last tail, its node)
// therefore finds every repeat. A set's first cell in scan order is a head
// cell, so the nodes get their ids in exactly the order in which scanning's
// pool first interns the same sets: the SetIds, cell table and pool equal
// Algorithm 3's, and so do the saved bytes.
//
// After the scan the arena is written once, in SetId order and at its exact
// size: each set is its head group merged into the sorted slice its tail
// already wrote. The pool adopts it whole (SkylineSetPool::AdoptArena), so
// there is no growth, no Freeze copy, and the dedup index is built only if a
// later Intern asks for it.
#ifndef SKYDIA_SRC_CORE_QUADRANT_STAIRCASE_H_
#define SKYDIA_SRC_CORE_QUADRANT_STAIRCASE_H_

#include "src/core/skyline_cell.h"
#include "src/geometry/dataset.h"

namespace skydia::internal {

/// Builds the first-quadrant skyline diagram from (head, tail) staircase
/// lists. Same cells, SetIds and pool contents as BuildQuadrantScanning.
CellDiagram BuildQuadrantStaircase(const Dataset& dataset);

}  // namespace skydia::internal

#endif  // SKYDIA_SRC_CORE_QUADRANT_STAIRCASE_H_
