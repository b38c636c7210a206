// Shared sweep machinery for the diagram builders:
//
//  * the DSG sweep (SweepState / InitialSweepState / RemoveBatch): the
//    paper's tempDSG walk that retires point batches as the sweep crosses
//    grid lines and promotes newly exposed children onto the skyline. Used
//    by the quadrant DSG builder.
//  * the dynamic scanning row walk (DynamicRowScanner): Algorithm 7's
//    incremental candidate propagation across one subcell row, shared by the
//    sequential scanning builder and the stripe-parallel one.
//  * stripe partitioning and the deterministic pool remap-merge that turns
//    worker-private interning pools into one diagram pool with contents
//    independent of the thread count.
#ifndef SKYDIA_SRC_CORE_SWEEP_KERNEL_H_
#define SKYDIA_SRC_CORE_SWEEP_KERNEL_H_

#include <cstdint>
#include <set>
#include <vector>

#include "src/core/subcell_grid.h"
#include "src/geometry/dataset.h"
#include "src/skyline/dsg.h"
#include "src/skyline/interning.h"
#include "src/skyline/query.h"

namespace skydia {

// --- DSG sweep (quadrant builders) ------------------------------------------

/// Mutable sweep state: which points are still candidates, how many direct
/// parents each has left, and the current skyline.
struct SweepState {
  std::vector<uint8_t> alive;
  std::vector<uint32_t> parents_left;
  std::set<PointId> skyline;
};

/// The state before any removal: everything alive, parentless points on the
/// skyline.
SweepState InitialSweepState(const DirectedSkylineGraph& dsg, size_t n);

/// Removes `batch` from the state: phase 1 retires the points themselves,
/// phase 2 promotes surviving children whose last direct parent vanished.
/// Only points that were actually alive participate in phase 2 — batch lists
/// may contain points removed by an earlier (orthogonal) sweep, and their
/// children were already decremented then. `newly_removed` is scratch reused
/// across calls.
void RemoveBatch(const DirectedSkylineGraph& dsg,
                 const std::vector<PointId>& batch, SweepState* state,
                 std::vector<PointId>* newly_removed);

// --- dynamic scanning row walk (Algorithm 7) --------------------------------

/// Walks subcell rows of a dynamic diagram: maintains the row anchor (the
/// skyline of subcell (0, sy)) across horizontal lines and scans one row at a
/// time across the vertical lines. One instance per worker; all scratch is
/// reused across rows.
class DynamicRowScanner {
 public:
  DynamicRowScanner(const Dataset& dataset, const SubcellGrid& grid)
      : dataset_(dataset), grid_(grid) {}

  /// Seeds the row anchor with a from-scratch O(n log n) skyline computation
  /// at subcell (0, sy) — how a stripe enters at an arbitrary row.
  void SeedRow(uint32_t sy);

  /// Advances the anchor across horizontal line `sy - 1` (from row sy-1 to
  /// sy): only that line's contributors can change dominance.
  void AdvanceRow(uint32_t sy);

  /// Scans row `sy` left to right, interning every subcell's result into
  /// `pool` and writing the ids to `row_out[0 .. grid.num_columns())`.
  void ScanRow(uint32_t sy, SkylineSetPool* pool, SetId* row_out);

 private:
  const Dataset& dataset_;
  const SubcellGrid& grid_;
  std::vector<PointId> row_anchor_;
  std::vector<PointId> current_;
  std::vector<PointId> candidates_;
  std::vector<MappedCandidate> mapped_;
};

// --- stripe partitioning and deterministic merge ----------------------------

/// Half-open row range [begin, end) of `stripe` out of `stripes` over `rows`
/// rows (the last stripe may be short).
struct StripeRange {
  uint32_t begin = 0;
  uint32_t end = 0;
};
StripeRange StripeRows(uint32_t rows, uint32_t stripes, uint32_t stripe);

/// Interns every set of `src` into `dst`, returning the old-id -> new-id
/// map. Merging worker pools in stripe order makes the final diagram's
/// contents (and, with deduplication, its ids) independent of thread count.
std::vector<SetId> RemapPool(const SkylineSetPool& src, SkylineSetPool* dst);

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_SWEEP_KERNEL_H_
