#include "src/core/dynamic_scanning.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/core/build_report.h"
#include "src/skyline/interning.h"
#include "src/skyline/query.h"

namespace skydia::internal {

namespace {

// candidates = sorted_union(prev, extra), both sorted ascending.
void SortedUnion(const std::vector<PointId>& prev,
                 const std::vector<PointId>& extra,
                 std::vector<PointId>* out) {
  out->clear();
  out->reserve(prev.size() + extra.size());
  std::set_union(prev.begin(), prev.end(), extra.begin(), extra.end(),
                 std::back_inserter(*out));
}

// Walks subcell rows: maintains the row anchor (the skyline of subcell
// (0, sy)) across horizontal lines and scans one row at a time across the
// vertical lines. One instance per stripe; all scratch is reused across rows.
class DynamicRowScanner {
 public:
  DynamicRowScanner(const Dataset& dataset, const SubcellGrid& grid)
      : dataset_(dataset), grid_(grid) {}

  // Seeds the row anchor with a from-scratch O(n log n) skyline computation
  // at subcell (0, sy) — how a stripe enters at an arbitrary row.
  void SeedRow(uint32_t sy);

  // Advances the anchor across horizontal line `sy - 1` (from row sy-1 to
  // sy): only that line's contributors can change dominance.
  void AdvanceRow(uint32_t sy);

  // Scans row `sy` left to right, interning every subcell's result into
  // `pool` and writing the ids to `row_out[0 .. grid.num_columns())`.
  void ScanRow(uint32_t sy, SkylineSetPool* pool, SetId* row_out);

 private:
  const Dataset& dataset_;
  const SubcellGrid& grid_;
  std::vector<PointId> row_anchor_;
  std::vector<PointId> current_;
  std::vector<PointId> candidates_;
  std::vector<MappedCandidate> mapped_;
};

void DynamicRowScanner::SeedRow(uint32_t sy) {
  row_anchor_ = DynamicSkylineAt4(dataset_, grid_.x_axis().Representative4(0),
                                  grid_.y_axis().Representative4(sy));
}

void DynamicRowScanner::AdvanceRow(uint32_t sy) {
  SortedUnion(row_anchor_, grid_.ContributorsY(sy - 1), &candidates_);
  DynamicSkylineOfSubsetAt4(dataset_, candidates_,
                            grid_.x_axis().Representative4(0),
                            grid_.y_axis().Representative4(sy), &mapped_,
                            &row_anchor_);
}

void DynamicRowScanner::ScanRow(uint32_t sy, SkylineSetPool* pool,
                                SetId* row_out) {
  const int64_t repy4 = grid_.y_axis().Representative4(sy);
  current_ = row_anchor_;
  row_out[0] = pool->InternCopy(current_);
  for (uint32_t sx = 1; sx < grid_.num_columns(); ++sx) {
    // Cross vertical line sx-1.
    SortedUnion(current_, grid_.ContributorsX(sx - 1), &candidates_);
    DynamicSkylineOfSubsetAt4(dataset_, candidates_,
                              grid_.x_axis().Representative4(sx), repy4,
                              &mapped_, &current_);
    row_out[sx] = pool->InternCopy(current_);
  }
}

// Half-open row range [begin, end) of one stripe.
struct StripeRange {
  uint32_t begin = 0;
  uint32_t end = 0;
};

// The rows of `stripe` out of `stripes` over `rows` rows (the last stripe may
// be short).
StripeRange StripeRows(uint32_t rows, uint32_t stripes, uint32_t stripe) {
  const uint32_t rows_per_stripe = (rows + stripes - 1) / stripes;
  StripeRange range;
  range.begin = std::min(rows, stripe * rows_per_stripe);
  range.end = std::min(rows, range.begin + rows_per_stripe);
  return range;
}

// Interns every set of `src` into `dst`, returning the old-id -> new-id map.
// Merging the stripe pools in stripe order makes the diagram's contents and
// ids independent of the thread count.
std::vector<SetId> RemapPool(const SkylineSetPool& src, SkylineSetPool* dst) {
  std::vector<SetId> remap(src.size(), kEmptySetId);
  for (SetId id = 0; id < src.size(); ++id) {
    remap[id] = dst->InternCopy(src.Get(id));
  }
  return remap;
}

// One stripe's output: row-major SetIds into its private pool. Workers write
// disjoint StripeResult slots with no locking; the writes become visible to
// the merging thread through the WaitIdle() mutex handshake at the end of
// ThreadPool::ParallelFor.
struct StripeResult {
  StripeRange rows;
  std::unique_ptr<SkylineSetPool> pool;
  std::vector<SetId> cells;
};

// Scans `stripes` (> 1) row stripes on `threads` workers and merges them into
// `diagram`.
void ScanStripes(const Dataset& dataset, uint32_t stripes, int threads,
                 SubcellDiagram* diagram) {
  const SubcellGrid& grid = diagram->grid();
  const uint32_t rows = grid.num_rows();
  const uint32_t cols = grid.num_columns();
  std::vector<StripeResult> results(stripes);

  {
    PhaseScope phase("stripes");
    ThreadPool pool(static_cast<size_t>(threads));
    pool.ParallelFor(stripes, [&](size_t stripe) {
      SKYDIA_TRACE_SPAN("stripe.scan");
      StripeResult& result = results[stripe];
      result.rows = StripeRows(rows, stripes, static_cast<uint32_t>(stripe));
      result.pool = std::make_unique<SkylineSetPool>();
      result.cells.assign(
          static_cast<size_t>(result.rows.end - result.rows.begin) * cols,
          kEmptySetId);

      // Enter the stripe with one from-scratch skyline at (0, row_begin),
      // then scan incrementally exactly like the one-stripe build.
      DynamicRowScanner scanner(dataset, grid);
      scanner.SeedRow(result.rows.begin);
      for (uint32_t sy = result.rows.begin; sy < result.rows.end; ++sy) {
        SKYDIA_TRACE_SPAN("scan.row");
        if (sy > result.rows.begin) scanner.AdvanceRow(sy);
        scanner.ScanRow(
            sy, result.pool.get(),
            result.cells.data() +
                static_cast<size_t>(sy - result.rows.begin) * cols);
      }
      result.pool->Freeze();
    });
  }

  {
    PhaseScope phase("merge");
    // Deterministic merge: stripes in order, remapping each private pool
    // into the diagram's pool. A merged stripe is released here, so the
    // teardown of its private pool is charged to this phase rather than to
    // no phase at all.
    for (StripeResult& result : results) {
      const std::vector<SetId> remap =
          RemapPool(*result.pool, &diagram->pool());
      for (uint32_t sy = result.rows.begin; sy < result.rows.end; ++sy) {
        for (uint32_t sx = 0; sx < cols; ++sx) {
          diagram->set_subcell(
              sx, sy,
              remap[result.cells[static_cast<size_t>(sy - result.rows.begin) *
                                     cols +
                                 sx]]);
        }
      }
      result = StripeResult{};
    }
  }
}

}  // namespace

SubcellDiagram BuildDynamicScanning(const Dataset& dataset, int threads) {
  SKYDIA_CHECK_GE(threads, 1);
  SubcellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return SubcellDiagram(dataset);
  }();
  const SubcellGrid& grid = diagram.grid();
  const uint32_t cols = grid.num_columns();
  const uint32_t rows = grid.num_rows();
  const auto stripes = std::min<uint32_t>(rows, static_cast<uint32_t>(threads));

  if (stripes > 1) {
    ScanStripes(dataset, stripes, threads, &diagram);
  } else {
    PhaseScope phase("scan");
    // Seed the anchor at (0, 0) from scratch, then advance it across each
    // horizontal line and scan every row incrementally across the vertical
    // lines, straight into the diagram's pool and row-major table.
    DynamicRowScanner scanner(dataset, grid);
    scanner.SeedRow(0);
    SetId* row = diagram.cell_table().data();
    for (uint32_t sy = 0; sy < rows; ++sy, row += cols) {
      SKYDIA_TRACE_SPAN("scan.row");
      if (sy > 0) scanner.AdvanceRow(sy);
      scanner.ScanRow(sy, &diagram.pool(), row);
    }
  }
  {
    PhaseScope phase("freeze");
    diagram.pool().Freeze();
  }
  return diagram;
}

}  // namespace skydia::internal
