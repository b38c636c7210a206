#include "src/core/parallel.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/core/build_report.h"
#include "src/core/sweep_kernel.h"
#include "src/core/validate.h"
#include "src/skyline/dsg.h"
#include "src/skyline/interning.h"

namespace skydia {

namespace {

// One stripe's output: row-major SetIds into its private pool. Workers write
// disjoint StripeResult slots with no locking; the writes become visible to
// the merging thread through the WaitIdle() mutex handshake at the end of
// ThreadPool::ParallelFor.
struct StripeResult {
  StripeRange rows;
  std::unique_ptr<SkylineSetPool> pool;
  std::vector<SetId> cells;
};

// Debug builds re-check the merged diagram (mirrors the assertion in
// SkylineDiagram::Build; the parallel builders bypass that entry point).
#ifndef NDEBUG
template <typename Diagram>
void DebugValidateParallel(const Dataset& dataset, const Diagram& diagram,
                           const DiagramOptions& options,
                           CellSemantics semantics) {
  ValidateOptions validate;
  validate.sample_queries = 4;
  validate.semantics = semantics;
  validate.require_canonical_pool = options.intern_result_sets;
  const Status status = ValidateDiagram(dataset, diagram, validate);
  if (!status.ok()) {
    SKYDIA_LOG(Error) << "parallel-built diagram violates its invariants: "
                      << status;
  }
  SKYDIA_CHECK(status.ok());
}
#endif  // NDEBUG

}  // namespace

CellDiagram BuildQuadrantDsgParallel(const Dataset& dataset, int num_threads,
                                     const DiagramOptions& options) {
  SKYDIA_CHECK_GE(num_threads, 1);
  CellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return CellDiagram(dataset, options.intern_result_sets);
  }();
  const CellGrid& grid = diagram.grid();
  const DirectedSkylineGraph dsg = [&] {
    PhaseScope phase("dsg");
    return DirectedSkylineGraph(dataset);
  }();
  const size_t n = dataset.size();
  const uint32_t rows = grid.num_rows();
  const uint32_t cols = grid.num_columns();

  const auto stripes =
      std::min<uint32_t>(rows, static_cast<uint32_t>(num_threads));
  std::vector<StripeResult> results(stripes);

  {
    PhaseScope phase("stripes");
    ThreadPool pool(static_cast<size_t>(num_threads));
    pool.ParallelFor(stripes, [&](size_t stripe) {
      SKYDIA_TRACE_SPAN("stripe.dsg");
      StripeResult& result = results[stripe];
      result.rows = StripeRows(rows, stripes, static_cast<uint32_t>(stripe));
      result.pool = std::make_unique<SkylineSetPool>();
      result.cells.assign(
          static_cast<size_t>(result.rows.end - result.rows.begin) * cols,
          kEmptySetId);

      // Replay the row advances below this stripe — removals only, no cell
      // recording, so the whole replay costs O(n + links).
      std::vector<PointId> removed_scratch;
      SweepState row_state = InitialSweepState(dsg, n);
      {
        SKYDIA_TRACE_SPAN("stripe.replay");
        for (uint32_t cy = 0; cy < result.rows.begin; ++cy) {
          RemoveBatch(dsg, grid.PointsAtRow(cy), &row_state, &removed_scratch);
        }
      }

      std::vector<PointId> scratch;
      for (uint32_t cy = result.rows.begin; cy < result.rows.end; ++cy) {
        SKYDIA_TRACE_SPAN("sweep.row");
        SweepState work = row_state;
        for (uint32_t cx = 0; cx < cols; ++cx) {
          if (cx > 0) {
            RemoveBatch(dsg, grid.PointsAtColumn(cx - 1), &work,
                        &removed_scratch);
          }
          scratch.assign(work.skyline.begin(), work.skyline.end());
          result.cells[static_cast<size_t>(cy - result.rows.begin) * cols +
                       cx] = result.pool->InternCopy(scratch);
        }
        if (cy + 1 < result.rows.end) {
          RemoveBatch(dsg, grid.PointsAtRow(cy), &row_state, &removed_scratch);
        }
      }
      result.pool->Freeze();
    });
  }

  {
    PhaseScope phase("merge");
    // Deterministic merge: stripes in order, remapping each private pool
    // into the diagram's pool. A merged stripe is released here, so the
    // teardown of its private pool (several percent of a small build) is
    // charged to this phase rather than to no phase at all.
    for (StripeResult& result : results) {
      const std::vector<SetId> remap =
          RemapPool(*result.pool, &diagram.pool());
      for (uint32_t cy = result.rows.begin; cy < result.rows.end; ++cy) {
        for (uint32_t cx = 0; cx < cols; ++cx) {
          diagram.set_cell(
              cx, cy,
              remap[result.cells[static_cast<size_t>(cy - result.rows.begin) *
                                     cols +
                                 cx]]);
        }
      }
      result = StripeResult{};
    }
  }
  {
    PhaseScope phase("freeze");
    diagram.pool().Freeze();
  }
#ifndef NDEBUG
  {
    PhaseScope phase("validate");
    DebugValidateParallel(dataset, diagram, options, CellSemantics::kQuadrant);
  }
#endif
  return diagram;
}

SubcellDiagram BuildDynamicScanningParallel(const Dataset& dataset,
                                            int num_threads,
                                            const DiagramOptions& options) {
  SKYDIA_CHECK_GE(num_threads, 1);
  SubcellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return SubcellDiagram(dataset, options.intern_result_sets);
  }();
  const SubcellGrid& grid = diagram.grid();
  const uint32_t rows = grid.num_rows();
  const uint32_t cols = grid.num_columns();

  const auto stripes =
      std::min<uint32_t>(rows, static_cast<uint32_t>(num_threads));
  std::vector<StripeResult> results(stripes);

  {
    PhaseScope phase("stripes");
    ThreadPool pool(static_cast<size_t>(num_threads));
    pool.ParallelFor(stripes, [&](size_t stripe) {
      SKYDIA_TRACE_SPAN("stripe.scan");
      StripeResult& result = results[stripe];
      result.rows = StripeRows(rows, stripes, static_cast<uint32_t>(stripe));
      result.pool = std::make_unique<SkylineSetPool>();
      result.cells.assign(
          static_cast<size_t>(result.rows.end - result.rows.begin) * cols,
          kEmptySetId);

      // Enter the stripe with one from-scratch skyline at (0, row_begin),
      // then scan incrementally exactly like the sequential builder.
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
    // Deterministic merge in stripe order, releasing each merged stripe
    // (mirrors BuildQuadrantDsgParallel).
    for (StripeResult& result : results) {
      const std::vector<SetId> remap =
          RemapPool(*result.pool, &diagram.pool());
      for (uint32_t sy = result.rows.begin; sy < result.rows.end; ++sy) {
        for (uint32_t sx = 0; sx < cols; ++sx) {
          diagram.set_subcell(
              sx, sy,
              remap[result.cells[static_cast<size_t>(sy - result.rows.begin) *
                                     cols +
                                 sx]]);
        }
      }
      result = StripeResult{};
    }
  }
  {
    PhaseScope phase("freeze");
    diagram.pool().Freeze();
  }
#ifndef NDEBUG
  {
    PhaseScope phase("validate");
    DebugValidateParallel(dataset, diagram, options, CellSemantics::kAuto);
  }
#endif
  return diagram;
}

}  // namespace skydia
