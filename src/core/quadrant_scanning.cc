#include "src/core/quadrant_scanning.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/core/build_report.h"

namespace skydia::internal {

// result = (a + b) - c with saturating multiset subtraction over sorted sets.
// Each input is duplicate-free; the output is asserted duplicate-free (which
// Theorem 1 guarantees).
void ScanningMergeIdentity(std::span<const PointId> a,
                           std::span<const PointId> b,
                           std::span<const PointId> c,
                           std::vector<PointId>* out) {
  out->clear();
  size_t ia = 0;
  size_t ib = 0;
  size_t ic = 0;
  while (ia < a.size() || ib < b.size()) {
    PointId next;
    if (ia < a.size() && (ib >= b.size() || a[ia] <= b[ib])) {
      next = a[ia];
    } else {
      next = b[ib];
    }
    int count = 0;
    if (ia < a.size() && a[ia] == next) {
      ++count;
      ++ia;
    }
    if (ib < b.size() && b[ib] == next) {
      ++count;
      ++ib;
    }
    while (ic < c.size() && c[ic] < next) ++ic;
    if (ic < c.size() && c[ic] == next) {
      --count;
      ++ic;
    }
    SKYDIA_CHECK_LE(count, 1);
    if (count == 1) out->push_back(next);
  }
}

CellDiagram BuildQuadrantScanning(const Dataset& dataset) {
  CellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return CellDiagram(dataset);
  }();
  const CellGrid& grid = diagram.grid();
  const uint32_t cols = grid.num_columns();
  const uint32_t rows = grid.num_rows();
  SkylineSetPool& pool = diagram.pool();

  // Two sliding rows of interned ids: the row above (already final) and the
  // row being produced. The top row (cy = rows-1) is all-empty: no candidate
  // has yrank >= num_distinct_y().
  std::vector<SetId> above(cols, kEmptySetId);
  std::vector<SetId> current(cols, kEmptySetId);
  for (uint32_t cx = 0; cx < cols; ++cx) {
    diagram.set_cell(cx, rows - 1, kEmptySetId);
  }

  {
    PhaseScope phase("scan");
    std::vector<PointId> scratch;
    for (uint32_t cy = rows - 1; cy-- > 0;) {
      SKYDIA_TRACE_SPAN("scan.row");
      // Rightmost column has no candidates either.
      current[cols - 1] = kEmptySetId;
      diagram.set_cell(cols - 1, cy, kEmptySetId);
      for (uint32_t cx = cols - 1; cx-- > 0;) {
        const std::vector<PointId>& corner = grid.PointsAtCorner(cx, cy);
        SetId result;
        if (!corner.empty()) {
          // A corner point dominates every other candidate of this cell.
          scratch = corner;  // already sorted ascending by construction order?
          std::sort(scratch.begin(), scratch.end());
          result = pool.InternCopy(scratch);
        } else {
          ScanningMergeIdentity(pool.Get(current[cx + 1]), pool.Get(above[cx]),
                                pool.Get(above[cx + 1]), &scratch);
          result = pool.InternCopy(scratch);
        }
        current[cx] = result;
        diagram.set_cell(cx, cy, result);
      }
      std::swap(above, current);
    }
  }
  {
    PhaseScope phase("freeze");
    diagram.pool().Freeze();
  }
  return diagram;
}

}  // namespace skydia::internal
