#include "src/core/quadrant_dsg.h"

#include <set>
#include <vector>

#include "src/core/build_report.h"
#include "src/skyline/dsg.h"

namespace skydia::internal {

namespace {

// The paper's tempDSG walk: which points are still candidates, how many
// direct parents each has left, and the current skyline.
struct SweepState {
  std::vector<uint8_t> alive;
  std::vector<uint32_t> parents_left;
  std::set<PointId> skyline;
};

// The state before any removal: everything alive, parentless points on the
// skyline.
SweepState InitialSweepState(const DirectedSkylineGraph& dsg, size_t n) {
  SweepState state;
  state.alive.assign(n, 1);
  state.parents_left.resize(n);
  for (PointId id = 0; id < n; ++id) {
    state.parents_left[id] = dsg.parent_count(id);
    if (state.parents_left[id] == 0) state.skyline.insert(id);
  }
  return state;
}

// Removes `batch` from the state: phase 1 retires the points themselves,
// phase 2 promotes surviving children whose last direct parent vanished.
// Only points that were actually alive participate in phase 2 — batch lists
// may contain points removed by an earlier (orthogonal) sweep, and their
// children were already decremented then. `newly_removed` is scratch reused
// across calls.
void RemoveBatch(const DirectedSkylineGraph& dsg,
                 const std::vector<PointId>& batch, SweepState* state,
                 std::vector<PointId>* newly_removed) {
  newly_removed->clear();
  for (PointId id : batch) {
    if (!state->alive[id]) continue;
    state->alive[id] = 0;
    state->skyline.erase(id);
    newly_removed->push_back(id);
  }
  for (PointId id : *newly_removed) {
    for (PointId child : dsg.children(id)) {
      if (!state->alive[child]) continue;
      if (--state->parents_left[child] == 0) {
        state->skyline.insert(child);
      }
    }
  }
}

void RecordCell(const SweepState& state, uint32_t cx, uint32_t cy,
                CellDiagram* diagram, std::vector<PointId>* scratch) {
  scratch->assign(state.skyline.begin(), state.skyline.end());
  diagram->set_cell(cx, cy, diagram->pool().InternCopy(*scratch));
}

}  // namespace

CellDiagram BuildQuadrantDsg(const Dataset& dataset) {
  CellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return CellDiagram(dataset);
  }();
  const CellGrid& grid = diagram.grid();
  const DirectedSkylineGraph dsg = [&] {
    PhaseScope phase("dsg");
    return DirectedSkylineGraph(dataset);
  }();

  {
    PhaseScope phase("sweep");
    // Row-start state: everything with yrank >= current row alive.
    SweepState row_state = InitialSweepState(dsg, dataset.size());

    std::vector<PointId> scratch;
    std::vector<PointId> removed_scratch;
    for (uint32_t cy = 0; cy < grid.num_rows(); ++cy) {
      SKYDIA_TRACE_SPAN("sweep.row");
      // Sweep this row on a working copy (the paper's tempDSG).
      SweepState work = row_state;
      RecordCell(work, 0, cy, &diagram, &scratch);
      for (uint32_t cx = 1; cx < grid.num_columns(); ++cx) {
        RemoveBatch(dsg, grid.PointsAtColumn(cx - 1), &work, &removed_scratch);
        RecordCell(work, cx, cy, &diagram, &scratch);
      }
      // Advance the row-start state upwards.
      if (cy + 1 < grid.num_rows()) {
        RemoveBatch(dsg, grid.PointsAtRow(cy), &row_state, &removed_scratch);
      }
    }
  }
  {
    PhaseScope phase("freeze");
    diagram.pool().Freeze();
  }
  return diagram;
}

}  // namespace skydia::internal
