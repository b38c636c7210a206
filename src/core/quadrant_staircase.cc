#include "src/core/quadrant_staircase.h"

#include <algorithm>
#include <span>
#include <vector>

#include "src/core/build_report.h"

namespace skydia::internal {

namespace {

constexpr uint32_t kNoGroup = ~uint32_t{0};
constexpr SetId kNoNode = ~SetId{0};

/// The points on one corner, exact duplicates together. A group heads the
/// cells of its column from its own row down to the next group below; the
/// memo holds the last tail seen under it and that (head, tail) node.
struct Group {
  std::span<const PointId> members;  // ascending ids
  uint32_t yrank;
  SetId last_tail = kNoNode;
  SetId last_node = kNoNode;
};

/// One distinct skyline: its head group followed by the set `tail`. `rank`
/// is the head's yrank + 1, so the empty node's 0 stops every walk.
struct Node {
  uint32_t rank;
  SetId tail;
  uint32_t group;
};

}  // namespace

CellDiagram BuildQuadrantStaircase(const Dataset& dataset) {
  CellDiagram diagram = [&] {
    PhaseScope phase("grid");
    return CellDiagram(dataset);
  }();
  const CellGrid& grid = diagram.grid();
  const uint32_t cols = grid.num_columns();
  const uint32_t rows = grid.num_rows();
  const std::span<SetId> cells = diagram.cell_table();

  // Node id == SetId; node 0 is the empty set.
  std::vector<Node> nodes{Node{0, kEmptySetId, kNoGroup}};
  std::vector<Group> groups;
  // head[cx]: the lowest group of column cx at or above the current row.
  std::vector<uint32_t> head(cols, kNoGroup);

  {
    PhaseScope phase("scan");
    // The top row and the rightmost column have no candidates; the table
    // starts all-empty, so neither is written.
    for (uint32_t cy = rows - 1; cy-- > 0;) {
      SKYDIA_TRACE_SPAN("scan.row");
      for (const PointId p : grid.PointsAtRow(cy)) {
        const uint32_t cx = grid.xrank(p);
        if (head[cx] != kNoGroup && groups[head[cx]].yrank == cy) continue;
        head[cx] = static_cast<uint32_t>(groups.size());
        groups.push_back(Group{grid.PointsAtCorner(cx, cy), cy});
      }
      SetId* row = cells.data() + grid.CellIndex(0, cy);
      SetId next = kEmptySetId;  // Sky(cx + 1, cy)
      for (uint32_t cx = cols - 1; cx-- > 0;) {
        if (head[cx] != kNoGroup) {
          Group& group = groups[head[cx]];
          // Drop the members the head dominates: yrank >= its own.
          SetId tail = next;
          while (nodes[tail].rank > group.yrank) tail = nodes[tail].tail;
          if (tail != group.last_tail) {
            group.last_tail = tail;
            group.last_node = static_cast<SetId>(nodes.size());
            nodes.push_back(Node{group.yrank + 1, tail, head[cx]});
          }
          next = group.last_node;
        }
        row[cx] = next;
      }
    }
  }
  {
    PhaseScope phase("fill");
    std::vector<uint32_t> lengths(nodes.size(), 0);
    std::vector<uint64_t> offsets(nodes.size(), 0);
    uint64_t total = 0;
    for (SetId id = 1; id < nodes.size(); ++id) {
      const Node& node = nodes[id];
      lengths[id] = static_cast<uint32_t>(groups[node.group].members.size()) +
                    lengths[node.tail];
      offsets[id] = total;
      total += lengths[id];
    }
    // A tail's id is smaller than its node's, so its slice is written by
    // the time a set merges its head group into it.
    std::vector<PointId> arena(total);
    for (SetId id = 1; id < nodes.size(); ++id) {
      const Node& node = nodes[id];
      const PointId* tail = arena.data() + offsets[node.tail];
      const PointId* const tail_end = tail + lengths[node.tail];
      PointId* out = arena.data() + offsets[id];
      for (const PointId member : groups[node.group].members) {
        const PointId* split = std::lower_bound(tail, tail_end, member);
        out = std::copy(tail, split, out);
        *out++ = member;
        tail = split;
      }
      std::copy(tail, tail_end, out);
    }
    diagram.pool().AdoptArena(std::move(arena), lengths);
  }
  return diagram;
}

}  // namespace skydia::internal
