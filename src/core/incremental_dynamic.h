// Incremental maintenance of the dynamic skyline diagram under point
// insertion and deletion.
//
// Mutating one point p leaves most of the subcell arrangement reusable:
//
//  * Insert: every old grid/bisector line survives (the doubled line set
//    { a + b } only gains members), so each new subcell nests inside exactly
//    one old subcell and its representative is strictly interior to it. At
//    that representative the old result set decides everything by
//    transitivity: if some old skyline member dynamically dominates p the
//    subcell keeps its result verbatim; otherwise the new result is the old
//    members p fails to dominate, plus p.
//  * Delete: the line set only shrinks. When the deleted point is absent
//    from the old result at the new representative, removing it cannot
//    promote anything (a point it dominated is also dominated by a
//    surviving skyline member), so the subcell copies its old result with
//    ids renumbered. Only subcells whose old result contained the point —
//    or whose new representative lands exactly on a removed line, where the
//    old diagram's interior-exactness contract does not apply — are
//    recomputed from scratch.
//
// Ids renumber on Delete exactly like IncrementalQuadrantDiagram
// (new_id = old_id - 1 for every old_id > deleted; labels follow), and the
// adopt contract is the same too (see src/core/incremental.h): Adopt()
// shares an existing diagram's objects as the initial state, and Create()
// is a scanning build followed by Adopt().
#ifndef SKYDIA_SRC_CORE_INCREMENTAL_DYNAMIC_H_
#define SKYDIA_SRC_CORE_INCREMENTAL_DYNAMIC_H_

#include <memory>
#include <optional>
#include <string>

#include "src/common/status.h"
#include "src/core/incremental.h"
#include "src/core/subcell_diagram.h"
#include "src/geometry/dataset.h"

namespace skydia {

/// A dynamic (subcell) skyline diagram that supports inserting and deleting
/// points.
class IncrementalDynamicDiagram {
 public:
  /// Builds the initial diagram (scanning construction) and adopts it.
  static StatusOr<IncrementalDynamicDiagram> Create(Dataset dataset);

  /// Adopts `diagram`, the subcell diagram of `dataset`, without rebuilding
  /// or copying it; same contract as IncrementalQuadrantDiagram::Adopt (any
  /// construction of the diagram, non-null pointers, Create's checks).
  static StatusOr<IncrementalDynamicDiagram> Adopt(
      std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const SubcellDiagram> diagram);

  IncrementalDynamicDiagram(IncrementalDynamicDiagram&&) = default;
  IncrementalDynamicDiagram& operator=(IncrementalDynamicDiagram&&) = default;

  /// Inserts `p`; same contract as IncrementalQuadrantDiagram::Insert.
  StatusOr<PointId> Insert(const Point2D& p,
                           std::optional<std::string> label = std::nullopt);

  /// Deletes point `id`; same contract as IncrementalQuadrantDiagram::Delete
  /// (NotFound for unknown ids, FailedPrecondition for the last point, ids
  /// above the deleted one shift down).
  Status Delete(PointId id);

  const Dataset& dataset() const { return *dataset_; }
  const SubcellDiagram& diagram() const { return *diagram_; }

  /// Read-only snapshots sharable with concurrent readers (see
  /// IncrementalQuadrantDiagram::shared_dataset).
  std::shared_ptr<const Dataset> shared_dataset() const { return dataset_; }
  std::shared_ptr<const SubcellDiagram> shared_diagram() const {
    return diagram_;
  }

  /// Number of subcells whose result was recomputed (not copied) by the
  /// last Insert / Delete; 0 before any mutation.
  uint64_t last_insert_recomputed_subcells() const {
    return last_insert_recomputed_subcells_;
  }
  uint64_t last_delete_recomputed_subcells() const {
    return last_delete_recomputed_subcells_;
  }

 private:
  IncrementalDynamicDiagram(std::shared_ptr<const Dataset> dataset,
                            std::shared_ptr<const SubcellDiagram> diagram)
      : dataset_(std::move(dataset)),
        diagram_(std::move(diagram)),
        pool_compaction_watermark_(diagram_->pool().size()) {}

  std::shared_ptr<const Dataset> dataset_;
  std::shared_ptr<const SubcellDiagram> diagram_;
  uint64_t last_insert_recomputed_subcells_ = 0;
  uint64_t last_delete_recomputed_subcells_ = 0;
  /// Pool size after the last compacting mutation (or Adopt); see
  /// IncrementalQuadrantDiagram::pool_compaction_watermark_.
  size_t pool_compaction_watermark_ = 0;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_INCREMENTAL_DYNAMIC_H_
