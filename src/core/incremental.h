// Incremental maintenance of the quadrant skyline diagram under point
// insertion and deletion.
//
// A mutation of point p can only change cells where p is a *candidate*
// (cx <= xrank(p), cy <= yrank(p)) — but inside that rectangle most cells
// are still untouched: wherever some dominator of p (a point coordinate-wise
// <= p with one dimension strictly smaller) is also a candidate, p never
// enters the cell's skyline, so inserting or deleting it changes nothing.
// The changed region is therefore the staircase
//
//   { (cx, cy) : cx <= xrank(p), cy <= yrank(p), cy > M(cx) }
//
// where M(cx) is the maximum yrank over dominators of p with xrank >= cx
// (a suffix maximum computed in O(n + xrank(p))). Only those cells are
// refilled with the Theorem 1 scanning identity, seeded from the copied
// neighbours; everything else copies its previous result verbatim. An
// insertion dominated from nearby recomputes O(1) cells regardless of n.
//
// Insert appends, so existing PointIds keep their meaning. Delete removes
// one point and renumbers the ids above it (new_id = old_id - 1 for every
// old_id > deleted); labels keep following their points. The serving layer
// surfaces this contract to clients.
//
// The dataset and diagram live behind shared_ptr<const ...> so a publisher
// (src/serve/mutation_pipeline.h) can hand read-only snapshots to concurrent
// readers at zero copy cost; mutations swap in fresh objects and never touch
// a previously shared one.
//
// Adopt contract: the same sharing runs the other way. Adopt() starts from
// a diagram that already exists — one being served, typically loaded from a
// blob — and shares its objects instead of building or copying anything.
// Each mutation copies the pool's arena once into its successor and leaves
// the objects it replaces to their other holders untouched. Create() is
// a staircase build (src/core/quadrant_staircase.h) followed by Adopt(), so
// every instance starts this way.
#ifndef SKYDIA_SRC_CORE_INCREMENTAL_H_
#define SKYDIA_SRC_CORE_INCREMENTAL_H_

#include <memory>
#include <optional>
#include <string>

#include "src/common/status.h"
#include "src/core/skyline_cell.h"
#include "src/geometry/dataset.h"

namespace skydia {

namespace internal {

/// The seed check Create and Adopt share: InvalidArgument for an empty
/// dataset.
Status CheckSeedDataset(const Dataset& dataset);

/// Extended copy of `dataset` with `p` appended as the new last point.
/// Rejects points outside the domain and forwards validation failures from
/// Dataset::Create (InvalidArgument, never an abort). `label` names the new
/// point when the dataset carries labels (default "p<id>"); a label on an
/// unlabelled dataset materializes the default labels first.
StatusOr<Dataset> DatasetWithPoint(const Dataset& dataset, const Point2D& p,
                                   std::optional<std::string> label);

/// Copy of `dataset` without point `id`; ids above shift down by one and
/// labels follow their points. NotFound for an id outside the dataset,
/// FailedPrecondition when only one point remains.
StatusOr<Dataset> DatasetWithoutPoint(const Dataset& dataset, PointId id);

}  // namespace internal

/// A quadrant skyline diagram that supports inserting and deleting points.
class IncrementalQuadrantDiagram {
 public:
  /// Builds the initial diagram (staircase construction) and adopts it.
  static StatusOr<IncrementalQuadrantDiagram> Create(Dataset dataset);

  /// Adopts `diagram`, the quadrant diagram of `dataset`, as the initial
  /// state without rebuilding or copying it (see the adopt contract above).
  /// Any construction of it qualifies: every BuildAlgorithm, sequential or
  /// parallel, and a blob loaded back from disk. Both pointers must be
  /// non-null. Same checks as Create (internal::CheckSeedDataset), plus
  /// InvalidArgument for a table DiagramSemantics calls global: a point
  /// outside every quadrant still shifts global answers everywhere, and no
  /// incremental maintenance exists for them.
  static StatusOr<IncrementalQuadrantDiagram> Adopt(
      std::shared_ptr<const Dataset> dataset,
      std::shared_ptr<const CellDiagram> diagram);

  IncrementalQuadrantDiagram(IncrementalQuadrantDiagram&&) = default;
  IncrementalQuadrantDiagram& operator=(IncrementalQuadrantDiagram&&) =
      default;

  /// Inserts `p` and updates the diagram. Returns the new point's id (always
  /// the previous size()), or InvalidArgument when `p` is outside the
  /// domain. On error the diagram is unchanged. `label` names the new point
  /// when the dataset carries labels (default "p<id>"); passing a label to
  /// an unlabelled dataset materializes the default labels for the existing
  /// points first.
  StatusOr<PointId> Insert(const Point2D& p,
                           std::optional<std::string> label = std::nullopt);

  /// Deletes point `id` and updates the diagram. Ids above `id` shift down
  /// by one (labels follow their points). Returns NotFound for an id outside
  /// the dataset and FailedPrecondition when the diagram holds only one
  /// point (a diagram of zero points does not exist). On error the diagram
  /// is unchanged.
  Status Delete(PointId id);

  const Dataset& dataset() const { return *dataset_; }
  const CellDiagram& diagram() const { return *diagram_; }

  /// Read-only snapshots sharable with concurrent readers. The pointees are
  /// immutable: every mutation replaces the pointers with fresh objects.
  std::shared_ptr<const Dataset> shared_dataset() const { return dataset_; }
  std::shared_ptr<const CellDiagram> shared_diagram() const {
    return diagram_;
  }

  /// Number of cells whose result was recomputed by the last Insert /
  /// Delete (the changed staircase, not the whole candidate rectangle);
  /// 0 before any mutation. For tests, metrics and benchmarks.
  uint64_t last_insert_recomputed_cells() const {
    return last_insert_recomputed_cells_;
  }
  uint64_t last_delete_recomputed_cells() const {
    return last_delete_recomputed_cells_;
  }

 private:
  IncrementalQuadrantDiagram(std::shared_ptr<const Dataset> dataset,
                             std::shared_ptr<const CellDiagram> diagram)
      : dataset_(std::move(dataset)),
        diagram_(std::move(diagram)),
        pool_compaction_watermark_(diagram_->pool().size()) {}

  std::shared_ptr<const Dataset> dataset_;
  std::shared_ptr<const CellDiagram> diagram_;
  uint64_t last_insert_recomputed_cells_ = 0;
  uint64_t last_delete_recomputed_cells_ = 0;
  /// Pool size after the last compacting mutation (or Adopt). Mutations
  /// adopt the previous pool wholesale — carrying some no-longer-referenced
  /// sets forward — until the pool doubles past this watermark, then re-intern
  /// only referenced sets (see the copy-phase comments in incremental.cc).
  size_t pool_compaction_watermark_ = 0;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_INCREMENTAL_H_
