#include "src/core/incremental.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/core/diagram.h"
#include "src/core/quadrant_scanning.h"
#include "src/core/quadrant_staircase.h"

namespace skydia {

namespace {

/// Suffix maximum of dominator yranks: M[cx] = max{ yrank(d) : d dominates
/// `p` (coordinate-wise <=, one strictly <), xrank(d) >= cx } over the ranks
/// of `grid`, or -1 when no dominator qualifies. `skip` excludes one id from
/// the dominator scan (the point being mutated itself); pass the dataset's
/// size to scan everything. Cell (cx, cy) keeps its result across the
/// mutation iff cy <= M[cx]: a dominator is then a candidate there, so `p`
/// never enters that cell's skyline. Indices 0..bound inclusive are valid.
std::vector<int64_t> DominatorSuffixMax(const Dataset& dataset,
                                        const CellGrid& grid,
                                        const Point2D& p, PointId skip,
                                        uint32_t bound) {
  std::vector<int64_t> m(static_cast<size_t>(bound) + 2, -1);
  for (PointId id = 0; id < dataset.size(); ++id) {
    if (id == skip) continue;
    const Point2D& d = dataset.point(id);
    if (d.x > p.x || d.y > p.y || (d.x == p.x && d.y == p.y)) continue;
    const uint32_t xr = grid.xrank(id);
    SKYDIA_CHECK_LE(xr, bound);
    m[xr] = std::max(m[xr], static_cast<int64_t>(grid.yrank(id)));
  }
  for (uint32_t cx = bound + 1; cx-- > 0;) {
    m[cx] = std::max(m[cx], m[cx + 1]);
  }
  return m;
}

/// Refills exactly the changed staircase { cx <= rect_x, cy <= rect_y,
/// cy > m[cx] } with the Theorem 1 scan. Every neighbour a changed cell
/// reads is already final: unchanged cells were copied beforehand and
/// changed ones are visited in decreasing (cy, cx) order. Returns the
/// number of recomputed cells.
uint64_t RefillChangedCells(CellDiagram* next, uint32_t rect_x,
                            uint32_t rect_y,
                            const std::vector<int64_t>& m) {
  const CellGrid& grid = next->grid();
  uint64_t recomputed = 0;
  std::vector<PointId> scratch;
  for (uint32_t cy = rect_y + 1; cy-- > 0;) {
    for (uint32_t cx = rect_x + 1; cx-- > 0;) {
      if (static_cast<int64_t>(cy) <= m[cx]) continue;
      const std::vector<PointId>& corner = grid.PointsAtCorner(cx, cy);
      SetId result;
      if (!corner.empty()) {
        scratch = corner;
        std::sort(scratch.begin(), scratch.end());
        result = next->pool().InternCopy(scratch);
      } else {
        internal::ScanningMergeIdentity(next->CellSkyline(cx + 1, cy),
                                        next->CellSkyline(cx, cy + 1),
                                        next->CellSkyline(cx + 1, cy + 1),
                                        &scratch);
        result = next->pool().InternCopy(scratch);
      }
      next->set_cell(cx, cy, result);
      ++recomputed;
    }
  }
  return recomputed;
}

}  // namespace

namespace internal {

Status CheckSeedDataset(const Dataset& dataset) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot build a diagram of zero points");
  }
  return Status::OK();
}

StatusOr<Dataset> DatasetWithPoint(const Dataset& dataset, const Point2D& p,
                                   std::optional<std::string> label) {
  if (p.x < 0 || p.x >= dataset.domain_size() || p.y < 0 ||
      p.y >= dataset.domain_size()) {
    return Status::InvalidArgument("point outside the domain");
  }
  const auto new_id = static_cast<PointId>(dataset.size());
  std::vector<Point2D> points = dataset.points();
  points.push_back(p);
  std::vector<std::string> labels;
  if (dataset.has_labels() || label.has_value()) {
    labels.reserve(points.size());
    for (PointId id = 0; id < new_id; ++id) labels.push_back(dataset.label(id));
    if (label.has_value()) {
      labels.push_back(*std::move(label));
    } else {
      // insert-based to dodge GCC 12's -Wrestrict false positive (PR 105651)
      // on `"p" + std::to_string(...)` at -O2.
      labels.push_back(std::to_string(new_id));
      labels.back().insert(0, 1, 'p');
    }
  }
  return Dataset::Create(std::move(points), dataset.domain_size(),
                         std::move(labels));
}

StatusOr<Dataset> DatasetWithoutPoint(const Dataset& dataset, PointId id) {
  if (id >= dataset.size()) {
    return Status::NotFound("unknown point id " + std::to_string(id));
  }
  if (dataset.size() == 1) {
    return Status::FailedPrecondition(
        "cannot delete the last remaining point");
  }
  std::vector<Point2D> points;
  points.reserve(dataset.size() - 1);
  std::vector<std::string> labels;
  if (dataset.has_labels()) labels.reserve(dataset.size() - 1);
  for (PointId i = 0; i < dataset.size(); ++i) {
    if (i == id) continue;
    points.push_back(dataset.point(i));
    if (dataset.has_labels()) labels.push_back(dataset.label(i));
  }
  return Dataset::Create(std::move(points), dataset.domain_size(),
                         std::move(labels));
}

}  // namespace internal

StatusOr<IncrementalQuadrantDiagram> IncrementalQuadrantDiagram::Create(
    Dataset dataset) {
  // Checked before the build, not only by Adopt: the build is the cost.
  if (Status seed = internal::CheckSeedDataset(dataset); !seed.ok()) {
    return seed;
  }
  auto diagram = std::make_shared<const CellDiagram>(
      internal::BuildQuadrantStaircase(dataset));
  return Adopt(std::make_shared<const Dataset>(std::move(dataset)),
               std::move(diagram));
}

StatusOr<IncrementalQuadrantDiagram> IncrementalQuadrantDiagram::Adopt(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const CellDiagram> diagram) {
  SKYDIA_CHECK(dataset != nullptr && diagram != nullptr);
  if (Status seed = internal::CheckSeedDataset(*dataset); !seed.ok()) {
    return seed;
  }
  if (DiagramSemantics(*diagram) != SkylineQueryType::kQuadrant) {
    return Status::InvalidArgument(
        "mutations are not supported for global semantics: only a quadrant "
        "diagram can be adopted");
  }
  return IncrementalQuadrantDiagram(std::move(dataset), std::move(diagram));
}

StatusOr<PointId> IncrementalQuadrantDiagram::Insert(
    const Point2D& p, std::optional<std::string> label) {
  // Extend the dataset; the new id is the previous size. A rejected
  // extension (a point outside the domain) leaves this diagram untouched.
  const auto new_id = static_cast<PointId>(dataset_->size());
  auto new_dataset = internal::DatasetWithPoint(*dataset_, p, std::move(label));
  if (!new_dataset.ok()) return new_dataset.status();

  const CellGrid& old_grid = diagram_->grid();
  const bool x_existed = old_grid.IsOnVerticalLine(p.x);
  const bool y_existed = old_grid.IsOnHorizontalLine(p.y);

  auto next = std::make_shared<CellDiagram>(*new_dataset);
  const CellGrid& grid = next->grid();
  const uint32_t r = grid.xrank(new_id);
  const uint32_t ry = grid.yrank(new_id);
  const uint32_t cols = grid.num_columns();
  const uint32_t rows = grid.num_rows();
  SKYDIA_CHECK_EQ(cols, old_grid.num_columns() + (x_existed ? 0 : 1));
  SKYDIA_CHECK_EQ(rows, old_grid.num_rows() + (y_existed ? 0 : 1));

  // New column -> old column with identical candidate set (p excluded).
  const auto old_cx = [&](uint32_t cx) {
    return (x_existed || cx <= r) ? cx : cx - 1;
  };
  const auto old_cy = [&](uint32_t cy) {
    return (y_existed || cy <= ry) ? cy : cy - 1;
  };

  // A cell keeps its result wherever a dominator of p is also a candidate.
  const std::vector<int64_t> m =
      DominatorSuffixMax(*new_dataset, grid, p, new_id, r);

  // Phase 1: every unchanged cell — p not a candidate, or dominated there —
  // keeps its previous result. The fast path adopts the old pool wholesale
  // (the mutation's one arena copy; old SetIds stay valid in the new pool),
  // so an unchanged cell copies a single integer instead of re-interning
  // its set — with millions of cells the per-set hashing would otherwise
  // dominate the mutation's wall time. Adoption carries no-longer-referenced
  // sets forward; once the pool doubles past the last compaction watermark
  // the slow path re-interns only referenced sets (memoized per old SetId),
  // garbage-collecting the pool.
  const SkylineSetPool& old_pool = diagram_->pool();
  const bool compact = old_pool.size() > 2 * pool_compaction_watermark_;
  if (!compact) {
    next->pool().AdoptFrom(old_pool);
    for (uint32_t cy = 0; cy < rows; ++cy) {
      for (uint32_t cx = 0; cx < cols; ++cx) {
        const bool changed =
            cx <= r && cy <= ry && static_cast<int64_t>(cy) > m[cx];
        if (changed) continue;
        next->set_cell(cx, cy, diagram_->cell_set(old_cx(cx), old_cy(cy)));
      }
    }
  } else {
    constexpr SetId kUnmapped = ~SetId{0};
    std::vector<SetId> remap(old_pool.size(), kUnmapped);
    for (uint32_t cy = 0; cy < rows; ++cy) {
      for (uint32_t cx = 0; cx < cols; ++cx) {
        const bool changed =
            cx <= r && cy <= ry && static_cast<int64_t>(cy) > m[cx];
        if (changed) continue;
        const SetId old_set = diagram_->cell_set(old_cx(cx), old_cy(cy));
        SetId& mapped = remap[old_set];
        if (mapped == kUnmapped) {
          mapped = next->pool().InternCopy(old_pool.Get(old_set));
        }
        next->set_cell(cx, cy, mapped);
      }
    }
  }

  // Phase 2: refill the changed staircase with the Theorem 1 scan.
  last_insert_recomputed_cells_ = RefillChangedCells(next.get(), r, ry, m);

  // A compacted pool was built set by set and sheds its growth slack; an
  // adopted one was sized by AdoptFrom, and shrinking it would copy the
  // arena a second time.
  if (compact) {
    next->pool().Freeze();
    pool_compaction_watermark_ = next->pool().size();
  }
  dataset_ =
      std::make_shared<const Dataset>(std::move(new_dataset).value());
  diagram_ = std::move(next);
  return new_id;
}

Status IncrementalQuadrantDiagram::Delete(PointId id) {
  // Shrink the dataset; ids above the deleted one shift down by one. On
  // error (NotFound / FailedPrecondition) the diagram is untouched.
  auto new_dataset = internal::DatasetWithoutPoint(*dataset_, id);
  if (!new_dataset.ok()) return new_dataset.status();
  const Point2D p = dataset_->point(id);

  const CellGrid& old_grid = diagram_->grid();
  const uint32_t r_old = old_grid.xrank(id);
  const uint32_t ry_old = old_grid.yrank(id);
  const bool x_removed = old_grid.PointsAtColumn(r_old).size() == 1;
  const bool y_removed = old_grid.PointsAtRow(ry_old).size() == 1;

  auto next = std::make_shared<CellDiagram>(*new_dataset);
  const CellGrid& grid = next->grid();
  const uint32_t cols = grid.num_columns();
  const uint32_t rows = grid.num_rows();
  SKYDIA_CHECK_EQ(cols, old_grid.num_columns() - (x_removed ? 1 : 0));
  SKYDIA_CHECK_EQ(rows, old_grid.num_rows() - (y_removed ? 1 : 0));

  // New column -> old column with identical candidate set (the deleted
  // point excluded: when its grid line disappears, columns at or above its
  // old rank shift up by one in the old grid).
  const auto old_cx = [&](uint32_t cx) {
    return (x_removed && cx >= r_old) ? cx + 1 : cx;
  };
  const auto old_cy = [&](uint32_t cy) {
    return (y_removed && cy >= ry_old) ? cy + 1 : cy;
  };

  // The changed staircase lives below the deleted point's old ranks; when
  // its grid line disappears the rectangle shrinks by one (the merged
  // column's candidate set never contained the point).
  const int64_t rect_x = static_cast<int64_t>(r_old) - (x_removed ? 1 : 0);
  const int64_t rect_y = static_cast<int64_t>(ry_old) - (y_removed ? 1 : 0);

  // Dominators of the deleted point carry the same ranks in both grids
  // within the rectangle (their coordinates are strictly below any removed
  // line), so the suffix maximum is computed directly on the new grid.
  std::vector<int64_t> m;
  if (rect_x >= 0 && rect_y >= 0) {
    m = DominatorSuffixMax(*new_dataset, grid, p, new_dataset->size(),
                           static_cast<uint32_t>(rect_x));
  }

  // Phase 1: copy every unchanged cell, renumbering member ids. The deleted
  // id never appears in an unchanged cell's result (it changed or was never
  // in the skyline there), so the renumbering is a pure shift. The fast
  // path adopts the old pool wholesale with the shift applied during the
  // arena copy, so unchanged cells keep their old SetId verbatim; the
  // compacting slow path re-interns only referenced sets, memoizing the
  // shifted copy per old SetId (see Insert).
  const SkylineSetPool& old_pool = diagram_->pool();
  const bool compact = old_pool.size() > 2 * pool_compaction_watermark_;
  if (!compact) {
    next->pool().AdoptFrom(old_pool, id);
    for (uint32_t cy = 0; cy < rows; ++cy) {
      for (uint32_t cx = 0; cx < cols; ++cx) {
        const bool changed = static_cast<int64_t>(cx) <= rect_x &&
                             static_cast<int64_t>(cy) <= rect_y &&
                             static_cast<int64_t>(cy) > m[cx];
        if (changed) continue;
        next->set_cell(cx, cy, diagram_->cell_set(old_cx(cx), old_cy(cy)));
      }
    }
  } else {
    constexpr SetId kUnmapped = ~SetId{0};
    std::vector<SetId> remap(old_pool.size(), kUnmapped);
    std::vector<PointId> scratch;
    for (uint32_t cy = 0; cy < rows; ++cy) {
      for (uint32_t cx = 0; cx < cols; ++cx) {
        const bool changed = static_cast<int64_t>(cx) <= rect_x &&
                             static_cast<int64_t>(cy) <= rect_y &&
                             static_cast<int64_t>(cy) > m[cx];
        if (changed) continue;
        const SetId old_set_id = diagram_->cell_set(old_cx(cx), old_cy(cy));
        SetId& mapped = remap[old_set_id];
        if (mapped == kUnmapped) {
          const std::span<const PointId> old_set = old_pool.Get(old_set_id);
          scratch.clear();
          scratch.reserve(old_set.size());
          for (const PointId member : old_set) {
            SKYDIA_CHECK_NE(member, id);
            scratch.push_back(member > id ? member - 1 : member);
          }
          mapped = next->pool().InternCopy(scratch);
        }
        next->set_cell(cx, cy, mapped);
      }
    }
  }

  // Phase 2: refill the changed staircase (possibly empty when the deleted
  // point held the minimal unique coordinate of a dimension).
  last_delete_recomputed_cells_ =
      (rect_x >= 0 && rect_y >= 0)
          ? RefillChangedCells(next.get(), static_cast<uint32_t>(rect_x),
                               static_cast<uint32_t>(rect_y), m)
          : 0;

  if (compact) {  // see Insert
    next->pool().Freeze();
    pool_compaction_watermark_ = next->pool().size();
  }
  dataset_ =
      std::make_shared<const Dataset>(std::move(new_dataset).value());
  diagram_ = std::move(next);
  return Status::OK();
}

}  // namespace skydia
