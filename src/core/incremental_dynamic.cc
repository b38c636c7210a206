#include "src/core/incremental_dynamic.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/core/dynamic_scanning.h"
#include "src/skyline/dominance.h"
#include "src/skyline/query.h"

namespace skydia {

namespace {

/// Slab of `axis` containing the 4x-scaled coordinate `rep4` under the
/// half-open convention (slab j is (line[j-1], line[j]] in doubled
/// coordinates): the number of lines with 2*line < rep4. A rep4 exactly on
/// a line maps to the slab owning that line; callers that need interior
/// exactness check IsOnAxisLine first.
uint32_t SlabOfRep4(const SubcellAxis& axis, int64_t rep4) {
  uint32_t lo = 0;
  uint32_t hi = axis.num_lines();
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (2 * axis.line(mid) < rep4) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// True when `rep4` falls exactly on a line of `axis` (the old diagram's
/// result is interior-exact only, so such positions must be recomputed).
bool IsOnAxisLine(const SubcellAxis& axis, uint32_t slab, int64_t rep4) {
  return slab < axis.num_lines() && 2 * axis.line(slab) == rep4;
}

}  // namespace

StatusOr<IncrementalDynamicDiagram> IncrementalDynamicDiagram::Create(
    Dataset dataset, const IncrementalOptions& options) {
  // Checked before the build, not only by Adopt: the build is the cost.
  if (Status seed = internal::CheckSeedDataset(dataset, options); !seed.ok()) {
    return seed;
  }
  auto diagram = std::make_shared<const SubcellDiagram>(
      internal::BuildDynamicScanning(dataset));
  return Adopt(std::make_shared<const Dataset>(std::move(dataset)),
               std::move(diagram), options);
}

StatusOr<IncrementalDynamicDiagram> IncrementalDynamicDiagram::Adopt(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const SubcellDiagram> diagram,
    const IncrementalOptions& options) {
  SKYDIA_CHECK(dataset != nullptr && diagram != nullptr);
  if (Status seed = internal::CheckSeedDataset(*dataset, options);
      !seed.ok()) {
    return seed;
  }
  return IncrementalDynamicDiagram(std::move(dataset), std::move(diagram),
                                   options);
}

StatusOr<PointId> IncrementalDynamicDiagram::Insert(
    const Point2D& p, std::optional<std::string> label) {
  const auto new_id = static_cast<PointId>(dataset_->size());
  auto new_dataset = internal::DatasetWithPoint(
      *dataset_, p, std::move(label), options_.require_distinct_coordinates);
  if (!new_dataset.ok()) return new_dataset.status();

  auto next = std::make_shared<SubcellDiagram>(*new_dataset);
  const SubcellGrid& grid = next->grid();
  const SubcellGrid& old_grid = diagram_->grid();

  // Inserting only adds lines, so every new subcell nests inside one old
  // subcell and its representative is strictly interior to it — the old
  // result there is exact for the old point set.
  // Unchanged subcells keep their previous result. The fast path adopts the
  // old pool wholesale (the mutation's one arena copy; old SetIds stay
  // valid), so an unchanged subcell copies a single integer; once the pool
  // doubles past the last compaction watermark, the slow path re-interns
  // only referenced sets (memoized per old SetId), garbage-collecting the
  // pool.
  const SkylineSetPool& old_pool = diagram_->pool();
  const bool compact = old_pool.size() > 2 * pool_compaction_watermark_;
  constexpr SetId kUnmapped = ~SetId{0};
  std::vector<SetId> remap;
  if (compact) {
    remap.assign(old_pool.size(), kUnmapped);
  } else {
    next->pool().AdoptFrom(old_pool);
  }
  uint64_t recomputed = 0;
  std::vector<PointId> scratch;
  for (uint32_t sy = 0; sy < grid.num_rows(); ++sy) {
    const int64_t repy4 = grid.y_axis().Representative4(sy);
    const uint32_t old_sy = SlabOfRep4(old_grid.y_axis(), repy4);
    for (uint32_t sx = 0; sx < grid.num_columns(); ++sx) {
      const int64_t repx4 = grid.x_axis().Representative4(sx);
      const uint32_t old_sx = SlabOfRep4(old_grid.x_axis(), repx4);
      const SetId old_set_id = diagram_->subcell_set(old_sx, old_sy);
      const std::span<const PointId> old_set =
          diagram_->pool().Get(old_set_id);
      // By transitivity it suffices to test p against the old skyline
      // members: any dominator of p is itself dominated by one of them.
      bool dominated = false;
      for (const PointId s : old_set) {
        if (DynamicDominates4(new_dataset->point(s), p, repx4, repy4)) {
          dominated = true;
          break;
        }
      }
      if (dominated) {
        if (compact) {
          SetId& mapped = remap[old_set_id];
          if (mapped == kUnmapped) {
            mapped = next->pool().InternCopy(old_set);
          }
          next->set_subcell(sx, sy, mapped);
        } else {
          next->set_subcell(sx, sy, old_set_id);
        }
        continue;
      }
      scratch.clear();
      scratch.reserve(old_set.size() + 1);
      for (const PointId s : old_set) {
        if (!DynamicDominates4(p, new_dataset->point(s), repx4, repy4)) {
          scratch.push_back(s);
        }
      }
      scratch.push_back(new_id);  // largest id: the set stays sorted
      next->set_subcell(sx, sy, next->pool().InternCopy(scratch));
      ++recomputed;
    }
  }

  // A compacted pool sheds its growth slack; an adopted one was sized by
  // AdoptFrom (see IncrementalQuadrantDiagram::Insert).
  if (compact) {
    next->pool().Freeze();
    pool_compaction_watermark_ = next->pool().size();
  }
  last_insert_recomputed_subcells_ = recomputed;
  dataset_ =
      std::make_shared<const Dataset>(std::move(new_dataset).value());
  diagram_ = std::move(next);
  return new_id;
}

Status IncrementalDynamicDiagram::Delete(PointId id) {
  auto new_dataset = internal::DatasetWithoutPoint(
      *dataset_, id, options_.require_distinct_coordinates);
  if (!new_dataset.ok()) return new_dataset.status();

  auto next = std::make_shared<SubcellDiagram>(*new_dataset);
  const SubcellGrid& grid = next->grid();
  const SubcellGrid& old_grid = diagram_->grid();

  // Unchanged subcells keep their previous result: the fast path adopts the
  // old pool with the deletion's id shift applied during the arena copy
  // (old SetIds stay valid); the compacting slow path re-interns referenced
  // sets with the shift memoized per old SetId. See Insert.
  const SkylineSetPool& old_pool = diagram_->pool();
  const bool compact = old_pool.size() > 2 * pool_compaction_watermark_;
  constexpr SetId kUnmapped = ~SetId{0};
  std::vector<SetId> remap;
  if (compact) {
    remap.assign(old_pool.size(), kUnmapped);
  } else {
    next->pool().AdoptFrom(old_pool, id);
  }
  uint64_t recomputed = 0;
  std::vector<PointId> scratch;
  for (uint32_t sy = 0; sy < grid.num_rows(); ++sy) {
    const int64_t repy4 = grid.y_axis().Representative4(sy);
    const uint32_t old_sy = SlabOfRep4(old_grid.y_axis(), repy4);
    const bool on_line_y = IsOnAxisLine(old_grid.y_axis(), old_sy, repy4);
    for (uint32_t sx = 0; sx < grid.num_columns(); ++sx) {
      const int64_t repx4 = grid.x_axis().Representative4(sx);
      const uint32_t old_sx = SlabOfRep4(old_grid.x_axis(), repx4);
      const SetId old_set_id = diagram_->subcell_set(old_sx, old_sy);
      const std::span<const PointId> old_set =
          diagram_->pool().Get(old_set_id);
      // Deleting removes lines, so a new representative can land exactly on
      // a removed old line — outside the old diagram's interior-exactness
      // contract. Recompute there, and wherever the old result loses the
      // deleted point (its removal can promote previously dominated points).
      const bool on_line =
          on_line_y || IsOnAxisLine(old_grid.x_axis(), old_sx, repx4);
      const bool contained =
          std::binary_search(old_set.begin(), old_set.end(), id);
      if (on_line || contained) {
        next->set_subcell(
            sx, sy,
            next->pool().Intern(DynamicSkylineAt4(*new_dataset, repx4,
                                                  repy4)));
        ++recomputed;
        continue;
      }
      // Unchanged: ids above the deleted one shift down (a pure shift keeps
      // the set sorted); the adopted pool already holds the shifted copy
      // under the same SetId.
      if (compact) {
        SetId& mapped = remap[old_set_id];
        if (mapped == kUnmapped) {
          scratch.clear();
          scratch.reserve(old_set.size());
          for (const PointId member : old_set) {
            scratch.push_back(member > id ? member - 1 : member);
          }
          mapped = next->pool().InternCopy(scratch);
        }
        next->set_subcell(sx, sy, mapped);
      } else {
        next->set_subcell(sx, sy, old_set_id);
      }
    }
  }

  if (compact) {  // see Insert
    next->pool().Freeze();
    pool_compaction_watermark_ = next->pool().size();
  }
  last_delete_recomputed_subcells_ = recomputed;
  dataset_ =
      std::make_shared<const Dataset>(std::move(new_dataset).value());
  diagram_ = std::move(next);
  return Status::OK();
}

}  // namespace skydia
