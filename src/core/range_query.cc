#include "src/core/range_query.h"

#include <algorithm>
#include <unordered_set>

namespace skydia {

StatusOr<RangeSkylineSummary> RangeSkylineSummarize(
    const PointLocationIndex& index, const QueryRange& range) {
  if (range.x_lo > range.x_hi || range.y_lo > range.y_hi) {
    return Status::InvalidArgument("inverted query range");
  }
  // Locate the two corners; the half-open convention makes the covered cell
  // rectangle exactly [lo, hi] on both axes (the index scales internally
  // for doubled subcell coordinates).
  const PointLocationIndex::CellRef lo =
      index.Locate(Point2D{range.x_lo, range.y_lo});
  const PointLocationIndex::CellRef hi =
      index.Locate(Point2D{range.x_hi, range.y_hi});

  // One sweep collecting the distinct interned results, then one pass over
  // those (usually few) sets for the union and intersection.
  std::unordered_set<SetId> seen;
  std::vector<SetId> distinct;  // insertion order, for determinism
  for (uint32_t cy = lo.cy; cy <= hi.cy; ++cy) {
    for (uint32_t cx = lo.cx; cx <= hi.cx; ++cx) {
      const SetId id = index.cell_set(cx, cy);
      if (seen.insert(id).second) distinct.push_back(id);
    }
  }
  RangeSkylineSummary summary;
  std::vector<PointId> scratch;
  bool first = true;
  for (const SetId id : distinct) {
    const auto set = index.Get(id);
    summary.union_ids.insert(summary.union_ids.end(), set.begin(), set.end());
    if (first) {
      summary.intersection_ids.assign(set.begin(), set.end());
      first = false;
    } else if (!summary.intersection_ids.empty()) {
      scratch.clear();
      std::set_intersection(summary.intersection_ids.begin(),
                            summary.intersection_ids.end(), set.begin(),
                            set.end(), std::back_inserter(scratch));
      summary.intersection_ids.swap(scratch);
    }
  }
  std::sort(summary.union_ids.begin(), summary.union_ids.end());
  summary.union_ids.erase(
      std::unique(summary.union_ids.begin(), summary.union_ids.end()),
      summary.union_ids.end());
  // Distinct ids can still alias identical contents in a pool a mutation
  // adopted (SkylineSetPool::AdoptFrom); compare contents.
  if (distinct.size() <= 1) {
    summary.distinct_results = distinct.size();
    return summary;
  }
  std::vector<std::vector<PointId>> contents;
  contents.reserve(distinct.size());
  for (const SetId id : distinct) {
    const auto set = index.Get(id);
    contents.emplace_back(set.begin(), set.end());
  }
  std::sort(contents.begin(), contents.end());
  contents.erase(std::unique(contents.begin(), contents.end()),
                 contents.end());
  summary.distinct_results = static_cast<uint64_t>(contents.size());
  return summary;
}

}  // namespace skydia
