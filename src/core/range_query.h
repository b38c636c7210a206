// Range skyline queries over a built diagram: given an axis-aligned
// rectangle of possible query positions (the location-uncertainty scenario
// of the paper's related work, Lin et al. / Cheema et al.), report what the
// skyline can be anywhere in the range. The diagram makes these trivial —
// enumerate the covered cells and combine their interned results.
#ifndef SKYDIA_SRC_CORE_RANGE_QUERY_H_
#define SKYDIA_SRC_CORE_RANGE_QUERY_H_

#include <vector>

#include "src/common/status.h"
#include "src/core/point_location.h"
#include "src/geometry/point.h"

namespace skydia {

/// An axis-aligned closed rectangle of query positions.
struct QueryRange {
  int64_t x_lo = 0;
  int64_t x_hi = 0;
  int64_t y_lo = 0;
  int64_t y_hi = 0;
};

/// Union, intersection and distinct-result count of one range in a single
/// cell sweep — the shape the serving layer returns for {"cmd":"range"}.
struct RangeSkylineSummary {
  /// In the skyline of some position in the range, sorted ascending.
  std::vector<PointId> union_ids;
  /// In the skyline of every position in the range (the safe results).
  std::vector<PointId> intersection_ids;
  /// Distinct skyline results across the range; 1 = the range is one safe
  /// zone.
  uint64_t distinct_results = 0;
};

/// Summarizes one range over any diagram kind through its
/// PointLocationIndex (this is what QueryEngine::AnswerRange and the line
/// protocol use). Positions carry the index's cell convention: exact
/// everywhere for quadrant and global diagrams, interior-exact for dynamic
/// ones (a range edge exactly on a grid or bisector line resolves to the
/// line's lower/left subcell). InvalidArgument when the range is inverted.
StatusOr<RangeSkylineSummary> RangeSkylineSummarize(
    const PointLocationIndex& index, const QueryRange& range);

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_RANGE_QUERY_H_
