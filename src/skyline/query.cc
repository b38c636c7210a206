#include "src/skyline/query.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "src/common/logging.h"
#include "src/skyline/algorithms.h"
#include "src/skyline/dominance.h"

namespace skydia {

std::vector<PointId> QuadrantSkyline(const Dataset& dataset, const Point2D& q,
                                     int quadrant) {
  SKYDIA_CHECK(quadrant >= 0 && quadrant < 4);
  // Clamped so the distances below cannot overflow; the answer is the same.
  const Point2D c = ClampQuery(q, dataset.domain_size());
  std::vector<PointId> ids;
  std::vector<Point2D> mapped;
  for (PointId id = 0; id < dataset.size(); ++id) {
    const Point2D& p = dataset.point(id);
    if (QuadrantOf(p, c) != quadrant) continue;
    ids.push_back(id);
    mapped.push_back(Point2D{std::llabs(p.x - c.x), std::llabs(p.y - c.y)});
  }
  return MinStaircase(std::move(mapped), std::move(ids));
}

std::vector<PointId> GlobalSkyline(const Dataset& dataset, const Point2D& q) {
  std::vector<PointId> result;
  for (int k = 0; k < 4; ++k) {
    std::vector<PointId> part = QuadrantSkyline(dataset, q, k);
    result.insert(result.end(), part.begin(), part.end());
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<PointId> QuadrantSkylineAt4(const Dataset& dataset, int64_t qx4,
                                        int64_t qy4, int quadrant) {
  SKYDIA_CHECK(quadrant >= 0 && quadrant < 4);
  std::vector<PointId> ids;
  std::vector<Point2D> mapped;
  for (PointId id = 0; id < dataset.size(); ++id) {
    const Point2D& p = dataset.point(id);
    const bool right = 4 * p.x >= qx4;
    const bool up = 4 * p.y >= qy4;
    const int k = (right && up) ? 0 : (!right && up) ? 1 : (!right) ? 2 : 3;
    if (k != quadrant) continue;
    ids.push_back(id);
    mapped.push_back(
        Point2D{std::llabs(4 * p.x - qx4), std::llabs(4 * p.y - qy4)});
  }
  return MinStaircase(std::move(mapped), std::move(ids));
}

std::vector<PointId> GlobalSkylineAt4(const Dataset& dataset, int64_t qx4,
                                      int64_t qy4) {
  std::vector<PointId> result;
  for (int k = 0; k < 4; ++k) {
    std::vector<PointId> part = QuadrantSkylineAt4(dataset, qx4, qy4, k);
    result.insert(result.end(), part.begin(), part.end());
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<PointId> DynamicSkyline(const Dataset& dataset, const Point2D& q) {
  // Clamped so that 4q cannot overflow; the answer is the same.
  const Point2D c = ClampQuery(q, dataset.domain_size());
  return DynamicSkylineAt4(dataset, 4 * c.x, 4 * c.y);
}

std::vector<PointId> DynamicSkylineAt4(const Dataset& dataset, int64_t qx4,
                                       int64_t qy4) {
  std::vector<PointId> ids(dataset.size());
  for (PointId id = 0; id < dataset.size(); ++id) ids[id] = id;
  return DynamicSkylineOfSubsetAt4(dataset, ids, qx4, qy4);
}

std::vector<PointId> DynamicSkylineOfSubsetAt4(
    const Dataset& dataset, const std::vector<PointId>& candidates,
    int64_t qx4, int64_t qy4) {
  std::vector<MappedCandidate> scratch;
  std::vector<PointId> out;
  DynamicSkylineOfSubsetAt4(dataset, candidates, qx4, qy4, &scratch, &out);
  return out;
}

void DynamicSkylineOfSubsetAt4(const Dataset& dataset,
                               std::span<const PointId> candidates,
                               int64_t qx4, int64_t qy4,
                               std::vector<MappedCandidate>* scratch,
                               std::vector<PointId>* out) {
  scratch->clear();
  scratch->reserve(candidates.size());
  for (PointId id : candidates) {
    const Point2D& p = dataset.point(id);
    scratch->push_back(MappedCandidate{std::llabs(4 * p.x - qx4),
                                       std::llabs(4 * p.y - qy4), id});
  }
  std::sort(scratch->begin(), scratch->end(),
            [](const MappedCandidate& a, const MappedCandidate& b) {
              if (a.mx != b.mx) return a.mx < b.mx;
              return a.my < b.my;
            });
  out->clear();
  // Staircase over (mx, my) with tie groups: within one mx value the minimum
  // my comes first; every copy of the group minimum survives when it beats
  // all previous groups.
  int64_t best = std::numeric_limits<int64_t>::max();
  size_t i = 0;
  const size_t k = scratch->size();
  while (i < k) {
    const int64_t gx = (*scratch)[i].mx;
    const int64_t group_min = (*scratch)[i].my;
    if (group_min < best) {
      while (i < k && (*scratch)[i].mx == gx && (*scratch)[i].my == group_min) {
        out->push_back((*scratch)[i].id);
        ++i;
      }
      best = group_min;
    }
    while (i < k && (*scratch)[i].mx == gx) ++i;
  }
  std::sort(out->begin(), out->end());
}

}  // namespace skydia
