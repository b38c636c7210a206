#include "src/core/subcell_grid.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace skydia {

namespace {

std::vector<int64_t> DistinctValues(const Dataset& dataset, bool use_x) {
  std::vector<int64_t> values;
  values.reserve(dataset.size());
  for (const Point2D& p : dataset.points()) {
    values.push_back(use_x ? p.x : p.y);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace

SubcellAxis::SubcellAxis(const std::vector<int64_t>& values) {
  // All pairwise sums a + b (a <= b) in doubled coordinates: a == b gives the
  // point grid line 2a, a != b the bisector (a + b) / 2 doubled.
  std::unordered_set<int64_t> sums;
  sums.reserve(values.size() * values.size() / 2 + values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = i; j < values.size(); ++j) {
      sums.insert(values[i] + values[j]);
    }
  }
  lines_.assign(sums.begin(), sums.end());
  std::sort(lines_.begin(), lines_.end());
}

int64_t SubcellAxis::Representative4(uint32_t slab) const {
  if (lines_.empty()) return 0;
  if (slab == 0) return 2 * lines_.front() - 1;
  if (slab >= lines_.size()) return 2 * lines_.back() + 1;
  return lines_[slab - 1] + lines_[slab];
}

uint32_t SubcellAxis::SlabOfDoubled(int64_t v2) const {
  // Half-open convention matching CellGrid::ColumnOf: a query exactly on a
  // line is assigned to the slab on the line's left. Exactness is only
  // guaranteed for interior positions (see subcell_diagram.h contract).
  return static_cast<uint32_t>(
      std::lower_bound(lines_.begin(), lines_.end(), v2) - lines_.begin());
}

bool SubcellAxis::IsOnLine(int64_t v2) const {
  return std::binary_search(lines_.begin(), lines_.end(), v2);
}

SubcellGrid::SubcellGrid(const Dataset& dataset)
    : x_(DistinctValues(dataset, /*use_x=*/true)),
      y_(DistinctValues(dataset, /*use_x=*/false)),
      contrib_x_(BuildContributors(dataset, x_, /*use_x=*/true)),
      contrib_y_(BuildContributors(dataset, y_, /*use_x=*/false)) {}

std::vector<std::vector<PointId>> SubcellGrid::BuildContributors(
    const Dataset& dataset, const SubcellAxis& axis, bool use_x) {
  // Bucket point ids by coordinate value.
  std::unordered_map<int64_t, std::vector<PointId>> by_value;
  for (PointId id = 0; id < dataset.size(); ++id) {
    const Point2D& p = dataset.point(id);
    by_value[use_x ? p.x : p.y].push_back(id);
  }

  std::vector<std::vector<PointId>> contributors(axis.num_lines());
  for (uint32_t i = 0; i < axis.num_lines(); ++i) {
    const int64_t line = axis.line(i);
    std::vector<PointId>& out = contributors[i];
    // p contributes iff line - p.v is some point's coordinate value, i.e. the
    // line is a bisector (or grid line) p is party to.
    for (const auto& [value, ids] : by_value) {
      const int64_t partner = line - value;
      if (by_value.contains(partner)) {
        out.insert(out.end(), ids.begin(), ids.end());
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return contributors;
}

}  // namespace skydia
