#include "src/geometry/dataset.h"

#include <algorithm>
#include <unordered_set>

namespace skydia {

StatusOr<Dataset> Dataset::Create(std::vector<Point2D> points,
                                  int64_t domain_size,
                                  std::vector<std::string> labels) {
  if (domain_size <= 0 || domain_size > kMaxDomainSize) {
    return Status::InvalidArgument("domain_size " +
                                   std::to_string(domain_size) +
                                   " outside [1, 2^60]");
  }
  if (!labels.empty() && labels.size() != points.size()) {
    return Status::InvalidArgument("label count does not match point count");
  }
  for (const Point2D& p : points) {
    if (p.x < 0 || p.x >= domain_size || p.y < 0 || p.y >= domain_size) {
      return Status::InvalidArgument("point " + ToString(p) +
                                     " outside domain [0, " +
                                     std::to_string(domain_size) + ")");
    }
  }
  return Dataset(std::move(points), domain_size, std::move(labels));
}

std::string Dataset::label(PointId id) const {
  if (id < labels_.size()) return labels_[id];
  // Built via insert rather than `"p" + ...`: the operator+ form trips GCC
  // 12's -Wrestrict false positive (PR 105651) at -O2 under -Werror.
  std::string label = std::to_string(id);
  label.insert(0, 1, 'p');
  return label;
}

bool Dataset::HasDistinctCoordinates() const {
  std::unordered_set<int64_t> xs;
  std::unordered_set<int64_t> ys;
  xs.reserve(points_.size());
  ys.reserve(points_.size());
  for (const Point2D& p : points_) {
    if (!xs.insert(p.x).second) return false;
    if (!ys.insert(p.y).second) return false;
  }
  return true;
}

StatusOr<DatasetNd> DatasetNd::Create(std::vector<int64_t> coords, int dims,
                                      int64_t domain_size) {
  if (dims <= 0) {
    return Status::InvalidArgument("dims must be positive");
  }
  if (domain_size <= 0) {
    return Status::InvalidArgument("domain_size must be positive");
  }
  if (coords.size() % static_cast<size_t>(dims) != 0) {
    return Status::InvalidArgument("coords size is not a multiple of dims");
  }
  for (int64_t c : coords) {
    if (c < 0 || c >= domain_size) {
      return Status::InvalidArgument("coordinate outside domain");
    }
  }
  return DatasetNd(std::move(coords), dims, domain_size);
}

DatasetNd DatasetNd::FromDataset2d(const Dataset& dataset) {
  std::vector<int64_t> coords;
  coords.reserve(dataset.size() * 2);
  for (const Point2D& p : dataset.points()) {
    coords.push_back(p.x);
    coords.push_back(p.y);
  }
  return DatasetNd(std::move(coords), 2, dataset.domain_size());
}

}  // namespace skydia
