// Dataset: an immutable collection of 2-D points (the diagram "seeds") plus
// the attribute domain they live on, and DatasetNd, its d-dimensional
// counterpart used by the high-dimensional diagram extensions.
#ifndef SKYDIA_SRC_GEOMETRY_DATASET_H_
#define SKYDIA_SRC_GEOMETRY_DATASET_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/geometry/point.h"

namespace skydia {

/// An immutable 2-D dataset. Coordinates are validated to lie in
/// [0, domain_size) at construction. Duplicate points and shared coordinate
/// values are allowed (the diagram algorithms are tie-aware; see DESIGN.md),
/// except where an algorithm documents a distinct-coordinates requirement.
class Dataset {
 public:
  /// The largest accepted domain_size. Query paths scale coordinates by up
  /// to 4 (dynamic bisectors) after clamping them to [-1, domain_size], so
  /// every such product must fit in an int64.
  static constexpr int64_t kMaxDomainSize = int64_t{1} << 60;

  /// Validates coordinates against `domain_size` and builds the dataset.
  /// Optional `labels` (one per point) are carried for display; pass {} for
  /// none. Returns InvalidArgument on a domain_size outside
  /// [1, kMaxDomainSize], out-of-domain coordinates or a label count
  /// mismatch.
  static StatusOr<Dataset> Create(std::vector<Point2D> points,
                                  int64_t domain_size,
                                  std::vector<std::string> labels = {});

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  int64_t domain_size() const { return domain_size_; }

  const Point2D& point(PointId id) const { return points_[id]; }
  const std::vector<Point2D>& points() const { return points_; }

  /// Returns the label for `id`, or "p<id>" when no labels were supplied.
  std::string label(PointId id) const;
  bool has_labels() const { return !labels_.empty(); }

  /// True when no two points share an x coordinate and no two share a y
  /// coordinate (the paper's general-position figures). Required by the
  /// sweeping algorithm's vertex-walk construction.
  bool HasDistinctCoordinates() const;

 private:
  Dataset(std::vector<Point2D> points, int64_t domain_size,
          std::vector<std::string> labels)
      : points_(std::move(points)),
        labels_(std::move(labels)),
        domain_size_(domain_size) {}

  std::vector<Point2D> points_;
  std::vector<std::string> labels_;
  int64_t domain_size_;
};

/// `q` with each coordinate clamped to [-1, domain_size]. For points in
/// [0, domain_size) no skyline answer changes, under any of the three
/// semantics: beyond every point on one side, every point stays in the same
/// quadrant and every distance to that side shifts by the same amount. The
/// query paths clamp before they scale a coordinate (by 2 or 4), which then
/// cannot overflow for domain_size <= Dataset::kMaxDomainSize.
inline Point2D ClampQuery(const Point2D& q, int64_t domain_size) {
  return Point2D{std::clamp<int64_t>(q.x, -1, domain_size),
                 std::clamp<int64_t>(q.y, -1, domain_size)};
}

/// An immutable d-dimensional dataset with row-major flat coordinate storage.
class DatasetNd {
 public:
  /// `coords` holds n*dims values, point i at [i*dims, (i+1)*dims).
  static StatusOr<DatasetNd> Create(std::vector<int64_t> coords, int dims,
                                    int64_t domain_size);

  /// Lifts a 2-D dataset into the n-dimensional representation.
  static DatasetNd FromDataset2d(const Dataset& dataset);

  size_t size() const { return dims_ == 0 ? 0 : coords_.size() / dims_; }
  int dims() const { return dims_; }
  int64_t domain_size() const { return domain_size_; }

  int64_t coord(PointId id, int dim) const { return coords_[id * dims_ + dim]; }
  const int64_t* row(PointId id) const { return coords_.data() + id * dims_; }

 private:
  DatasetNd(std::vector<int64_t> coords, int dims, int64_t domain_size)
      : coords_(std::move(coords)), dims_(dims), domain_size_(domain_size) {}

  std::vector<int64_t> coords_;
  int dims_;
  int64_t domain_size_;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_GEOMETRY_DATASET_H_
