#include "src/datagen/distributions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"

namespace skydia {

namespace {

int64_t Clamp(int64_t v, int64_t domain) {
  return std::max<int64_t>(0, std::min<int64_t>(domain - 1, v));
}

// Draws one raw (pre-clamp) d-dimensional sample of the distribution.
void DrawRaw(const DataGenOptions& options, int dims, Rng* rng,
             const std::vector<std::vector<int64_t>>& cluster_centers,
             std::vector<int64_t>* out) {
  const int64_t domain = options.domain_size;
  const double spread = options.noise_fraction * static_cast<double>(domain);
  out->resize(dims);
  switch (options.distribution) {
    case Distribution::kIndependent: {
      for (int d = 0; d < dims; ++d) {
        (*out)[d] = rng->NextInt(0, domain - 1);
      }
      break;
    }
    case Distribution::kCorrelated: {
      const int64_t base = rng->NextInt(0, domain - 1);
      for (int d = 0; d < dims; ++d) {
        const double noise = rng->NextGaussian() * spread;
        (*out)[d] = Clamp(base + std::llround(noise), domain);
      }
      break;
    }
    case Distribution::kAnticorrelated: {
      // Points near the hyperplane sum(x) = const: draw a base position on
      // the anti-diagonal, then jitter. In 2-D this is x + y ~ domain.
      const int64_t base = rng->NextInt(0, domain - 1);
      for (int d = 0; d < dims; ++d) {
        const int64_t anchor = (d % 2 == 0) ? base : (domain - 1 - base);
        const double noise = rng->NextGaussian() * spread * 0.25;
        (*out)[d] = Clamp(anchor + std::llround(noise), domain);
      }
      break;
    }
    case Distribution::kClustered: {
      const size_t c = rng->NextBounded(cluster_centers.size());
      for (int d = 0; d < dims; ++d) {
        const double noise = rng->NextGaussian() * spread * 0.5;
        (*out)[d] = Clamp(cluster_centers[c][d] + std::llround(noise), domain);
      }
      break;
    }
  }
}

}  // namespace

const char* DistributionName(Distribution distribution) {
  switch (distribution) {
    case Distribution::kIndependent:
      return "independent";
    case Distribution::kCorrelated:
      return "correlated";
    case Distribution::kAnticorrelated:
      return "anticorrelated";
    case Distribution::kClustered:
      return "clustered";
  }
  return "?";
}

StatusOr<DatasetNd> GenerateDatasetNd(const DataGenOptions& options,
                                      int dims) {
  if (dims <= 0) {
    return Status::InvalidArgument("dims must be positive");
  }
  if (options.domain_size <= 0) {
    return Status::InvalidArgument("domain_size must be positive");
  }
  // Checked before anything is reserved: the point ids are 32-bit.
  if (options.n > std::numeric_limits<PointId>::max()) {
    return Status::InvalidArgument(
        "n = " + std::to_string(options.n) +
        " is more points than a PointId can address (at most 4294967295)");
  }
  if (options.distinct_coordinates &&
      static_cast<int64_t>(options.n) > options.domain_size) {
    return Status::InvalidArgument(
        "distinct coordinates need n <= domain_size");
  }
  Rng rng(options.seed);

  std::vector<std::vector<int64_t>> centers;
  if (options.distribution == Distribution::kClustered) {
    const int k = std::max(1, options.clusters);
    centers.resize(k);
    for (auto& c : centers) {
      c.resize(dims);
      for (int d = 0; d < dims; ++d) c[d] = rng.NextInt(0, options.domain_size - 1);
    }
  }

  // Per-dimension occupancy for the distinct-coordinates mode.
  std::vector<std::unordered_set<int64_t>> used(dims);

  std::vector<int64_t> coords;
  coords.reserve(options.n * dims);
  std::vector<int64_t> sample;
  for (size_t i = 0; i < options.n; ++i) {
    DrawRaw(options, dims, &rng, centers, &sample);
    if (options.distinct_coordinates) {
      for (int d = 0; d < dims; ++d) {
        // Probe outward from the drawn value to the nearest free slot, which
        // preserves the distribution shape while guaranteeing distinctness.
        int64_t v = sample[d];
        for (int64_t delta = 0;; ++delta) {
          const int64_t up = v + delta;
          if (up < options.domain_size && !used[d].contains(up)) {
            v = up;
            break;
          }
          const int64_t down = v - delta;
          if (down >= 0 && !used[d].contains(down)) {
            v = down;
            break;
          }
        }
        used[d].insert(v);
        sample[d] = v;
      }
    }
    coords.insert(coords.end(), sample.begin(), sample.end());
  }
  return DatasetNd::Create(std::move(coords), dims, options.domain_size);
}

StatusOr<Dataset> GenerateDataset(const DataGenOptions& options) {
  StatusOr<DatasetNd> nd = GenerateDatasetNd(options, 2);
  if (!nd.ok()) return nd.status();
  std::vector<Point2D> points;
  points.reserve(nd->size());
  for (PointId id = 0; id < nd->size(); ++id) {
    points.push_back(Point2D{nd->coord(id, 0), nd->coord(id, 1)});
  }
  return Dataset::Create(std::move(points), options.domain_size);
}

}  // namespace skydia
