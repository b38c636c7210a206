// Shared helpers for the skydia test suites: brute-force oracles and random
// dataset construction independent of the library's generators.
#ifndef SKYDIA_TESTS_TESTING_UTIL_H_
#define SKYDIA_TESTS_TESTING_UTIL_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/diagram.h"
#include "src/core/incremental.h"
#include "src/datagen/distributions.h"
#include "src/geometry/dataset.h"
#include "src/skyline/dominance.h"

namespace skydia::testing {

/// Builds a diagram through the SkylineDiagram::Build facade from a
/// borrowed dataset (the facade takes ownership, so this copies — fine at
/// test sizes). CHECK-fails on error: tests that exercise Build's error
/// paths call the facade directly.
inline SkylineDiagram BuildDiagram(const Dataset& dataset,
                                   SkylineQueryType type,
                                   BuildAlgorithm algorithm = BuildAlgorithm::kAuto,
                                   int parallelism = 1) {
  std::vector<std::string> labels;
  if (dataset.has_labels()) {
    labels.reserve(dataset.size());
    for (PointId id = 0; id < dataset.size(); ++id) {
      labels.push_back(dataset.label(id));
    }
  }
  auto copy = Dataset::Create(dataset.points(), dataset.domain_size(),
                              std::move(labels));
  SKYDIA_CHECK(copy.ok());
  SkylineBuildOptions options;
  options.algorithm = algorithm;
  options.parallelism = parallelism;
  auto built = SkylineDiagram::Build(std::move(copy).value(), type, options);
  SKYDIA_CHECK(built.ok());
  return std::move(built).value();
}

/// BuildDiagram, unwrapped to the cell diagram (quadrant/global).
inline SkylineDiagram BuildCellDiagram(
    const Dataset& dataset, SkylineQueryType type,
    BuildAlgorithm algorithm = BuildAlgorithm::kAuto, int parallelism = 1) {
  SkylineDiagram built = BuildDiagram(dataset, type, algorithm, parallelism);
  SKYDIA_CHECK(built.cell_diagram() != nullptr);
  return built;
}

/// The quadrant diagram of `dataset` after inserting `p` and deleting it
/// again: how a served snapshot looks after writes. Both mutations carry the
/// pool over with SkylineSetPool::AdoptFrom, which leaves the adopted sets
/// unindexed, so a set a mutation recomputes can be stored a second time.
inline IncrementalQuadrantDiagram InsertedAndDeleted(const Dataset& dataset,
                                                     const Point2D& p) {
  auto diagram = IncrementalQuadrantDiagram::Create(dataset);
  SKYDIA_CHECK(diagram.ok());
  const auto id = diagram->Insert(p);
  SKYDIA_CHECK(id.ok());
  SKYDIA_CHECK(diagram->Delete(*id).ok());
  return std::move(diagram).value();
}

/// One seeded dataset through the library's workload generator. The single
/// shared construction for every suite that needs "n points of distribution
/// D at seed K" (previously re-implemented ad hoc per test file).
inline Dataset GeneratedDataset(size_t n, int64_t domain,
                                Distribution distribution, uint64_t seed) {
  DataGenOptions options;
  options.n = n;
  options.domain_size = domain;
  options.distribution = distribution;
  options.seed = seed;
  auto ds = GenerateDataset(options);
  return std::move(ds).value();
}

/// O(n^2) oracle: min-preference skyline by pairwise dominance.
inline std::vector<PointId> BruteSkyline2d(const Dataset& dataset) {
  std::vector<PointId> result;
  for (PointId a = 0; a < dataset.size(); ++a) {
    bool dominated = false;
    for (PointId b = 0; b < dataset.size(); ++b) {
      if (b != a && Dominates(dataset.point(b), dataset.point(a))) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.push_back(a);
  }
  return result;
}

/// O(n^2 d) oracle for d dimensions.
inline std::vector<PointId> BruteSkylineNd(const DatasetNd& dataset) {
  std::vector<PointId> result;
  for (PointId a = 0; a < dataset.size(); ++a) {
    bool dominated = false;
    for (PointId b = 0; b < dataset.size(); ++b) {
      if (b != a &&
          DominatesNd(dataset.row(b), dataset.row(a), dataset.dims())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.push_back(a);
  }
  return result;
}

/// Random dataset with optionally heavy coordinate ties (small domain).
inline Dataset RandomDataset(size_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2D> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(
        Point2D{rng.NextInt(0, domain - 1), rng.NextInt(0, domain - 1)});
  }
  auto ds = Dataset::Create(std::move(points), domain);
  return std::move(ds).value();
}

/// Random dataset with distinct coordinates per dimension (n <= domain).
inline Dataset RandomDistinctDataset(size_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> xs(domain);
  std::vector<int64_t> ys(domain);
  for (int64_t v = 0; v < domain; ++v) {
    xs[v] = v;
    ys[v] = v;
  }
  // Partial Fisher-Yates for the first n entries of each axis.
  for (size_t i = 0; i < n; ++i) {
    std::swap(xs[i], xs[i + rng.NextBounded(domain - i)]);
    std::swap(ys[i], ys[i + rng.NextBounded(domain - i)]);
  }
  std::vector<Point2D> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) points.push_back(Point2D{xs[i], ys[i]});
  auto ds = Dataset::Create(std::move(points), domain);
  return std::move(ds).value();
}

/// Like RandomDistinctDataset but with all coordinates >= 1, so every
/// skyline cell has positive area inside [0, domain]^2 (coordinate-0 points
/// pin degenerate cell strips to the domain edge that geometric partitions
/// cannot represent).
inline Dataset RandomDistinctPositiveDataset(size_t n, int64_t domain,
                                             uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> xs(domain - 1);
  std::vector<int64_t> ys(domain - 1);
  for (int64_t v = 1; v < domain; ++v) {
    xs[v - 1] = v;
    ys[v - 1] = v;
  }
  for (size_t i = 0; i < n; ++i) {
    std::swap(xs[i], xs[i + rng.NextBounded(domain - 1 - i)]);
    std::swap(ys[i], ys[i + rng.NextBounded(domain - 1 - i)]);
  }
  std::vector<Point2D> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) points.push_back(Point2D{xs[i], ys[i]});
  auto ds = Dataset::Create(std::move(points), domain);
  return std::move(ds).value();
}

inline std::vector<PointId> AsSorted(std::vector<PointId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace skydia::testing

#endif  // SKYDIA_TESTS_TESTING_UTIL_H_
