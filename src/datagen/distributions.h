// Synthetic workload generators: the standard skyline benchmark
// distributions of Börzsönyi et al. (independent, correlated,
// anti-correlated) plus a clustered variant. All generators are
// deterministic in the seed.
#ifndef SKYDIA_SRC_DATAGEN_DISTRIBUTIONS_H_
#define SKYDIA_SRC_DATAGEN_DISTRIBUTIONS_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/geometry/dataset.h"

namespace skydia {

enum class Distribution {
  kIndependent,     // uniform per dimension
  kCorrelated,      // concentrated around the main diagonal
  kAnticorrelated,  // concentrated around the anti-diagonal
  kClustered,       // Gaussian blobs around random centers
};

const char* DistributionName(Distribution distribution);

struct DataGenOptions {
  size_t n = 0;
  int64_t domain_size = 1024;
  Distribution distribution = Distribution::kIndependent;
  uint64_t seed = 1;
  /// Force distinct coordinate values per dimension (required by the
  /// sweeping vertex-walk). Needs n <= domain_size; collisions are resolved
  /// by probing to the nearest free value.
  bool distinct_coordinates = false;
  /// Relative spread of the correlated/anti-correlated noise and of cluster
  /// blobs, as a fraction of the domain.
  double noise_fraction = 0.1;
  /// Number of blobs for kClustered.
  int clusters = 8;
};

/// Generates a 2-D dataset. Returns InvalidArgument, before allocating,
/// when n exceeds what a PointId can address (2^32 - 1), or when
/// distinct_coordinates is requested with n > domain_size.
StatusOr<Dataset> GenerateDataset(const DataGenOptions& options);

/// Generates a d-dimensional dataset with the same distribution semantics.
StatusOr<DatasetNd> GenerateDatasetNd(const DataGenOptions& options, int dims);

}  // namespace skydia

#endif  // SKYDIA_SRC_DATAGEN_DISTRIBUTIONS_H_
