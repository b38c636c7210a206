#include "src/datagen/distributions.h"

#include <cmath>
#include <cstddef>
#include <limits>

#include <gtest/gtest.h>

namespace skydia {
namespace {

TEST(DistributionsTest, DeterministicInSeed) {
  DataGenOptions options;
  options.n = 100;
  options.seed = 42;
  auto a = GenerateDataset(options);
  auto b = GenerateDataset(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->points(), b->points());
  options.seed = 43;
  auto c = GenerateDataset(options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->points(), c->points());
}

TEST(DistributionsTest, PointsStayInDomain) {
  for (const Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAnticorrelated, Distribution::kClustered}) {
    DataGenOptions options;
    options.n = 500;
    options.domain_size = 100;
    options.distribution = dist;
    auto ds = GenerateDataset(options);
    ASSERT_TRUE(ds.ok()) << DistributionName(dist);
    for (const Point2D& p : ds->points()) {
      EXPECT_GE(p.x, 0);
      EXPECT_LT(p.x, 100);
      EXPECT_GE(p.y, 0);
      EXPECT_LT(p.y, 100);
    }
  }
}

TEST(DistributionsTest, CorrelatedHasPositiveCorrelation) {
  DataGenOptions options;
  options.n = 2000;
  options.domain_size = 1024;
  options.distribution = Distribution::kCorrelated;
  auto ds = GenerateDataset(options);
  ASSERT_TRUE(ds.ok());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const double n = static_cast<double>(ds->size());
  for (const Point2D& p : ds->points()) {
    sx += p.x;
    sy += p.y;
    sxx += static_cast<double>(p.x) * p.x;
    syy += static_cast<double>(p.y) * p.y;
    sxy += static_cast<double>(p.x) * p.y;
  }
  const double corr = (n * sxy - sx * sy) /
                      std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  EXPECT_GT(corr, 0.8);
}

TEST(DistributionsTest, AnticorrelatedHasNegativeCorrelation) {
  DataGenOptions options;
  options.n = 2000;
  options.domain_size = 1024;
  options.distribution = Distribution::kAnticorrelated;
  auto ds = GenerateDataset(options);
  ASSERT_TRUE(ds.ok());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  const double n = static_cast<double>(ds->size());
  for (const Point2D& p : ds->points()) {
    sx += p.x;
    sy += p.y;
    sxx += static_cast<double>(p.x) * p.x;
    syy += static_cast<double>(p.y) * p.y;
    sxy += static_cast<double>(p.x) * p.y;
  }
  const double corr = (n * sxy - sx * sy) /
                      std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  EXPECT_LT(corr, -0.8);
}

TEST(DistributionsTest, DistinctCoordinatesMode) {
  DataGenOptions options;
  options.n = 200;
  options.domain_size = 256;
  options.distinct_coordinates = true;
  for (const Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAnticorrelated}) {
    options.distribution = dist;
    auto ds = GenerateDataset(options);
    ASSERT_TRUE(ds.ok()) << DistributionName(dist);
    EXPECT_TRUE(ds->HasDistinctCoordinates()) << DistributionName(dist);
  }
}

TEST(DistributionsTest, DistinctCoordinatesRequiresRoom) {
  DataGenOptions options;
  options.n = 100;
  options.domain_size = 50;
  options.distinct_coordinates = true;
  EXPECT_FALSE(GenerateDataset(options).ok());
}

TEST(DistributionsTest, NdGeneration) {
  DataGenOptions options;
  options.n = 50;
  options.domain_size = 64;
  auto nd = GenerateDatasetNd(options, 4);
  ASSERT_TRUE(nd.ok());
  EXPECT_EQ(nd->dims(), 4);
  EXPECT_EQ(nd->size(), 50u);
}

TEST(DistributionsTest, InvalidOptionsRejected) {
  DataGenOptions options;
  options.n = 10;
  options.domain_size = 0;
  EXPECT_FALSE(GenerateDataset(options).ok());
  options.domain_size = 10;
  EXPECT_FALSE(GenerateDatasetNd(options, 0).ok());
}

// A count no PointId can address fails before anything is reserved: n *
// dims would wrap, and the reservation would throw std::length_error.
TEST(DistributionsTest, PointCountsBeyondPointIdAreRejected) {
  DataGenOptions options;
  options.n = std::numeric_limits<size_t>::max();
  const StatusOr<Dataset> dataset = GenerateDataset(options);
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
  const StatusOr<DatasetNd> nd = GenerateDatasetNd(options, 3);
  ASSERT_FALSE(nd.ok());
  EXPECT_EQ(nd.status().code(), StatusCode::kInvalidArgument);
}

TEST(DistributionsTest, DistributionNames) {
  EXPECT_STREQ(DistributionName(Distribution::kIndependent), "independent");
  EXPECT_STREQ(DistributionName(Distribution::kCorrelated), "correlated");
  EXPECT_STREQ(DistributionName(Distribution::kAnticorrelated),
               "anticorrelated");
  EXPECT_STREQ(DistributionName(Distribution::kClustered), "clustered");
}

}  // namespace
}  // namespace skydia
