#include "src/geometry/dataset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace skydia {
namespace {

TEST(DatasetTest, CreateValidatesDomain) {
  EXPECT_FALSE(Dataset::Create({{0, 0}}, 0).ok());
  EXPECT_FALSE(Dataset::Create({{-1, 0}}, 10).ok());
  EXPECT_FALSE(Dataset::Create({{0, 10}}, 10).ok());
  EXPECT_TRUE(Dataset::Create({{0, 9}}, 10).ok());
  // Query paths quadruple clamped coordinates, so the domain is bounded.
  EXPECT_TRUE(Dataset::Create({{0, 0}}, Dataset::kMaxDomainSize).ok());
  EXPECT_FALSE(Dataset::Create({{0, 0}}, Dataset::kMaxDomainSize + 1).ok());
  EXPECT_FALSE(
      Dataset::Create({{0, 0}}, std::numeric_limits<int64_t>::max()).ok());
}

TEST(DatasetTest, CreateValidatesLabelCount) {
  EXPECT_FALSE(Dataset::Create({{0, 0}, {1, 1}}, 10, {"only-one"}).ok());
  EXPECT_TRUE(Dataset::Create({{0, 0}, {1, 1}}, 10, {"a", "b"}).ok());
}

TEST(DatasetTest, DefaultLabels) {
  auto ds = Dataset::Create({{0, 0}, {1, 1}}, 10);
  ASSERT_TRUE(ds.ok());
  EXPECT_FALSE(ds->has_labels());
  EXPECT_EQ(ds->label(0), "p0");
  EXPECT_EQ(ds->label(1), "p1");
}

TEST(DatasetTest, ExplicitLabels) {
  auto ds = Dataset::Create({{0, 0}}, 10, {"hotel"});
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(ds->has_labels());
  EXPECT_EQ(ds->label(0), "hotel");
}

TEST(DatasetTest, DistinctCoordinatesDetection) {
  auto distinct = Dataset::Create({{0, 0}, {1, 2}, {2, 1}}, 10);
  ASSERT_TRUE(distinct.ok());
  EXPECT_TRUE(distinct->HasDistinctCoordinates());

  auto shared_x = Dataset::Create({{1, 0}, {1, 2}}, 10);
  ASSERT_TRUE(shared_x.ok());
  EXPECT_FALSE(shared_x->HasDistinctCoordinates());

  auto shared_y = Dataset::Create({{0, 3}, {2, 3}}, 10);
  ASSERT_TRUE(shared_y.ok());
  EXPECT_FALSE(shared_y->HasDistinctCoordinates());
}

TEST(DatasetTest, AccessorsAndSize) {
  auto ds = Dataset::Create({{3, 4}, {5, 6}}, 10);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_FALSE(ds->empty());
  EXPECT_EQ(ds->point(1), (Point2D{5, 6}));
  EXPECT_EQ(ds->domain_size(), 10);
}

TEST(DatasetNdTest, CreateValidatesShape) {
  EXPECT_FALSE(DatasetNd::Create({1, 2, 3}, 2, 10).ok());  // not multiple
  EXPECT_FALSE(DatasetNd::Create({1, 2}, 0, 10).ok());
  EXPECT_FALSE(DatasetNd::Create({1, 12}, 2, 10).ok());  // out of domain
  EXPECT_TRUE(DatasetNd::Create({1, 2, 3, 4}, 2, 10).ok());
}

TEST(DatasetNdTest, RowAccess) {
  auto nd = DatasetNd::Create({1, 2, 3, 4, 5, 6}, 3, 10);
  ASSERT_TRUE(nd.ok());
  EXPECT_EQ(nd->size(), 2u);
  EXPECT_EQ(nd->dims(), 3);
  EXPECT_EQ(nd->coord(1, 2), 6);
  EXPECT_EQ(nd->row(1)[0], 4);
}

TEST(DatasetNdTest, FromDataset2d) {
  auto ds = Dataset::Create({{3, 4}, {5, 6}}, 10);
  ASSERT_TRUE(ds.ok());
  const DatasetNd nd = DatasetNd::FromDataset2d(*ds);
  EXPECT_EQ(nd.dims(), 2);
  EXPECT_EQ(nd.size(), 2u);
  EXPECT_EQ(nd.coord(0, 0), 3);
  EXPECT_EQ(nd.coord(1, 1), 6);
  EXPECT_EQ(nd.domain_size(), 10);
}

}  // namespace
}  // namespace skydia
