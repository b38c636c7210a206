#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/core/serialize.h"
#include "src/datagen/distributions.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::BuildDiagram;
using skydia::testing::RandomDataset;
using skydia::testing::RandomDistinctDataset;

// Interior representative of cell (cx, cy) in 4x coordinates.
std::pair<int64_t, int64_t> CellRep4(const CellGrid& grid, uint32_t cx,
                                     uint32_t cy) {
  auto rep = [](int64_t lo_exists, int64_t lo, int64_t hi_exists, int64_t hi) {
    if (!lo_exists) return 4 * hi - 1;
    if (!hi_exists) return 4 * lo + 1;
    return 2 * (lo + hi);
  };
  const int64_t x = rep(cx > 0, cx > 0 ? grid.x_value(cx - 1) : 0,
                        cx < grid.num_distinct_x(),
                        cx < grid.num_distinct_x() ? grid.x_value(cx) : 0);
  const int64_t y = rep(cy > 0, cy > 0 ? grid.y_value(cy - 1) : 0,
                        cy < grid.num_distinct_y(),
                        cy < grid.num_distinct_y() ? grid.y_value(cy) : 0);
  return {x, y};
}

class QuadrantBuildersTest : public ::testing::TestWithParam<BuildAlgorithm> {
 protected:
  SkylineDiagram Build(const Dataset& ds) const {
    return BuildDiagram(ds, SkylineQueryType::kQuadrant, GetParam());
  }
};

TEST_P(QuadrantBuildersTest, EveryCellMatchesInteriorBruteForce) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Dataset ds = RandomDataset(24, 20, seed);
    const SkylineDiagram built = Build(ds);
    const CellDiagram& diagram = *built.cell_diagram();
    const CellGrid& grid = diagram.grid();
    for (uint32_t cy = 0; cy < grid.num_rows(); ++cy) {
      for (uint32_t cx = 0; cx < grid.num_columns(); ++cx) {
        const auto [qx4, qy4] = CellRep4(grid, cx, cy);
        const auto expected = QuadrantSkylineAt4(ds, qx4, qy4, 0);
        const auto actual = diagram.CellSkyline(cx, cy);
        EXPECT_EQ(std::vector<PointId>(actual.begin(), actual.end()), expected)
            << "seed " << seed << " cell (" << cx << ", " << cy << ")";
      }
    }
  }
}

TEST_P(QuadrantBuildersTest, ExactForEveryIntegerQueryPosition) {
  const Dataset ds = RandomDataset(16, 12, 77);
  const SkylineDiagram built = Build(ds);
  for (int64_t qx = 0; qx < ds.domain_size(); ++qx) {
    for (int64_t qy = 0; qy < ds.domain_size(); ++qy) {
      const Point2D q{qx, qy};
      const auto actual = built.Query(q);
      EXPECT_EQ(std::vector<PointId>(actual.begin(), actual.end()),
                FirstQuadrantSkyline(ds, q))
          << "query " << q;
    }
  }
}

TEST_P(QuadrantBuildersTest, HandlesDuplicatePoints) {
  auto ds = Dataset::Create({{3, 3}, {3, 3}, {1, 5}, {5, 1}}, 8);
  ASSERT_TRUE(ds.ok());
  const SkylineDiagram built = Build(*ds);
  // Query at origin sees all four points; the duplicates are incomparable.
  const auto origin = built.Query({0, 0});
  EXPECT_EQ(std::vector<PointId>(origin.begin(), origin.end()),
            (std::vector<PointId>{0, 1, 2, 3}));
  // Query at the duplicate location keeps both copies.
  const auto at_dup = built.Query({3, 3});
  EXPECT_EQ(std::vector<PointId>(at_dup.begin(), at_dup.end()),
            (std::vector<PointId>{0, 1}));
}

TEST_P(QuadrantBuildersTest, SinglePointDiagram) {
  auto ds = Dataset::Create({{4, 4}}, 10);
  ASSERT_TRUE(ds.ok());
  const SkylineDiagram built = Build(*ds);
  const CellDiagram& diagram = *built.cell_diagram();
  EXPECT_EQ(diagram.grid().num_cells(), 4u);
  EXPECT_EQ(diagram.CellSkyline(0, 0).size(), 1u);
  EXPECT_TRUE(diagram.CellSkyline(1, 0).empty());
  EXPECT_TRUE(diagram.CellSkyline(0, 1).empty());
  EXPECT_TRUE(diagram.CellSkyline(1, 1).empty());
}

INSTANTIATE_TEST_SUITE_P(AllBuilders, QuadrantBuildersTest,
                         ::testing::Values(BuildAlgorithm::kAuto,
                                           BuildAlgorithm::kBaseline,
                                           BuildAlgorithm::kDsg,
                                           BuildAlgorithm::kScanning),
                         [](const auto& info) {
                           return std::string(BuildAlgorithmName(info.param));
                         });

struct EqualityCase {
  size_t n;
  int64_t domain;
  Distribution distribution;
};

class CrossAlgorithmEqualityTest
    : public ::testing::TestWithParam<EqualityCase> {};

TEST_P(CrossAlgorithmEqualityTest, AllThreeBuildersAgree) {
  const EqualityCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset ds =
        testing::GeneratedDataset(c.n, c.domain, c.distribution, seed);
    const SkylineDiagram baseline = BuildDiagram(
        ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kBaseline);
    const SkylineDiagram dsg =
        BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kDsg);
    const SkylineDiagram scanning = BuildDiagram(
        ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
    EXPECT_TRUE(baseline.cell_diagram()->SameResults(*dsg.cell_diagram()))
        << "seed " << seed;
    EXPECT_TRUE(baseline.cell_diagram()->SameResults(*scanning.cell_diagram()))
        << "seed " << seed;
  }
}

// kAuto runs the staircase scan, which must reproduce Algorithm 3 id for
// id: the saved bytes are equal, not only the cell results.
TEST_P(CrossAlgorithmEqualityTest, AutoBuildSavesTheScanningBytes) {
  const EqualityCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset ds =
        testing::GeneratedDataset(c.n, c.domain, c.distribution, seed);
    const SkylineDiagram automatic =
        BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kAuto);
    const SkylineDiagram scanning = BuildDiagram(
        ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
    EXPECT_TRUE(SerializeCellDiagram(automatic.dataset(),
                                     *automatic.cell_diagram()) ==
                SerializeCellDiagram(scanning.dataset(),
                                     *scanning.cell_diagram()))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CrossAlgorithmEqualityTest,
    ::testing::Values(
        EqualityCase{60, 1024, Distribution::kIndependent},
        EqualityCase{60, 1024, Distribution::kCorrelated},
        EqualityCase{60, 1024, Distribution::kAnticorrelated},
        EqualityCase{60, 16, Distribution::kIndependent},  // heavy ties
        EqualityCase{120, 8, Distribution::kClustered},    // extreme ties
        EqualityCase{1, 4, Distribution::kIndependent}),
    [](const auto& info) {
      return std::string(DistributionName(info.param.distribution)) + "_n" +
             std::to_string(info.param.n) + "_s" +
             std::to_string(info.param.domain);
    });

TEST(QuadrantDiagramTest, PaperCellExampleMerging) {
  // The diagram's cell map is the input to merging: neighbouring cells with
  // equal results must intern to the same SetId.
  const Dataset ds = RandomDataset(20, 16, 3);
  const SkylineDiagram built =
      BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const CellGrid& grid = diagram.grid();
  for (uint32_t cy = 0; cy + 1 < grid.num_rows(); ++cy) {
    for (uint32_t cx = 0; cx + 1 < grid.num_columns(); ++cx) {
      const auto a = diagram.CellSkyline(cx, cy);
      const auto b = diagram.CellSkyline(cx + 1, cy);
      if (a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin())) {
        EXPECT_EQ(diagram.cell_set(cx, cy), diagram.cell_set(cx + 1, cy));
      }
    }
  }
}

TEST(QuadrantDiagramTest, StatsAreConsistent) {
  const Dataset ds = RandomDataset(40, 32, 9);
  const SkylineDiagram built =
      BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const DiagramStats stats = built.ComputeStats();
  EXPECT_EQ(stats.num_cells, built.cell_diagram()->grid().num_cells());
  EXPECT_GE(stats.num_distinct_sets, 2u);  // empty + at least one real set
  EXPECT_LE(stats.num_distinct_sets, stats.num_cells + 1);
  EXPECT_GT(stats.approx_bytes, 0u);
}

}  // namespace
}  // namespace skydia
