#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/datagen/real_data.h"
#include "src/datagen/workload.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::BuildDiagram;
using skydia::testing::RandomDataset;

class GlobalDiagramTest : public ::testing::TestWithParam<BuildAlgorithm> {
 protected:
  SkylineDiagram Build(const Dataset& ds) const {
    return BuildDiagram(ds, SkylineQueryType::kGlobal, GetParam());
  }
};

TEST_P(GlobalDiagramTest, InteriorQueriesMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset ds = RandomDataset(30, 24, seed);
    const SkylineDiagram built = Build(ds);
    const CellDiagram& diagram = *built.cell_diagram();
    const CellGrid& grid = diagram.grid();
    const auto queries =
        GenerateInteriorQueries4(ds, 200, seed * 100, /*avoid_bisectors=*/false);
    for (const auto& [qx4, qy4] : queries) {
      // Locate the cell of the interior position: count of grid values
      // strictly below.
      uint32_t cx = 0;
      while (cx < grid.num_distinct_x() && 4 * grid.x_value(cx) < qx4) ++cx;
      uint32_t cy = 0;
      while (cy < grid.num_distinct_y() && 4 * grid.y_value(cy) < qy4) ++cy;
      const auto actual = diagram.CellSkyline(cx, cy);
      EXPECT_EQ(std::vector<PointId>(actual.begin(), actual.end()),
                GlobalSkylineAt4(ds, qx4, qy4))
          << "seed " << seed << " q4 (" << qx4 << ", " << qy4 << ")";
    }
  }
}

TEST_P(GlobalDiagramTest, TieHeavyInteriorQueries) {
  const Dataset ds = RandomDataset(60, 8, 5);
  const SkylineDiagram built = Build(ds);
  const CellDiagram& diagram = *built.cell_diagram();
  const CellGrid& grid = diagram.grid();
  const auto queries =
      GenerateInteriorQueries4(ds, 100, 999, /*avoid_bisectors=*/false);
  for (const auto& [qx4, qy4] : queries) {
    uint32_t cx = 0;
    while (cx < grid.num_distinct_x() && 4 * grid.x_value(cx) < qx4) ++cx;
    uint32_t cy = 0;
    while (cy < grid.num_distinct_y() && 4 * grid.y_value(cy) < qy4) ++cy;
    const auto actual = diagram.CellSkyline(cx, cy);
    EXPECT_EQ(std::vector<PointId>(actual.begin(), actual.end()),
              GlobalSkylineAt4(ds, qx4, qy4));
  }
}

// The global skyline is the union of the four quadrant skylines, and each
// quadrant's candidate set is constant on a half-open cell, grid lines
// included. So point location is exact at every position, not only in cell
// interiors: every integer query of tie-heavy datasets, one step past the
// domain on each side, matches the oracle.
TEST_P(GlobalDiagramTest, EveryIntegerQueryIncludingGridLines) {
  for (const Distribution distribution :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAnticorrelated}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const int64_t domain = 8 + 8 * static_cast<int64_t>(seed);
      const Dataset ds = testing::GeneratedDataset(
          10 + 3 * seed, domain, distribution, seed);
      const SkylineDiagram built = Build(ds);
      uint64_t on_line = 0;
      for (int64_t x = -1; x <= domain; ++x) {
        for (int64_t y = -1; y <= domain; ++y) {
          const Point2D q{x, y};
          if (built.index().OnBoundary(q)) ++on_line;
          const auto got = built.Query(q);
          ASSERT_EQ(std::vector<PointId>(got.begin(), got.end()),
                    GlobalSkyline(ds, q))
              << DistributionName(distribution) << " seed " << seed
              << " q = " << q;
        }
      }
      EXPECT_GT(on_line, 0u) << DistributionName(distribution);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBuilders, GlobalDiagramTest,
                         ::testing::Values(BuildAlgorithm::kAuto,
                                           BuildAlgorithm::kBaseline,
                                           BuildAlgorithm::kDsg,
                                           BuildAlgorithm::kScanning),
                         [](const auto& info) {
                           return std::string(BuildAlgorithmName(info.param));
                         });

TEST(GlobalDiagramTest, BuildersAgreeWithEachOther) {
  const Dataset ds = RandomDataset(40, 20, 9);
  const SkylineDiagram a =
      BuildDiagram(ds, SkylineQueryType::kGlobal, BuildAlgorithm::kBaseline);
  const SkylineDiagram b =
      BuildDiagram(ds, SkylineQueryType::kGlobal, BuildAlgorithm::kDsg);
  const SkylineDiagram c =
      BuildDiagram(ds, SkylineQueryType::kGlobal, BuildAlgorithm::kScanning);
  EXPECT_TRUE(a.cell_diagram()->SameResults(*b.cell_diagram()));
  EXPECT_TRUE(a.cell_diagram()->SameResults(*c.cell_diagram()));
}

TEST(GlobalDiagramTest, GlobalContainsQuadrantResult) {
  const Dataset ds = RandomDataset(35, 30, 13);
  const SkylineDiagram quadrant_built =
      BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const SkylineDiagram global_built =
      BuildDiagram(ds, SkylineQueryType::kGlobal, BuildAlgorithm::kScanning);
  const CellDiagram& quadrant = *quadrant_built.cell_diagram();
  const CellDiagram& global = *global_built.cell_diagram();
  const CellGrid& grid = quadrant.grid();
  for (uint32_t cy = 0; cy < grid.num_rows(); ++cy) {
    for (uint32_t cx = 0; cx < grid.num_columns(); ++cx) {
      const auto q1 = quadrant.CellSkyline(cx, cy);
      const auto g = global.CellSkyline(cx, cy);
      for (PointId id : q1) {
        EXPECT_TRUE(std::binary_search(g.begin(), g.end(), id))
            << "cell (" << cx << ", " << cy << ")";
      }
    }
  }
}

TEST(GlobalDiagramTest, HotelExampleMatchesPaper) {
  const Dataset hotels = HotelExample();
  const SkylineDiagram diagram = BuildDiagram(
      hotels, SkylineQueryType::kGlobal, BuildAlgorithm::kScanning);
  // q = (10, 80) is interior (no hotel has x == 10 or y == 80).
  const auto result = diagram.Query(HotelExampleQuery());
  // Global skyline = {p3, p6, p8, p10, p11} = ids {2, 5, 7, 9, 10}.
  EXPECT_EQ(std::vector<PointId>(result.begin(), result.end()),
            (std::vector<PointId>{2, 5, 7, 9, 10}));
}

}  // namespace
}  // namespace skydia
