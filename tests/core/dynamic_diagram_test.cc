#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/core/dynamic_subset.h"
#include "src/core/quadrant_baseline.h"
#include "src/core/quadrant_dsg.h"
#include "src/core/quadrant_scanning.h"
#include "src/datagen/distributions.h"
#include "src/datagen/real_data.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::BuildDiagram;
using skydia::testing::RandomDataset;

class DynamicDiagramTest : public ::testing::TestWithParam<BuildAlgorithm> {
 protected:
  SkylineDiagram Build(const Dataset& ds) const {
    return BuildDiagram(ds, SkylineQueryType::kDynamic, GetParam());
  }
};

TEST_P(DynamicDiagramTest, EverySubcellMatchesBruteForce) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset ds = RandomDataset(10, 16, seed);
    const SkylineDiagram built = Build(ds);
    const SubcellDiagram& diagram = *built.subcell_diagram();
    const SubcellGrid& grid = diagram.grid();
    for (uint32_t sy = 0; sy < grid.num_rows(); ++sy) {
      for (uint32_t sx = 0; sx < grid.num_columns(); ++sx) {
        const auto expected =
            DynamicSkylineAt4(ds, grid.x_axis().Representative4(sx),
                              grid.y_axis().Representative4(sy));
        const auto actual = diagram.SubcellSkyline(sx, sy);
        ASSERT_EQ(std::vector<PointId>(actual.begin(), actual.end()), expected)
            << "seed " << seed << " subcell (" << sx << ", " << sy << ")";
      }
    }
  }
}

TEST_P(DynamicDiagramTest, TieHeavyDataset) {
  const Dataset ds = RandomDataset(20, 6, 7);  // many coincident lines
  const SkylineDiagram built = Build(ds);
  const SubcellDiagram& diagram = *built.subcell_diagram();
  const SubcellGrid& grid = diagram.grid();
  for (uint32_t sy = 0; sy < grid.num_rows(); ++sy) {
    for (uint32_t sx = 0; sx < grid.num_columns(); ++sx) {
      const auto expected =
          DynamicSkylineAt4(ds, grid.x_axis().Representative4(sx),
                            grid.y_axis().Representative4(sy));
      const auto actual = diagram.SubcellSkyline(sx, sy);
      ASSERT_EQ(std::vector<PointId>(actual.begin(), actual.end()), expected)
          << "subcell (" << sx << ", " << sy << ")";
    }
  }
}

TEST_P(DynamicDiagramTest, SinglePoint) {
  auto ds = Dataset::Create({{3, 3}}, 8);
  ASSERT_TRUE(ds.ok());
  const SkylineDiagram built = Build(*ds);
  const SubcellDiagram& diagram = *built.subcell_diagram();
  // One line per axis -> 2x2 subcells, each containing only the point.
  EXPECT_EQ(diagram.grid().num_subcells(), 4u);
  for (uint32_t sy = 0; sy < 2; ++sy) {
    for (uint32_t sx = 0; sx < 2; ++sx) {
      EXPECT_EQ(diagram.SubcellSkyline(sx, sy).size(), 1u);
    }
  }
}

TEST_P(DynamicDiagramTest, DuplicatePoints) {
  auto ds = Dataset::Create({{2, 2}, {2, 2}, {5, 5}}, 8);
  ASSERT_TRUE(ds.ok());
  const SkylineDiagram built = Build(*ds);
  const SubcellDiagram& diagram = *built.subcell_diagram();
  const SubcellGrid& grid = diagram.grid();
  for (uint32_t sy = 0; sy < grid.num_rows(); ++sy) {
    for (uint32_t sx = 0; sx < grid.num_columns(); ++sx) {
      const auto expected =
          DynamicSkylineAt4(*ds, grid.x_axis().Representative4(sx),
                            grid.y_axis().Representative4(sy));
      const auto actual = diagram.SubcellSkyline(sx, sy);
      ASSERT_EQ(std::vector<PointId>(actual.begin(), actual.end()), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBuilders, DynamicDiagramTest,
                         ::testing::Values(BuildAlgorithm::kBaseline,
                                           BuildAlgorithm::kSubset,
                                           BuildAlgorithm::kScanning),
                         [](const auto& info) {
                           return std::string(BuildAlgorithmName(info.param));
                         });

TEST(DynamicDiagramCrossTest, AllFourBuildersAgree) {
  struct Case {
    size_t n;
    int64_t domain;
    Distribution distribution;
  };
  const Case cases[] = {
      {12, 64, Distribution::kIndependent},
      {12, 64, Distribution::kCorrelated},
      {12, 64, Distribution::kAnticorrelated},
      {24, 8, Distribution::kIndependent},
  };
  for (const Case& c : cases) {
    const Dataset ds =
        testing::GeneratedDataset(c.n, c.domain, c.distribution, 17);
    const SkylineDiagram baseline =
        BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kBaseline);
    for (const BuildAlgorithm algorithm :
         {BuildAlgorithm::kSubset, BuildAlgorithm::kScanning,
          BuildAlgorithm::kDsg}) {
      const SkylineDiagram other =
          BuildDiagram(ds, SkylineQueryType::kDynamic, algorithm);
      EXPECT_TRUE(baseline.subcell_diagram()->SameResults(
          *other.subcell_diagram()))
          << DistributionName(c.distribution) << "/"
          << BuildAlgorithmName(algorithm);
    }
  }
}

TEST(DynamicDiagramCrossTest, SubsetWorksWithEveryGlobalBuilder) {
  // The baseline-composed subset has no facade spelling (kSubset composes
  // over scanning, kDsg over DSG), so this parity check stays on the direct
  // entry point.
  const Dataset ds = RandomDataset(14, 24, 23);
  const SubcellDiagram a =
      internal::BuildDynamicSubset(ds, internal::BuildQuadrantBaseline);
  const SubcellDiagram b =
      internal::BuildDynamicSubset(ds, internal::BuildQuadrantDsg);
  const SubcellDiagram c =
      internal::BuildDynamicSubset(ds, internal::BuildQuadrantScanning);
  EXPECT_TRUE(a.SameResults(b));
  EXPECT_TRUE(a.SameResults(c));
}

TEST(DynamicDiagramCrossTest, HotelExampleDynamicQuery) {
  const Dataset hotels = HotelExample();
  const SkylineDiagram built = BuildDiagram(hotels, SkylineQueryType::kDynamic,
                                            BuildAlgorithm::kScanning);
  const SubcellDiagram& diagram = *built.subcell_diagram();
  // q = (10, 80) may lie on a bisector line; the paper's stated dynamic
  // result {p6, p11} must hold via the exact reference at minimum.
  EXPECT_EQ(DynamicSkyline(hotels, HotelExampleQuery()),
            (std::vector<PointId>{5, 10}));
  // And the diagram agrees at the interior representative of q's subcell.
  const SubcellGrid& grid = diagram.grid();
  const uint32_t sx = grid.x_axis().SlabOfDoubled(2 * HotelExampleQuery().x);
  const uint32_t sy = grid.y_axis().SlabOfDoubled(2 * HotelExampleQuery().y);
  const auto expected =
      DynamicSkylineAt4(hotels, grid.x_axis().Representative4(sx),
                        grid.y_axis().Representative4(sy));
  const auto actual = diagram.SubcellSkyline(sx, sy);
  EXPECT_EQ(std::vector<PointId>(actual.begin(), actual.end()), expected);
}

TEST(DynamicDiagramCrossTest, StatsAreConsistent) {
  const Dataset ds = RandomDataset(12, 20, 29);
  const SkylineDiagram built =
      BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  const DiagramStats stats = built.ComputeStats();
  EXPECT_EQ(stats.num_cells, built.subcell_diagram()->grid().num_subcells());
  EXPECT_GE(stats.num_distinct_sets, 1u);
  EXPECT_GT(stats.approx_bytes, 0u);
}

// The striped form of the scanning builder (more than one thread) must
// agree exactly with its one-thread build. Every construction goes through
// the SkylineDiagram::Build facade: the parallelism knob is the only thing
// that changes between the two sides.
TEST(ParallelDynamicTest, MatchesSequentialAcrossThreadsAndDistributions) {
  for (const Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAnticorrelated}) {
    const Dataset ds = testing::GeneratedDataset(28, 48, dist, 17);
    const SkylineDiagram sequential =
        BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
    for (const int threads : {1, 2, 7}) {
      const SkylineDiagram parallel =
          BuildDiagram(ds, SkylineQueryType::kDynamic,
                       BuildAlgorithm::kScanning, threads);
      EXPECT_TRUE(parallel.subcell_diagram()->SameResults(
          *sequential.subcell_diagram()))
          << DistributionName(dist) << ", " << threads << " threads";
    }
  }
}

TEST(ParallelDynamicTest, MatchesBaselineOnTieHeavyData) {
  // A tiny domain makes grid and bisector lines coincide heavily — the
  // adversarial case for the incremental candidate propagation.
  const Dataset ds = RandomDataset(24, 6, 23);
  const SkylineDiagram baseline =
      BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kBaseline);
  const SkylineDiagram parallel = BuildDiagram(
      ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning, 4);
  EXPECT_TRUE(
      parallel.subcell_diagram()->SameResults(*baseline.subcell_diagram()));
}

TEST(ParallelDynamicTest, MoreThreadsThanRows) {
  auto ds = Dataset::Create({{1, 1}, {2, 3}}, 8);
  ASSERT_TRUE(ds.ok());
  const SkylineDiagram sequential =
      BuildDiagram(*ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  const SkylineDiagram parallel = BuildDiagram(
      *ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning, 16);
  EXPECT_TRUE(
      parallel.subcell_diagram()->SameResults(*sequential.subcell_diagram()));
}

TEST(ParallelDynamicTest, SinglePoint) {
  auto ds = Dataset::Create({{3, 3}}, 8);
  ASSERT_TRUE(ds.ok());
  const SkylineDiagram sequential =
      BuildDiagram(*ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  const SkylineDiagram parallel = BuildDiagram(
      *ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning, 4);
  EXPECT_TRUE(
      parallel.subcell_diagram()->SameResults(*sequential.subcell_diagram()));
}

}  // namespace
}  // namespace skydia
