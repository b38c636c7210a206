// The parallel dynamic scanning builder must agree exactly with its
// sequential reference. Every construction goes through the
// SkylineDiagram::Build facade: the parallelism knob is the only thing that
// changes between the two sides.
#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/datagen/distributions.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::BuildDiagram;
using skydia::testing::RandomDataset;

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
