#include "src/core/incremental_dynamic.h"

#include <gtest/gtest.h>

#include "src/core/dynamic_scanning.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;

SubcellDiagram RebuildDynamic(const Dataset& dataset) {
  return internal::BuildDynamicScanning(dataset);
}

TEST(IncrementalDynamicTest, InsertMatchesFullRebuildRandom) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset full = RandomDataset(12, 20, seed);
    std::vector<Point2D> seed_points(full.points().begin(),
                                     full.points().begin() + 5);
    auto incremental = IncrementalDynamicDiagram::Create(
        std::move(Dataset::Create(std::move(seed_points), full.domain_size()))
            .value());
    ASSERT_TRUE(incremental.ok());
    for (size_t i = 5; i < full.size(); ++i) {
      auto id = incremental->Insert(full.point(static_cast<PointId>(i)));
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, i);
      const SubcellDiagram rebuilt = RebuildDynamic(incremental->dataset());
      ASSERT_TRUE(incremental->diagram().SameResults(rebuilt))
          << "seed " << seed << " after insert " << i;
    }
  }
}

TEST(IncrementalDynamicTest, DeleteMatchesFullRebuildRandom) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset full = RandomDataset(12, 20, seed);
    auto incremental = IncrementalDynamicDiagram::Create(full);
    ASSERT_TRUE(incremental.ok());
    Rng rng(seed * 31);
    for (int step = 0; step < 8; ++step) {
      const auto victim = static_cast<PointId>(rng.NextInt(
          0, static_cast<int64_t>(incremental->dataset().size()) - 1));
      ASSERT_TRUE(incremental->Delete(victim).ok());
      const SubcellDiagram rebuilt = RebuildDynamic(incremental->dataset());
      ASSERT_TRUE(incremental->diagram().SameResults(rebuilt))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(IncrementalDynamicTest, InterleavedMutationsStayInteriorExact) {
  auto incremental =
      IncrementalDynamicDiagram::Create(RandomDataset(8, 16, 7));
  ASSERT_TRUE(incremental.ok());
  Rng rng(123);
  for (int step = 0; step < 16; ++step) {
    if (incremental->dataset().size() <= 2 || rng.NextInt(0, 2) != 0) {
      ASSERT_TRUE(
          incremental->Insert({rng.NextInt(0, 15), rng.NextInt(0, 15)}).ok());
    } else {
      const auto victim = static_cast<PointId>(rng.NextInt(
          0, static_cast<int64_t>(incremental->dataset().size()) - 1));
      ASSERT_TRUE(incremental->Delete(victim).ok());
    }
  }
  const SubcellDiagram rebuilt = RebuildDynamic(incremental->dataset());
  EXPECT_TRUE(incremental->diagram().SameResults(rebuilt));
}

TEST(IncrementalDynamicTest, DominatedInsertCopiesMostSubcells) {
  // A point wedged between existing ones changes only the subcells where it
  // survives into the dynamic skyline — far fewer than the whole grid.
  auto base = Dataset::Create({{2, 2}, {13, 13}}, 16);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalDynamicDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(incremental->Insert({3, 3}).ok());
  const SubcellGrid& grid = incremental->diagram().grid();
  EXPECT_LT(incremental->last_insert_recomputed_subcells(),
            grid.num_subcells());
  const SubcellDiagram rebuilt = RebuildDynamic(incremental->dataset());
  EXPECT_TRUE(incremental->diagram().SameResults(rebuilt));
}

TEST(IncrementalDynamicTest, MutationErrorsLeaveDiagramUntouched) {
  auto base = Dataset::Create({{1, 1}, {9, 9}}, 12);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalDynamicDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(incremental->Insert({99, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(incremental->Delete(5).code(), StatusCode::kNotFound);
  ASSERT_TRUE(incremental->Delete(0).ok());
  EXPECT_EQ(incremental->Delete(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(incremental->dataset().size(), 1u);
  const SubcellDiagram rebuilt = RebuildDynamic(incremental->dataset());
  EXPECT_TRUE(incremental->diagram().SameResults(rebuilt));
}

}  // namespace
}  // namespace skydia
