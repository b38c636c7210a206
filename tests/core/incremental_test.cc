#include "src/core/incremental.h"

#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/datagen/distributions.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;

Dataset Slice(const Dataset& ds, size_t count) {
  std::vector<Point2D> points(ds.points().begin(),
                              ds.points().begin() + count);
  return std::move(Dataset::Create(std::move(points), ds.domain_size()))
      .value();
}

TEST(IncrementalTest, InsertMatchesFullRebuildRandom) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Dataset full = RandomDataset(25, 24, seed);
    auto incremental =
        IncrementalQuadrantDiagram::Create(Slice(full, 10));
    ASSERT_TRUE(incremental.ok());
    for (size_t i = 10; i < full.size(); ++i) {
      auto id = incremental->Insert(full.point(static_cast<PointId>(i)));
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, i);
    }
    const SkylineDiagram rebuilt = testing::BuildDiagram(
        full, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
    EXPECT_TRUE(incremental->diagram().SameResults(*rebuilt.cell_diagram()))
        << "seed " << seed;
  }
}

TEST(IncrementalTest, InsertWithTies) {
  // Insertions that share coordinates with existing points (no new grid
  // line) and exact duplicates.
  auto base = Dataset::Create({{3, 3}, {6, 6}}, 10);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(incremental->Insert({3, 6}).ok());   // both coords shared
  ASSERT_TRUE(incremental->Insert({3, 3}).ok());   // exact duplicate
  ASSERT_TRUE(incremental->Insert({6, 1}).ok());   // one shared coord

  auto full = Dataset::Create({{3, 3}, {6, 6}, {3, 6}, {3, 3}, {6, 1}}, 10);
  ASSERT_TRUE(full.ok());
  const SkylineDiagram rebuilt = testing::BuildDiagram(
      *full, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  EXPECT_TRUE(incremental->diagram().SameResults(*rebuilt.cell_diagram()));
}

TEST(IncrementalTest, UpperRightInsertRecomputesOneCell) {
  auto base = Dataset::Create({{1, 1}, {2, 2}}, 16);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  // Dominated corner insert: the candidate rectangle is the full lower-left
  // grid, but wherever a dominator — (2,2), ranks (1,1) — is also a
  // candidate the cell keeps its result, leaving the changed staircase
  // {cx<=1, cy=2} + {cx=2, cy<=2} = 5 of the 9 rectangle cells...
  ASSERT_TRUE(incremental->Insert({10, 10}).ok());
  EXPECT_EQ(incremental->last_insert_recomputed_cells(), 5u);
  // ...while a lower-left insert touches exactly one cell.
  ASSERT_TRUE(incremental->Insert({0, 0}).ok());
  EXPECT_EQ(incremental->last_insert_recomputed_cells(), 1u);
}

TEST(IncrementalTest, DominatedInsertRecomputesStaircaseOnly) {
  // Points on the diagonal: inserting a point dominated at distance one
  // must recompute only the staircase its dominators leave exposed, not the
  // whole candidate rectangle.
  std::vector<Point2D> points;
  for (int64_t v = 0; v < 8; ++v) points.push_back({v, v});
  auto base = Dataset::Create(std::move(points), 64);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  // (7,7) dominates (8,8): only cells with cx > xrank(7) or cy > yrank(7)
  // inside the rectangle change — one row plus one column of it.
  ASSERT_TRUE(incremental->Insert({8, 8}).ok());
  EXPECT_EQ(incremental->last_insert_recomputed_cells(), 2u * 9u - 1u);
  const SkylineDiagram rebuilt =
      testing::BuildDiagram(incremental->dataset(), SkylineQueryType::kQuadrant,
                            BuildAlgorithm::kScanning);
  EXPECT_TRUE(incremental->diagram().SameResults(*rebuilt.cell_diagram()));
}

TEST(IncrementalTest, DeleteMatchesFullRebuildRandom) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Dataset full = RandomDataset(25, 24, seed);
    auto incremental = IncrementalQuadrantDiagram::Create(full);
    ASSERT_TRUE(incremental.ok());
    Rng rng(seed * 977);
    for (int step = 0; step < 15; ++step) {
      const auto victim = static_cast<PointId>(rng.NextInt(
          0, static_cast<int64_t>(incremental->dataset().size()) - 1));
      ASSERT_TRUE(incremental->Delete(victim).ok());
      const SkylineDiagram rebuilt =
          testing::BuildDiagram(incremental->dataset(),
                                SkylineQueryType::kQuadrant,
                                BuildAlgorithm::kScanning);
      ASSERT_TRUE(incremental->diagram().SameResults(*rebuilt.cell_diagram()))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(IncrementalTest, DeleteRenumbersIdsAndLabelsFollow) {
  auto base = Dataset::Create({{1, 5}, {3, 3}, {5, 1}}, 8, {"a", "b", "c"});
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(incremental->Delete(1).ok());
  ASSERT_EQ(incremental->dataset().size(), 2u);
  EXPECT_EQ(incremental->dataset().label(0), "a");
  EXPECT_EQ(incremental->dataset().label(1), "c");
  EXPECT_EQ(incremental->dataset().point(1).x, 5);
  const auto at_origin =
      PointLocationIndex(incremental->diagram()).Query({0, 0});
  EXPECT_EQ(std::vector<PointId>(at_origin.begin(), at_origin.end()),
            FirstQuadrantSkyline(incremental->dataset(), {0, 0}));
}

TEST(IncrementalTest, DeleteRejectsUnknownAndLastPoint) {
  auto base = Dataset::Create({{1, 1}, {2, 2}}, 8);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  const Status unknown = incremental->Delete(7);
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  ASSERT_TRUE(incremental->Delete(0).ok());
  const Status last = incremental->Delete(0);
  EXPECT_EQ(last.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(incremental->dataset().size(), 1u);
}

TEST(IncrementalTest, DeleteOfDominatedPointRecomputesNothing) {
  // (2,2) is dominated by (1,1) everywhere it is a candidate, so deleting
  // it never changes a result set: every cell copies.
  auto base = Dataset::Create({{1, 1}, {2, 2}, {3, 0}}, 16);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(incremental->Delete(1).ok());
  EXPECT_EQ(incremental->last_delete_recomputed_cells(), 0u);
  const SkylineDiagram rebuilt =
      testing::BuildDiagram(incremental->dataset(), SkylineQueryType::kQuadrant,
                            BuildAlgorithm::kScanning);
  EXPECT_TRUE(incremental->diagram().SameResults(*rebuilt.cell_diagram()));
}

TEST(IncrementalTest, DeleteWithTies) {
  // Deleting a point that shares grid lines with survivors (no line
  // disappears) and one whose lines disappear with it.
  auto base = Dataset::Create({{3, 3}, {3, 6}, {6, 3}, {1, 7}}, 10);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(incremental->Delete(0).ok());  // shares x=3 and y=3
  ASSERT_TRUE(incremental->Delete(2).ok());  // unique lines x=1, y=7
  const SkylineDiagram rebuilt =
      testing::BuildDiagram(incremental->dataset(), SkylineQueryType::kQuadrant,
                            BuildAlgorithm::kScanning);
  EXPECT_TRUE(incremental->diagram().SameResults(*rebuilt.cell_diagram()));
}

TEST(IncrementalTest, InterleavedInsertDeleteMatchesRebuild) {
  auto incremental =
      IncrementalQuadrantDiagram::Create(RandomDataset(12, 32, 11));
  ASSERT_TRUE(incremental.ok());
  Rng rng(42);
  for (int step = 0; step < 30; ++step) {
    if (incremental->dataset().size() <= 2 || rng.NextInt(0, 2) != 0) {
      ASSERT_TRUE(
          incremental->Insert({rng.NextInt(0, 31), rng.NextInt(0, 31)}).ok());
    } else {
      const auto victim = static_cast<PointId>(rng.NextInt(
          0, static_cast<int64_t>(incremental->dataset().size()) - 1));
      ASSERT_TRUE(incremental->Delete(victim).ok());
    }
  }
  const SkylineDiagram rebuilt =
      testing::BuildDiagram(incremental->dataset(), SkylineQueryType::kQuadrant,
                            BuildAlgorithm::kScanning);
  EXPECT_TRUE(incremental->diagram().SameResults(*rebuilt.cell_diagram()));
}

TEST(IncrementalTest, QueriesAreExactAfterInserts) {
  auto incremental =
      IncrementalQuadrantDiagram::Create(RandomDataset(8, 12, 3));
  ASSERT_TRUE(incremental.ok());
  Rng rng(99);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        incremental->Insert({rng.NextInt(0, 11), rng.NextInt(0, 11)}).ok());
  }
  const Dataset& ds = incremental->dataset();
  const PointLocationIndex index(incremental->diagram());
  for (int64_t x = 0; x < 12; ++x) {
    for (int64_t y = 0; y < 12; ++y) {
      const auto actual = index.Query({x, y});
      EXPECT_EQ(std::vector<PointId>(actual.begin(), actual.end()),
                FirstQuadrantSkyline(ds, {x, y}));
    }
  }
}

TEST(IncrementalTest, RejectsOutOfDomainInserts) {
  auto incremental =
      IncrementalQuadrantDiagram::Create(RandomDataset(5, 8, 5));
  ASSERT_TRUE(incremental.ok());
  EXPECT_FALSE(incremental->Insert({8, 0}).ok());
  EXPECT_FALSE(incremental->Insert({0, -1}).ok());
}

TEST(IncrementalTest, DatasetValidationFailureIsCleanStatusNotAbort) {
  // An insert the extended dataset rejects (a point outside the domain)
  // must surface as InvalidArgument from Insert — never a process abort —
  // and the diagram must keep serving its pre-insert state.
  auto base = Dataset::Create({{1, 2}, {3, 4}}, 16);
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());

  const auto outside = incremental->Insert({16, 7});
  ASSERT_FALSE(outside.ok());
  EXPECT_EQ(outside.status().code(), StatusCode::kInvalidArgument);

  // The failed insert changed nothing: size, ids, and results are intact.
  EXPECT_EQ(incremental->dataset().size(), 2u);
  auto ok = incremental->Insert({5, 6});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2u);
  const auto at_origin =
      PointLocationIndex(incremental->diagram()).Query({0, 0});
  EXPECT_EQ(std::vector<PointId>(at_origin.begin(), at_origin.end()),
            FirstQuadrantSkyline(incremental->dataset(), {0, 0}));

  // And Create itself rejects a seed dataset it cannot build from.
  auto empty_seed = IncrementalQuadrantDiagram::Create(
      std::move(Dataset::Create({}, 8)).value());
  ASSERT_FALSE(empty_seed.ok());
  EXPECT_EQ(empty_seed.status().code(), StatusCode::kInvalidArgument);
}

TEST(IncrementalTest, UniformWritePairsRecomputeTenfoldFewerCellsThanARebuild) {
  // Incremental maintenance pays for itself only while a write recomputes
  // far fewer cells than the (n+1)^2 a rebuild fills. Uniform insert/delete
  // pairs at n=256 must stay at least 10x below that.
  constexpr size_t kN = 256;
  constexpr int64_t kDomain = int64_t{1} << 20;
  constexpr int kPairs = 64;
  DataGenOptions gen;
  gen.n = kN;
  gen.domain_size = kDomain;
  gen.seed = 11;
  auto dataset = GenerateDataset(gen);
  ASSERT_TRUE(dataset.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*std::move(dataset));
  ASSERT_TRUE(incremental.ok());
  Rng rng(11);
  uint64_t recomputed = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    ASSERT_TRUE(incremental
                    ->Insert({rng.NextInt(0, kDomain - 1),
                              rng.NextInt(0, kDomain - 1)})
                    .ok());
    recomputed += incremental->last_insert_recomputed_cells();
    const auto victim = static_cast<PointId>(
        rng.NextInt(0, static_cast<int64_t>(kN)));  // kN + 1 live points
    ASSERT_TRUE(incremental->Delete(victim).ok());
    recomputed += incremental->last_delete_recomputed_cells();
  }
  const double per_write =
      static_cast<double>(recomputed) / static_cast<double>(2 * kPairs);
  const double rebuild = static_cast<double>((kN + 1) * (kN + 1));
  EXPECT_GE(rebuild / per_write, 10.0)
      << per_write << " cells per write against " << rebuild
      << " for a rebuild";
}

TEST(IncrementalTest, LabelsExtendWhenPresent) {
  auto base = Dataset::Create({{1, 1}}, 8, {"first"});
  ASSERT_TRUE(base.ok());
  auto incremental = IncrementalQuadrantDiagram::Create(*base);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(incremental->Insert({2, 2}).ok());
  EXPECT_EQ(incremental->dataset().label(0), "first");
  EXPECT_EQ(incremental->dataset().label(1), "p1");
}

}  // namespace
}  // namespace skydia
