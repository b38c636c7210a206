#include "src/core/range_query.h"

#include <set>

#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;

// Oracle: evaluate the quadrant skyline at every integer position in the
// range and combine.
std::pair<std::set<PointId>, std::set<PointId>> OracleUnionIntersection(
    const Dataset& ds, const QueryRange& range) {
  std::set<PointId> uni;
  std::set<PointId> inter;
  bool first = true;
  for (int64_t x = range.x_lo; x <= range.x_hi; ++x) {
    for (int64_t y = range.y_lo; y <= range.y_hi; ++y) {
      const auto sky = FirstQuadrantSkyline(ds, {x, y});
      uni.insert(sky.begin(), sky.end());
      if (first) {
        inter.insert(sky.begin(), sky.end());
        first = false;
      } else {
        std::set<PointId> next;
        for (PointId id : sky) {
          if (inter.count(id)) next.insert(id);
        }
        inter = std::move(next);
      }
    }
  }
  return {uni, inter};
}

// Every quadrant builder's cell table, sequential and parallel, answers
// range summaries like the integer oracle: the sweep reads each covered cell
// straight from the table the builder wrote.
TEST(RangeQueryTest, UnionAndIntersectionMatchIntegerOracle) {
  const Dataset ds = RandomDataset(20, 16, 3);
  struct Builder {
    BuildAlgorithm algorithm;
    int parallelism;
  };
  for (const Builder builder : {Builder{BuildAlgorithm::kBaseline, 1},
                                Builder{BuildAlgorithm::kDsg, 1},
                                Builder{BuildAlgorithm::kScanning, 1},
                                Builder{BuildAlgorithm::kAuto, 3}}) {
    const SkylineDiagram built =
        testing::BuildDiagram(ds, SkylineQueryType::kQuadrant,
                              builder.algorithm, builder.parallelism);
    Rng rng(7);
    for (int i = 0; i < 20; ++i) {
      QueryRange range;
      range.x_lo = rng.NextInt(0, 15);
      range.x_hi = range.x_lo + rng.NextInt(0, 15 - range.x_lo);
      range.y_lo = rng.NextInt(0, 15);
      range.y_hi = range.y_lo + rng.NextInt(0, 15 - range.y_lo);
      const auto [uni, inter] = OracleUnionIntersection(ds, range);

      auto summary = RangeSkylineSummarize(built.index(), range);
      ASSERT_TRUE(summary.ok()) << summary.status();
      EXPECT_EQ(std::set<PointId>(summary->union_ids.begin(),
                                  summary->union_ids.end()),
                uni)
          << BuildAlgorithmName(builder.algorithm) << " x"
          << builder.parallelism;
      EXPECT_EQ(std::set<PointId>(summary->intersection_ids.begin(),
                                  summary->intersection_ids.end()),
                inter)
          << BuildAlgorithmName(builder.algorithm) << " x"
          << builder.parallelism;
    }
  }
}

TEST(RangeQueryTest, DegenerateRangeEqualsPointQuery) {
  const Dataset ds = RandomDataset(15, 12, 5);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  auto summary = RangeSkylineSummarize(built.index(), {5, 5, 7, 7});
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->union_ids, FirstQuadrantSkyline(ds, {5, 7}));
  EXPECT_EQ(summary->intersection_ids, FirstQuadrantSkyline(ds, {5, 7}));
  EXPECT_EQ(summary->distinct_results, 1u);
}

TEST(RangeQueryTest, WholeDomainUnionIsAllSkylineCandidates) {
  // The union over every query position is exactly the points that appear
  // in some cell's result; each point appears in the cell just below-left
  // of itself, so the union is the whole dataset.
  const Dataset ds = RandomDataset(12, 16, 9);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  auto summary = RangeSkylineSummarize(built.index(), {0, 15, 0, 15});
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->union_ids.size(), ds.size());
}

TEST(RangeQueryTest, DistinctResultsCountsSafeZones) {
  const Dataset ds = RandomDataset(18, 20, 11);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  // Whole domain has many results...
  auto whole = RangeSkylineSummarize(built.index(), {0, 19, 0, 19});
  ASSERT_TRUE(whole.ok());
  EXPECT_GT(whole->distinct_results, 1u);
  // ...while the top-right corner past every point is one empty region.
  auto corner = RangeSkylineSummarize(built.index(), {19, 19, 19, 19});
  ASSERT_TRUE(corner.ok());
  EXPECT_EQ(corner->distinct_results, 1u);
}

// Property-based differential check of the summary path the line protocol
// serves: RangeSkylineSummarize through a PointLocationIndex must agree with
// brute-force evaluation at every integer position of random ranges —
// union, intersection, and the distinct-result count. Quadrant diagrams are
// exact everywhere, so every position (grid line or not) must match.
TEST(RangeQueryTest, SummarizeMatchesIntegerOracleOnRandomRanges) {
  const Dataset ds = RandomDataset(25, 24, 17);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const PointLocationIndex index(*built.cell_diagram());
  Rng rng(29);
  for (int i = 0; i < 40; ++i) {
    QueryRange range;
    range.x_lo = rng.NextInt(0, 23);
    range.x_hi = range.x_lo + rng.NextInt(0, 23 - range.x_lo);
    range.y_lo = rng.NextInt(0, 23);
    range.y_hi = range.y_lo + rng.NextInt(0, 23 - range.y_lo);

    const auto [uni, inter] = OracleUnionIntersection(ds, range);
    std::set<std::vector<PointId>> distinct_sets;
    for (int64_t x = range.x_lo; x <= range.x_hi; ++x) {
      for (int64_t y = range.y_lo; y <= range.y_hi; ++y) {
        distinct_sets.insert(FirstQuadrantSkyline(ds, {x, y}));
      }
    }

    auto summary = RangeSkylineSummarize(index, range);
    ASSERT_TRUE(summary.ok()) << summary.status();
    EXPECT_EQ(std::set<PointId>(summary->union_ids.begin(),
                                summary->union_ids.end()),
              uni);
    EXPECT_TRUE(std::is_sorted(summary->union_ids.begin(),
                               summary->union_ids.end()));
    EXPECT_EQ(std::set<PointId>(summary->intersection_ids.begin(),
                                summary->intersection_ids.end()),
              inter);
    EXPECT_TRUE(std::is_sorted(summary->intersection_ids.begin(),
                               summary->intersection_ids.end()));
    EXPECT_EQ(summary->distinct_results, distinct_sets.size());
  }
}

TEST(RangeQueryTest, SummarizeRejectsInvertedRanges) {
  const Dataset ds = RandomDataset(5, 8, 7);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const PointLocationIndex index(*built.cell_diagram());
  EXPECT_FALSE(RangeSkylineSummarize(index, {5, 4, 0, 1}).ok());
  EXPECT_FALSE(RangeSkylineSummarize(index, {0, 1, 5, 4}).ok());
  EXPECT_FALSE(RangeSkylineSummarize(index, {5, 4, 5, 4}).ok());
}

TEST(RangeQueryTest, DistinctResultsCountContentsInAnAdoptedPool) {
  // After a write the pool holds duplicate contents under distinct SetIds;
  // distinct_results counts contents, so it matches a fresh build.
  const Dataset ds = RandomDataset(14, 20, 11);
  const IncrementalQuadrantDiagram mutated =
      testing::InsertedAndDeleted(ds, {10, 10});
  const SkylineDiagram fresh = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const std::span<const SetId> table = mutated.diagram().cell_table();
  const std::set<SetId> swept(table.begin(), table.end());
  const QueryRange range{0, 19, 0, 19};  // every cell
  auto a = RangeSkylineSummarize(fresh.index(), range);
  auto b = RangeSkylineSummarize(PointLocationIndex(mutated.diagram()), range);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(b->distinct_results, swept.size());
  EXPECT_EQ(a->distinct_results, b->distinct_results);
  EXPECT_EQ(a->union_ids, b->union_ids);
  EXPECT_EQ(a->intersection_ids, b->intersection_ids);
}

}  // namespace
}  // namespace skydia
