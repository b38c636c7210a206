// Property-based differential tests for the query-serving engine: for
// thousands of random (dataset, query) pairs across all three semantics
// and all distributions — including duplicate/collinear-heavy data — the
// engine's answers must equal the brute-force oracles in
// src/skyline/query.h. Failing
// cases print their reproduction seed (see tests/testing/property.h).
#include "src/core/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/core/diagram.h"
#include "src/core/serialize.h"
#include "src/datagen/distributions.h"
#include "src/skyline/query.h"
#include "tests/testing/property.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::GeneratedDataset;
using skydia::testing::PropertyBaseSeed;
using skydia::testing::RandomDataset;
using skydia::testing::RandomQueryPoint;
using skydia::testing::RunSeededCases;

constexpr Distribution kDistributions[] = {Distribution::kIndependent,
                                           Distribution::kCorrelated,
                                           Distribution::kAnticorrelated};

// 3 datasets x 400 queries = 1200 differential queries per semantics x
// distribution (the acceptance floor is 1000).
constexpr size_t kDatasetsPerDistribution = 3;
constexpr size_t kQueriesPerDataset = 400;

void ExpectSameIds(std::span<const PointId> got,
                   const std::vector<PointId>& expected, const Point2D& q,
                   const char* what) {
  const bool equal = got.size() == expected.size() &&
                     std::equal(got.begin(), got.end(), expected.begin());
  EXPECT_TRUE(equal) << what << " disagrees with the oracle at q = " << q
                     << " (got " << got.size() << " ids, expected "
                     << expected.size() << ")";
}

SkylineDiagram BuildOrDie(const Dataset& dataset, SkylineQueryType type) {
  auto diagram = SkylineDiagram::Build(dataset, type);
  EXPECT_TRUE(diagram.ok()) << diagram.status();
  return std::move(diagram).value();
}

QueryEngine MakeEngine(const SkylineDiagram& diagram,
                       const QueryEngineOptions& options = {}) {
  if (diagram.cell_diagram() != nullptr) {
    return QueryEngine(diagram.dataset(), *diagram.cell_diagram(),
                       diagram.type(), options);
  }
  return QueryEngine(diagram.dataset(), *diagram.subcell_diagram(), options);
}

/// Answer(q, {.exact = true}), unwrapped.
std::vector<PointId> ExactAnswer(const QueryEngine& engine, const Point2D& q) {
  QueryOptions options;
  options.exact = true;
  return engine.Answer(q, options).value();
}

// Differential check of one engine against the oracles for `queries` random
// positions: Answer() must match wherever the diagram contract says it is
// exact, the exact Answer() must match everywhere.
void CheckEngineAgainstOracle(const QueryEngine& engine, Rng& rng,
                              size_t queries) {
  const Dataset& ds = engine.dataset();
  for (size_t i = 0; i < queries; ++i) {
    const Point2D q = RandomQueryPoint(rng, ds);
    std::vector<PointId> expected;
    switch (engine.semantics()) {
      case SkylineQueryType::kQuadrant:
        expected = FirstQuadrantSkyline(ds, q);
        // Quadrant point location is exact at every position, boundaries
        // and vertices included.
        ExpectSameIds(engine.Answer(q), expected, q, "quadrant Answer");
        break;
      case SkylineQueryType::kGlobal:
        expected = GlobalSkyline(ds, q);
        if (!engine.index().OnBoundary(q)) {
          ExpectSameIds(engine.Answer(q), expected, q, "global Answer");
        }
        break;
      case SkylineQueryType::kDynamic:
        expected = DynamicSkyline(ds, q);
        if (!engine.index().OnBoundary(q)) {
          ExpectSameIds(engine.Answer(q), expected, q, "dynamic Answer");
        }
        break;
    }
    ExpectSameIds(ExactAnswer(engine, q), expected, q, "exact Answer");
    if (::testing::Test::HasFailure()) return;
  }
}

class QueryEngineDifferentialTest
    : public ::testing::TestWithParam<SkylineQueryType> {};

TEST_P(QueryEngineDifferentialTest, MatchesOracleOnEveryDistribution) {
  const SkylineQueryType type = GetParam();
  for (const Distribution distribution : kDistributions) {
    const std::string property =
        std::string(SkylineQueryTypeName(type)) + " diagram answers == " +
        DistributionName(distribution) + " oracle";
    RunSeededCases(
        property.c_str(), kDatasetsPerDistribution,
        PropertyBaseSeed(20260805 + static_cast<uint64_t>(type)),
        [&](Rng& rng, uint64_t seed) {
          const Dataset ds = GeneratedDataset(40, 64, distribution, seed);
          const SkylineDiagram diagram = BuildOrDie(ds, type);
          const QueryEngine engine = MakeEngine(diagram);
          CheckEngineAgainstOracle(engine, rng, kQueriesPerDataset);
        });
  }
}

TEST_P(QueryEngineDifferentialTest, MatchesOracleOnDuplicateHeavyData) {
  // Tiny domains force duplicate points and collinear coordinates, the
  // adversarial case for the half-open convention and for bisector/grid
  // line coincidences in the dynamic arrangement.
  const SkylineQueryType type = GetParam();
  RunSeededCases(
      "tie-heavy diagram answers == oracle", kDatasetsPerDistribution,
      PropertyBaseSeed(777 + static_cast<uint64_t>(type)),
      [&](Rng& rng, uint64_t seed) {
        const Dataset ds = RandomDataset(24, 8, seed);
        const SkylineDiagram diagram = BuildOrDie(ds, type);
        const QueryEngine engine = MakeEngine(diagram);
        CheckEngineAgainstOracle(engine, rng, kQueriesPerDataset);
      });
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, QueryEngineDifferentialTest,
                         ::testing::Values(SkylineQueryType::kQuadrant,
                                           SkylineQueryType::kGlobal,
                                           SkylineQueryType::kDynamic),
                         [](const auto& info) {
                           return std::string(
                               SkylineQueryTypeName(info.param));
                         });

TEST(QueryEngineBatchTest, BatchMatchesSingleAcrossThreadCounts) {
  const Dataset ds =
      GeneratedDataset(48, 128, Distribution::kIndependent, 11);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const QueryEngine reference = MakeEngine(diagram);

  Rng rng(12);
  std::vector<Point2D> queries;
  queries.reserve(3000);
  for (size_t i = 0; i < 3000; ++i) {
    // Duplicate every third query: a repeated point answers like the first.
    if (i % 3 == 2 && !queries.empty()) {
      queries.push_back(queries[rng.NextBounded(queries.size())]);
    } else {
      queries.push_back(RandomQueryPoint(rng, ds));
    }
  }

  for (const int threads : {1, 2, 7}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    options.parallel_batch_threshold = 128;  // force sharding
    const QueryEngine engine = MakeEngine(diagram, options);
    const std::vector<SetId> answers = engine.AnswerBatch(queries);
    ASSERT_EQ(answers.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto got = engine.Get(answers[i]);
      const auto expected = reference.Answer(queries[i]);
      ASSERT_TRUE(got.size() == expected.size() &&
                  std::equal(got.begin(), got.end(), expected.begin()))
          << "batch answer " << i << " (threads=" << threads
          << ") diverges at q = " << queries[i];
    }
  }
}

// Batches smaller than the pool leave some of its shards without work; every
// slot of the output must still be written by the shard that owns it.
TEST(QueryEngineBatchTest, BatchesSmallerThanThePoolFillEveryAnswer) {
  const Dataset ds =
      GeneratedDataset(40, 64, Distribution::kAnticorrelated, 17);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kGlobal);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.parallel_batch_threshold = 1;  // even one query fans out
  const QueryEngine engine = MakeEngine(diagram, options);

  constexpr SetId kUnwritten = std::numeric_limits<SetId>::max();
  Rng rng(5);
  for (size_t size = 1; size <= 9; ++size) {
    std::vector<Point2D> queries;
    for (size_t i = 0; i < size; ++i) {
      queries.push_back(RandomQueryPoint(rng, ds));
    }
    // Longer than the batch and pre-filled, so a skipped slot keeps the
    // sentinel after AnswerBatch shrinks it.
    std::vector<SetId> out(size + 4, kUnwritten);
    engine.AnswerBatch(queries, &out);
    ASSERT_EQ(out.size(), size);
    for (size_t i = 0; i < size; ++i) {
      EXPECT_EQ(out[i], diagram.index().LocateSet(queries[i]))
          << "slot " << i << " of a batch of " << size;
    }
  }
}

TEST(QueryEngineBatchTest, SmallBatchesStayInline) {
  const Dataset ds = GeneratedDataset(16, 32, Distribution::kCorrelated, 5);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.parallel_batch_threshold = 1 << 20;  // never reached
  const QueryEngine engine = MakeEngine(diagram, options);
  const std::vector<Point2D> queries(100, Point2D{3, 3});
  const std::vector<SetId> answers = engine.AnswerBatch(queries);
  ASSERT_EQ(answers.size(), queries.size());
  for (const SetId id : answers) EXPECT_EQ(id, answers.front());
}

TEST(QueryEngineStatsTest, CountersAndLatencyPercentiles) {
  const Dataset ds =
      GeneratedDataset(32, 64, Distribution::kIndependent, 21);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const QueryEngine engine = MakeEngine(diagram);

  const std::vector<Point2D> repeated(512, Point2D{7, 9});
  (void)engine.AnswerBatch(repeated);
  (void)engine.Answer(Point2D{1, 1});

  const QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, 513u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_GT(stats.latency_samples, 0u);
  EXPECT_GT(stats.p50_latency_ns, 0.0);
  EXPECT_GE(stats.p99_latency_ns, stats.p50_latency_ns);
}

// The counters /metrics reads come from the engine alone, so a batch split
// across pool threads must count each query exactly once and time samples
// on every shard.
TEST(QueryEngineStatsTest, ParallelBatchCountsEveryQueryOnce) {
  const Dataset ds =
      GeneratedDataset(64, 256, Distribution::kIndependent, 33);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.parallel_batch_threshold = 1;
  const QueryEngine engine = MakeEngine(diagram, options);

  Rng rng(34);
  std::vector<Point2D> queries;
  for (int i = 0; i < 1000; ++i) queries.push_back(RandomQueryPoint(rng, ds));
  (void)engine.AnswerBatch(queries);

  const QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, 1000u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.oracle_fallbacks, 0u);
  // Each of the four shards times at least its first query.
  EXPECT_GE(stats.latency_samples, 4u);
}

// The QueryOptions batch answers through the SetId path and patches in the
// oracle exactly where NeedsOracle holds; every query is counted once, and
// a semantics override is all-oracle (and rejected without `exact`).
TEST(QueryEngineStatsTest, ExactBatchFallsBackOnlyOnBoundaries) {
  const Dataset ds = RandomDataset(24, 16, 29);  // tie-heavy: many lines
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kGlobal);
  const QueryEngine engine = MakeEngine(diagram);

  std::vector<Point2D> queries;
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) queries.push_back({x, y});
  }
  QueryOptions exact;
  exact.exact = true;
  const auto answers = engine.AnswerBatch(queries, exact);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), queries.size());
  uint64_t boundary = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Point2D& q = queries[i];
    if (NeedsOracle(SkylineQueryType::kGlobal, engine.index(), q)) ++boundary;
    EXPECT_EQ((*answers)[i], GlobalSkyline(ds, q)) << "q = " << q;
  }
  EXPECT_GT(boundary, 0u);
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, queries.size());
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.oracle_fallbacks, boundary);

  QueryOptions dynamic;
  dynamic.exact = true;
  dynamic.semantics = SkylineQueryType::kDynamic;
  const std::span<const Point2D> first(queries.data(), 10);
  const auto overridden = engine.AnswerBatch(first, dynamic);
  ASSERT_TRUE(overridden.ok()) << overridden.status();
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ((*overridden)[i], DynamicSkyline(ds, first[i]));
  }
  stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, queries.size() + first.size());
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.oracle_fallbacks, boundary + first.size());

  QueryOptions loose;
  loose.semantics = SkylineQueryType::kDynamic;
  const auto rejected = engine.AnswerBatch(first, loose);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

class ExactAnswerRuleTest
    : public ::testing::TestWithParam<SkylineQueryType> {};

// SkylineDiagram::QueryExact and the engine's exact Answer share one rule,
// NeedsOracle. At every position of a tie-heavy domain, and one step outside
// it, both return the oracle's answer, and the engine falls back exactly at
// the positions the rule names: never for quadrant diagrams.
TEST_P(ExactAnswerRuleTest, DiagramAndEngineFallBackAtTheSamePositions) {
  const SkylineQueryType type = GetParam();
  const Dataset ds = RandomDataset(14, 10, 37);
  const SkylineDiagram diagram = BuildOrDie(ds, type);
  const QueryEngine engine = MakeEngine(diagram);

  uint64_t needs_oracle = 0;
  for (int64_t x = -1; x <= 10; ++x) {
    for (int64_t y = -1; y <= 10; ++y) {
      const Point2D q{x, y};
      if (NeedsOracle(type, diagram.index(), q)) ++needs_oracle;
      const std::vector<PointId> expected = OracleSkyline(ds, type, q);
      EXPECT_EQ(diagram.QueryExact(q), expected) << "q = " << q;
      EXPECT_EQ(ExactAnswer(engine, q), expected) << "q = " << q;
    }
  }
  EXPECT_EQ(engine.Stats().oracle_fallbacks, needs_oracle);
  if (type == SkylineQueryType::kQuadrant) {
    EXPECT_EQ(needs_oracle, 0u);
  } else {
    EXPECT_GT(needs_oracle, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, ExactAnswerRuleTest,
                         ::testing::Values(SkylineQueryType::kQuadrant,
                                           SkylineQueryType::kGlobal,
                                           SkylineQueryType::kDynamic),
                         [](const auto& info) {
                           return std::string(
                               SkylineQueryTypeName(info.param));
                         });

// A temporary file path inside the build tree's test working directory.
std::string TempBlobPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Saves `built` as a blob at `path`, loads it back for serving and deletes
// the file.
StatusOr<ServableDiagram> SaveAndLoad(const SkylineDiagram& built,
                                      const std::string& path,
                                      const QueryEngineOptions& options) {
  const Status saved =
      built.cell_diagram() != nullptr
          ? SaveCellDiagram(built.dataset(), *built.cell_diagram(), path)
          : SaveSubcellDiagram(built.dataset(), *built.subcell_diagram(),
                               path);
  if (!saved.ok()) return saved;
  const SkylineQueryType cell_semantics =
      built.type() == SkylineQueryType::kDynamic ? SkylineQueryType::kQuadrant
                                                 : built.type();
  auto loaded = ServableDiagram::Load(path, options, cell_semantics);
  std::remove(path.c_str());
  return loaded;
}

// Positions that stress the half-open convention: domain corners, points
// outside the domain, every data point (on both of its grid lines), one step
// right of it (on its y line only) and one step below it, plus random fill.
std::vector<Point2D> BoundaryProbes(const Dataset& dataset, uint64_t seed) {
  const int64_t domain = dataset.domain_size();
  std::vector<Point2D> queries = {{0, 0},
                                  {domain - 1, domain - 1},
                                  {-5, domain / 2},
                                  {domain / 2, -5},
                                  {domain + 100, domain + 100}};
  for (PointId id = 0; id < dataset.size(); ++id) {
    const Point2D p = dataset.point(id);
    queries.push_back(p);
    queries.push_back({p.x + 1, p.y});
    queries.push_back({p.x, p.y - 1});
  }
  Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    queries.push_back(
        {rng.NextInt(-2, domain + 2), rng.NextInt(-2, domain + 2)});
  }
  return queries;
}

class QueryEngineParallelBatchTest
    : public ::testing::TestWithParam<SkylineQueryType> {};

// A loaded blob served by a four-thread engine that splits every batch: each
// batched answer is the set a single lookup on an unthreaded engine over the
// same diagram returns, boundary positions included, with the members the
// fresh build answers.
TEST_P(QueryEngineParallelBatchTest, BoundaryProbesMatchSingleAnswers) {
  const SkylineQueryType type = GetParam();
  const Dataset ds =
      GeneratedDataset(80, 512, Distribution::kIndependent, 9);
  const SkylineDiagram built = BuildOrDie(ds, type);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.parallel_batch_threshold = 1;
  const std::string name =
      std::string("parallel_batch_") + SkylineQueryTypeName(type) + ".skd";
  auto servable = SaveAndLoad(built, TempBlobPath(name.c_str()), options);
  ASSERT_TRUE(servable.ok()) << servable.status();
  const QueryEngine& engine = servable->engine();
  const QueryEngine reference =
      servable->subcell_diagram() != nullptr
          ? QueryEngine(servable->dataset(), *servable->subcell_diagram())
          : QueryEngine(servable->dataset(), *servable->cell_diagram(), type);

  const std::vector<Point2D> queries = BoundaryProbes(ds, 23);
  const std::vector<SetId> batch = engine.AnswerBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Point2D& q = queries[i];
    ASSERT_EQ(batch[i], reference.AnswerSetId(q)) << "q = " << q;
    const auto fresh = built.Query(q);
    ExpectSameIds(engine.Get(batch[i]),
                  std::vector<PointId>(fresh.begin(), fresh.end()), q,
                  "batched blob answer");
  }
  EXPECT_EQ(engine.Stats().queries_served, queries.size());
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, QueryEngineParallelBatchTest,
                         ::testing::Values(SkylineQueryType::kQuadrant,
                                           SkylineQueryType::kGlobal,
                                           SkylineQueryType::kDynamic),
                         [](const auto& info) {
                           return std::string(
                               SkylineQueryTypeName(info.param));
                         });

TEST(ServableDiagramTest, LoadedBlobServesIdenticallyToFreshBuild) {
  struct Case {
    SkylineQueryType type;
    const char* file;
  };
  const Case cases[] = {
      {SkylineQueryType::kQuadrant, "servable_quadrant.skd"},
      {SkylineQueryType::kGlobal, "servable_global.skd"},
      {SkylineQueryType::kDynamic, "servable_dynamic.skd"},
  };
  for (const Case& c : cases) {
    const Dataset ds =
        GeneratedDataset(28, 48, Distribution::kAnticorrelated, 31);
    const SkylineDiagram built = BuildOrDie(ds, c.type);
    auto servable = SaveAndLoad(built, TempBlobPath(c.file), {});
    ASSERT_TRUE(servable.ok()) << servable.status();
    EXPECT_EQ(servable->type(), c.type);
    ASSERT_EQ(servable->dataset().size(), ds.size());

    const QueryEngine in_memory = MakeEngine(built);
    Rng rng(41);
    for (size_t i = 0; i < 200; ++i) {
      const Point2D q = RandomQueryPoint(rng, ds);
      const auto expected = ExactAnswer(in_memory, q);
      const auto got = ExactAnswer(servable->engine(), q);
      ASSERT_EQ(got, expected)
          << SkylineQueryTypeName(c.type) << " blob diverges at q = " << q;
    }
  }
}

TEST(ServableDiagramTest, RejectsDynamicCellSemantics) {
  const auto servable = ServableDiagram::Load(
      TempBlobPath("unused.skd"), {}, SkylineQueryType::kDynamic);
  ASSERT_FALSE(servable.ok());
  EXPECT_EQ(servable.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServableDiagramTest, MissingFileFailsWithStatus) {
  const auto servable =
      ServableDiagram::Load(TempBlobPath("does_not_exist.skd"));
  ASSERT_FALSE(servable.ok());
}

}  // namespace
}  // namespace skydia
