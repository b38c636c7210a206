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
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/core/diagram.h"
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
        // Global answers are exact on grid lines too: each quadrant's
        // candidate set is constant on a half-open cell.
        ExpectSameIds(engine.Answer(q), expected, q, "global Answer");
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
          CheckEngineAgainstOracle(diagram.engine(), rng, kQueriesPerDataset);
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
        CheckEngineAgainstOracle(diagram.engine(), rng, kQueriesPerDataset);
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

  const QueryEngine& engine = diagram.engine();
  for (const size_t threads : {1, 2, 7}) {
    // One thread means no pool: the batch answers on the calling thread.
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    const std::vector<SetId> answers = engine.AnswerBatch(queries, pool.get());
    ASSERT_EQ(answers.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto got = engine.Get(answers[i]);
      const auto expected = diagram.index().Query(queries[i]);
      ASSERT_TRUE(got.size() == expected.size() &&
                  std::equal(got.begin(), got.end(), expected.begin()))
          << "batch answer " << i << " (threads=" << threads
          << ") diverges at q = " << queries[i];
    }
  }
}

// A batch splits into one shard of ceil(size / threads) queries per pool
// thread, so the last shards of a batch get fewer queries or none: 33
// threads leave the last shard of a 1024-query batch empty. Every slot of
// the output must still be written by the shard that owns it.
TEST(QueryEngineBatchTest, ShardsWithoutWorkLeaveNoSlotUnwritten) {
  const Dataset ds =
      GeneratedDataset(40, 64, Distribution::kAnticorrelated, 17);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kGlobal);
  const QueryEngine& engine = diagram.engine();
  ThreadPool pool(33);

  constexpr SetId kUnwritten = std::numeric_limits<SetId>::max();
  constexpr size_t kSplit = QueryEngine::kParallelBatchThreshold;
  Rng rng(5);
  for (const size_t size : {kSplit - 1, kSplit, kSplit + 1, kSplit + 31}) {
    std::vector<Point2D> queries;
    for (size_t i = 0; i < size; ++i) {
      queries.push_back(RandomQueryPoint(rng, ds));
    }
    // Longer than the batch and pre-filled, so a skipped slot keeps the
    // sentinel after AnswerBatch shrinks it.
    std::vector<SetId> out(size + 4, kUnwritten);
    engine.AnswerBatch(queries, &out, &pool);
    ASSERT_EQ(out.size(), size);
    for (size_t i = 0; i < size; ++i) {
      EXPECT_EQ(out[i], diagram.index().LocateSet(queries[i]))
          << "slot " << i << " of a batch of " << size;
    }
  }
}

// The request context crosses into the caller's pool: every query.shard span
// of a split batch carries the calling request's id, and none runs on the
// calling thread.
TEST(QueryEngineBatchTest, PoolShardsCarryTheCallersRequestId) {
  const Dataset ds =
      GeneratedDataset(64, 256, Distribution::kIndependent, 35);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const QueryEngine& engine = diagram.engine();
  ThreadPool pool(3);
  Rng rng(36);
  std::vector<Point2D> queries;
  while (queries.size() < 2 * QueryEngine::kParallelBatchThreshold) {
    queries.push_back(RandomQueryPoint(rng, ds));
  }

  trace::SetEnabled(true);
  trace::Reset();
  {
    trace::ScopedRequestContext request(trace::RegisterRequestId("batch-7"));
    (void)engine.AnswerBatch(queries, &pool);
  }
  size_t shards = 0;
  for (const trace::ThreadTrack& track : trace::Collect().threads) {
    for (const trace::TraceEvent& event : track.events) {
      if (event.kind != trace::TraceEvent::Kind::kSpan ||
          std::string(event.name) != "query.shard") {
        continue;
      }
      ++shards;
      EXPECT_EQ(trace::RequestIdForToken(event.ctx), "batch-7");
      EXPECT_NE(track.tid, trace::CurrentThreadId());
    }
  }
  trace::SetEnabled(false);
  trace::Reset();
  EXPECT_EQ(shards, pool.num_threads());
}

TEST(QueryEngineBatchTest, SmallBatchesStayInline) {
  const Dataset ds = GeneratedDataset(16, 32, Distribution::kCorrelated, 5);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const QueryEngine& engine = diagram.engine();
  ThreadPool pool(4);
  const std::vector<Point2D> queries(100, Point2D{3, 3});
  const std::vector<SetId> answers = engine.AnswerBatch(queries, &pool);
  ASSERT_EQ(answers.size(), queries.size());
  for (const SetId id : answers) EXPECT_EQ(id, answers.front());
}

TEST(QueryEngineStatsTest, CountersAndLatencyPercentiles) {
  const Dataset ds =
      GeneratedDataset(32, 64, Distribution::kIndependent, 21);
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const QueryEngine& engine = diagram.engine();

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
  const QueryEngine& engine = diagram.engine();
  ThreadPool pool(4);

  Rng rng(34);
  std::vector<Point2D> queries;
  for (int i = 0; i < 2000; ++i) queries.push_back(RandomQueryPoint(rng, ds));
  (void)engine.AnswerBatch(queries, &pool);

  const QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, 2000u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.oracle_fallbacks, 0u);
  // Each of the four shards times at least its first query.
  EXPECT_GE(stats.latency_samples, 4u);
}

// The QueryOptions batch answers through the SetId path and patches in the
// oracle exactly where NeedsOracle holds (dynamic diagrams are the ones with
// such positions); every query is counted once, and a semantics override is
// all-oracle (and rejected without `exact`).
TEST(QueryEngineStatsTest, ExactBatchFallsBackOnlyOnBoundaries) {
  const Dataset ds = RandomDataset(24, 16, 29);  // tie-heavy: many lines
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kDynamic);
  const QueryEngine& engine = diagram.engine();

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
    if (NeedsOracle(SkylineQueryType::kDynamic, engine.index(), q)) ++boundary;
    EXPECT_EQ((*answers)[i], DynamicSkyline(ds, q)) << "q = " << q;
  }
  EXPECT_GT(boundary, 0u);
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, queries.size());
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.oracle_fallbacks, boundary);

  QueryOptions global;
  global.exact = true;
  global.semantics = SkylineQueryType::kGlobal;
  const std::span<const Point2D> first(queries.data(), 10);
  const auto overridden = engine.AnswerBatch(first, global);
  ASSERT_TRUE(overridden.ok()) << overridden.status();
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ((*overridden)[i], GlobalSkyline(ds, first[i]));
  }
  stats = engine.Stats();
  EXPECT_EQ(stats.queries_served, queries.size() + first.size());
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.oracle_fallbacks, boundary + first.size());

  QueryOptions loose;
  loose.semantics = SkylineQueryType::kGlobal;
  const auto rejected = engine.AnswerBatch(first, loose);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// A temporary file path inside the build tree's test working directory.
std::string TempBlobPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Saves `built` as a blob at `path`, loads it back for serving and deletes
// the file.
StatusOr<SkylineDiagram> SaveAndLoad(const SkylineDiagram& built,
                                     const std::string& path) {
  if (Status saved = built.Save(path); !saved.ok()) return saved;
  auto loaded = SkylineDiagram::Load(path);
  std::remove(path.c_str());
  return loaded;
}

class ExactAnswerRuleTest
    : public ::testing::TestWithParam<SkylineQueryType> {};

// SkylineDiagram::QueryExact goes through the diagram's engine, so it and
// the engine's exact Answer share one rule, NeedsOracle. At every position of
// a tie-heavy domain, and one step outside it, the diagram, its engine and
// the engine of its loaded blob all return the oracle's answer, and both
// engines fall back exactly at the positions the rule names: only for
// dynamic diagrams, whose bisector lines are where two mapped distances tie.
TEST_P(ExactAnswerRuleTest, DiagramAndEngineFallBackAtTheSamePositions) {
  const SkylineQueryType type = GetParam();
  const Dataset ds = RandomDataset(14, 10, 37);
  const SkylineDiagram diagram = BuildOrDie(ds, type);
  const QueryEngine& engine = diagram.engine();
  const std::string name =
      std::string("exact_rule_") + SkylineQueryTypeName(type) + ".skd";
  auto loaded = SaveAndLoad(diagram, TempBlobPath(name.c_str()));
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  uint64_t needs_oracle = 0;
  uint64_t on_line = 0;
  for (int64_t x = -1; x <= 10; ++x) {
    for (int64_t y = -1; y <= 10; ++y) {
      const Point2D q{x, y};
      if (NeedsOracle(type, diagram.index(), q)) ++needs_oracle;
      if (diagram.index().OnBoundary(q)) ++on_line;
      const std::vector<PointId> expected = OracleSkyline(ds, type, q);
      EXPECT_EQ(diagram.QueryExact(q), expected) << "q = " << q;
      EXPECT_EQ(ExactAnswer(engine, q), expected) << "q = " << q;
      EXPECT_EQ(ExactAnswer(loaded->engine(), q), expected) << "q = " << q;
    }
  }
  EXPECT_GT(on_line, 0u);
  // QueryExact and ExactAnswer each asked the diagram's one engine.
  EXPECT_EQ(engine.Stats().oracle_fallbacks, 2 * needs_oracle);
  EXPECT_EQ(loaded->engine().Stats().oracle_fallbacks, needs_oracle);
  if (type == SkylineQueryType::kDynamic) {
    EXPECT_GT(needs_oracle, 0u);
  } else {
    EXPECT_EQ(needs_oracle, 0u);
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

// Positions that stress the half-open convention: domain corners, points
// outside the domain, every data point (on both of its grid lines), one step
// right of it (on its y line only) and one step below it, plus random fill
// that takes the batch past the engine's split threshold.
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
  while (queries.size() < QueryEngine::kParallelBatchThreshold + 300) {
    queries.push_back(
        {rng.NextInt(-2, domain + 2), rng.NextInt(-2, domain + 2)});
  }
  return queries;
}

class QueryEngineParallelBatchTest
    : public ::testing::TestWithParam<SkylineQueryType> {};

// A loaded blob whose batch splits across a four-thread pool: each batched
// answer is the set a single lookup on the same index returns, boundary
// positions included, with the members the fresh build answers.
TEST_P(QueryEngineParallelBatchTest, BoundaryProbesMatchSingleAnswers) {
  const SkylineQueryType type = GetParam();
  const Dataset ds =
      GeneratedDataset(80, 512, Distribution::kIndependent, 9);
  const SkylineDiagram built = BuildOrDie(ds, type);
  ThreadPool pool(4);
  const std::string name =
      std::string("parallel_batch_") + SkylineQueryTypeName(type) + ".skd";
  auto loaded = SaveAndLoad(built, TempBlobPath(name.c_str()));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const QueryEngine& engine = loaded->engine();

  const std::vector<Point2D> queries = BoundaryProbes(ds, 23);
  const std::vector<SetId> batch = engine.AnswerBatch(queries, &pool);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Point2D& q = queries[i];
    ASSERT_EQ(batch[i], loaded->index().LocateSet(q)) << "q = " << q;
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

class FarOutQueryTest : public ::testing::TestWithParam<SkylineQueryType> {};

std::vector<PointId> Ids(std::span<const PointId> span) {
  return std::vector<PointId>(span.begin(), span.end());
}

// Coordinates far outside the domain, as the wire parser accepts them: every
// entry point answers exactly as at the clamped position (ClampQuery), where
// no coordinate overflows once the index doubles it or the oracle
// quadruples it.
TEST_P(FarOutQueryTest, AnswersEqualTheClampedPositions) {
  const SkylineQueryType type = GetParam();
  constexpr int64_t kLow = std::numeric_limits<int64_t>::min();
  constexpr int64_t kHigh = std::numeric_limits<int64_t>::max();
  constexpr int64_t kFar[] = {kLow, -(int64_t{1} << 62), int64_t{1} << 62,
                              kHigh};
  const Dataset four =
      std::move(Dataset::Create({{1, 12}, {4, 3}, {9, 9}, {13, 1}}, 16))
          .value();
  for (const Dataset& ds : {four, RandomDataset(12, 16, 43)}) {
    const SkylineDiagram diagram = BuildOrDie(ds, type);
    const QueryEngine& engine = diagram.engine();
    const int64_t domain = ds.domain_size();
    std::vector<int64_t> coords(std::begin(kFar), std::end(kFar));
    for (const int64_t inside : {int64_t{0}, int64_t{3}, domain - 1}) {
      coords.push_back(inside);
    }
    std::vector<Point2D> queries;
    for (const int64_t x : coords) {
      for (const int64_t y : coords) {
        if ((x >= 0 && x < domain) && (y >= 0 && y < domain)) continue;
        queries.push_back({x, y});
      }
    }
    std::vector<Point2D> clamped;
    for (const Point2D& q : queries) {
      clamped.push_back(ClampQuery(q, domain));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      const Point2D& q = queries[i];
      const Point2D& c = clamped[i];
      EXPECT_EQ(Ids(diagram.Query(q)), Ids(diagram.Query(c))) << "q = " << q;
      EXPECT_EQ(diagram.QueryExact(q), diagram.QueryExact(c)) << "q = " << q;
      EXPECT_EQ(diagram.QueryExact(q), OracleSkyline(ds, type, c))
          << "q = " << q;
      EXPECT_EQ(ExactAnswer(engine, q), ExactAnswer(engine, c)) << "q = " << q;
      for (const SkylineQueryType other :
           {SkylineQueryType::kQuadrant, SkylineQueryType::kGlobal,
            SkylineQueryType::kDynamic}) {
        QueryOptions options;
        options.exact = true;
        options.semantics = other;
        EXPECT_EQ(engine.Answer(q, options).value(),
                  OracleSkyline(ds, other, c))
            << SkylineQueryTypeName(other) << " at q = " << q;
      }
    }
    EXPECT_EQ(engine.AnswerBatch(queries), engine.AnswerBatch(clamped));

    for (const int64_t lo : {kLow, -(int64_t{1} << 62), int64_t{3}}) {
      for (const int64_t hi : {int64_t{1} << 62, kHigh}) {
        const QueryRange range{lo, hi, lo, hi};
        const QueryRange within{std::clamp<int64_t>(lo, -1, domain),
                                std::clamp<int64_t>(hi, -1, domain),
                                std::clamp<int64_t>(lo, -1, domain),
                                std::clamp<int64_t>(hi, -1, domain)};
        const auto got = engine.AnswerRange(range);
        const auto want = engine.AnswerRange(within);
        ASSERT_TRUE(got.ok() && want.ok());
        EXPECT_EQ(got->union_ids, want->union_ids) << lo << ".." << hi;
        EXPECT_EQ(got->intersection_ids, want->intersection_ids)
            << lo << ".." << hi;
        EXPECT_EQ(got->distinct_results, want->distinct_results)
            << lo << ".." << hi;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSemantics, FarOutQueryTest,
                         ::testing::Values(SkylineQueryType::kQuadrant,
                                           SkylineQueryType::kGlobal,
                                           SkylineQueryType::kDynamic),
                         [](const auto& info) {
                           return std::string(
                               SkylineQueryTypeName(info.param));
                         });

TEST(SkylineDiagramLoadTest, LoadedBlobServesIdenticallyToFreshBuild) {
  struct Case {
    SkylineQueryType type;
    const char* file;
  };
  const Case cases[] = {
      {SkylineQueryType::kQuadrant, "loaded_quadrant.skd"},
      {SkylineQueryType::kGlobal, "loaded_global.skd"},
      {SkylineQueryType::kDynamic, "loaded_dynamic.skd"},
  };
  for (const Case& c : cases) {
    const Dataset ds =
        GeneratedDataset(28, 48, Distribution::kAnticorrelated, 31);
    const SkylineDiagram built = BuildOrDie(ds, c.type);
    // The loaded blob serves the semantics its table states: no caller
    // names them.
    auto loaded = SaveAndLoad(built, TempBlobPath(c.file));
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->type(), c.type);
    ASSERT_EQ(loaded->dataset().size(), ds.size());

    Rng rng(41);
    for (size_t i = 0; i < 200; ++i) {
      const Point2D q = RandomQueryPoint(rng, ds);
      const auto expected = built.QueryExact(q);
      const auto got = loaded->QueryExact(q);
      ASSERT_EQ(got, expected)
          << SkylineQueryTypeName(c.type) << " blob diverges at q = " << q;
    }
  }
}

TEST(SkylineDiagramLoadTest, MissingFileFailsWithStatus) {
  const auto loaded = SkylineDiagram::Load(TempBlobPath("does_not_exist.skd"));
  ASSERT_FALSE(loaded.ok());
}

// The whole file at `path`, or "" when it cannot be opened.
std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Save and Load are inverse on every semantics: a loaded blob, saved again,
// writes the bytes it was loaded from.
TEST(SkylineDiagramLoadTest, SavingALoadedBlobRewritesItsBytes) {
  for (const SkylineQueryType type :
       {SkylineQueryType::kQuadrant, SkylineQueryType::kGlobal,
        SkylineQueryType::kDynamic}) {
    SCOPED_TRACE(SkylineQueryTypeName(type));
    const Dataset ds = RandomDataset(24, 32, 47);  // tie-heavy
    const SkylineDiagram built = BuildOrDie(ds, type);
    const std::string name = SkylineQueryTypeName(type);
    const std::string first = TempBlobPath(("resave_a_" + name).c_str());
    const std::string second = TempBlobPath(("resave_b_" + name).c_str());
    ASSERT_TRUE(built.Save(first).ok());
    auto loaded = SkylineDiagram::Load(first);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->type(), type);
    ASSERT_TRUE(loaded->Save(second).ok());
    const std::string bytes = ReadFileBytes(first);
    EXPECT_FALSE(bytes.empty());
    EXPECT_TRUE(bytes == ReadFileBytes(second));
    std::remove(first.c_str());
    std::remove(second.c_str());
  }
}

}  // namespace
}  // namespace skydia
