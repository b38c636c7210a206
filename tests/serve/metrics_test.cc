// Tests for src/serve/metrics.h: the GuardedDecrement underflow guard (a
// double-closed connection must never wrap connections_open to 2^64-1), the
// cumulative Prometheus histogram derived from the engine's log2 latency
// buckets, and the skydia_build_info labeled gauge.
#include "src/serve/metrics.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "src/common/version.h"
#include "src/core/query_engine.h"
#include "tests/serve/serve_test_util.h"
#include "tests/testing/util.h"

namespace skydia::serve {
namespace {

TEST(GuardedDecrementTest, DecrementsUntilZeroThenRefuses) {
  std::atomic<uint64_t> gauge{2};
  EXPECT_TRUE(GuardedDecrement(&gauge));
  EXPECT_EQ(gauge.load(), 1u);
  EXPECT_TRUE(GuardedDecrement(&gauge));
  EXPECT_EQ(gauge.load(), 0u);
  // The double-close regression: a second decrement of an already-closed
  // connection is refused instead of wrapping to 2^64-1.
  EXPECT_FALSE(GuardedDecrement(&gauge));
  EXPECT_EQ(gauge.load(), 0u);
  EXPECT_FALSE(GuardedDecrement(&gauge));
  EXPECT_EQ(gauge.load(), 0u);
}

TEST(GuardedDecrementTest, NeverUnderflowsUnderConcurrentDoubleClose) {
  // 8 threads each try 1000 decrements against 500 opens: exactly 500 must
  // succeed, the rest must be refused, and the gauge must end at 0.
  std::atomic<uint64_t> gauge{500};
  std::atomic<uint64_t> succeeded{0};
  std::vector<std::thread> closers;
  closers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    closers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (GuardedDecrement(&gauge)) {
          succeeded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& closer : closers) closer.join();
  EXPECT_EQ(succeeded.load(), 500u);
  EXPECT_EQ(gauge.load(), 0u);
}

/// Parses every `name{labels} value` / `name value` sample line of a
/// Prometheus text exposition into name+labels -> value.
std::map<std::string, double> ParseSamples(const std::string& exposition) {
  std::map<std::string, double> samples;
  std::istringstream stream(exposition);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "unparsable sample line: " << line;
      continue;
    }
    samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return samples;
}

class MetricsRenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per process: each test runs as its own process, concurrently
    // with its siblings, and must not read a sibling's half-written blob.
    const std::string path = ::testing::TempDir() + "/metrics_fixture_" +
                             std::to_string(::getpid()) + ".skd";
    skydia::testing::SaveQuadrantFixture(256, 1 << 10, 99, path);
    QueryEngineOptions options;
    auto servable = ServableDiagram::Load(path, options);
    std::remove(path.c_str());
    ASSERT_TRUE(servable.ok()) << servable.status().ToString();
    snapshot_.diagram = std::make_shared<const ServableDiagram>(
        std::move(servable).value());
    snapshot_.cache = std::make_shared<ResultCache>();
    snapshot_.generation = 3;
    snapshot_.source_path = path;

    // Enough batched queries that the engine's 1-in-32 sampler records a
    // non-trivial latency histogram.
    std::vector<Point2D> queries;
    queries.reserve(2048);
    for (int i = 0; i < 2048; ++i) {
      queries.push_back(Point2D{i % 1024, (i * 7) % 1024});
    }
    std::vector<SetId> out;
    snapshot_.diagram->engine().AnswerBatch(queries, &out);
  }

  ServerMetrics metrics_;
  ServingSnapshot snapshot_;
};

TEST_F(MetricsRenderTest, HistogramIsCumulativeAndConsistent) {
  const QueryEngineStats stats = snapshot_.diagram->engine().Stats();
  ASSERT_GT(stats.latency_samples, 0u);

  const std::string exposition =
      RenderPrometheusMetrics(metrics_, &snapshot_, /*uptime_seconds=*/1.0);
  EXPECT_NE(exposition.find("# TYPE skydia_query_latency_ns histogram"),
            std::string::npos);

  const std::map<std::string, double> samples = ParseSamples(exposition);

  // _count and the +Inf bucket both equal the engine's sample count.
  const double count = samples.at("skydia_query_latency_ns_count");
  EXPECT_EQ(count, static_cast<double>(stats.latency_samples));
  EXPECT_EQ(samples.at("skydia_query_latency_ns_bucket{le=\"+Inf\"}"), count);
  EXPECT_GT(samples.at("skydia_query_latency_ns_sum"), 0.0);

  // Finite buckets are cumulative: non-decreasing in le order, bounded by
  // the +Inf bucket, with power-of-two upper bounds.
  double previous = 0.0;
  double last_finite = 0.0;
  int finite_buckets = 0;
  for (uint64_t le = 2; le != 0; le <<= 1) {
    const auto it = samples.find("skydia_query_latency_ns_bucket{le=\"" +
                                 std::to_string(le) + "\"}");
    if (it == samples.end()) continue;
    ++finite_buckets;
    EXPECT_GE(it->second, previous) << "le=" << le;
    previous = it->second;
    last_finite = it->second;
  }
  EXPECT_GT(finite_buckets, 0);
  // Trailing empty buckets collapse into +Inf, so the last finite bucket
  // already holds every sample.
  EXPECT_EQ(last_finite, count);
}

TEST_F(MetricsRenderTest, BuildInfoCarriesVersionGenerationAndDatasetShape) {
  const std::string exposition =
      RenderPrometheusMetrics(metrics_, &snapshot_, /*uptime_seconds=*/1.0);
  EXPECT_NE(exposition.find("# TYPE skydia_build_info gauge"),
            std::string::npos);
  const std::string expected_prefix =
      std::string("skydia_build_info{version=\"") + kVersion + "\"";
  EXPECT_NE(exposition.find(expected_prefix), std::string::npos);
  EXPECT_NE(exposition.find("generation=\"3\""), std::string::npos);
  EXPECT_NE(exposition.find("points=\"256\""), std::string::npos);
  // Info pattern: the gauge's value is the constant 1.
  const size_t at = exposition.find("skydia_build_info{");
  ASSERT_NE(at, std::string::npos);
  const size_t eol = exposition.find('\n', at);
  const std::string line = exposition.substr(at, eol - at);
  EXPECT_EQ(line.substr(line.size() - 2), " 1");
}

TEST_F(MetricsRenderTest, QueriesPerSecondAveragesOverUptime) {
  const std::map<std::string, double> samples = ParseSamples(
      RenderPrometheusMetrics(metrics_, &snapshot_, /*uptime_seconds=*/4.0));
  // The fixture's one batch of 2048 queries, averaged over four seconds.
  EXPECT_EQ(samples.at("skydia_queries_served_total"), 2048.0);
  EXPECT_EQ(samples.at("skydia_queries_per_second"), 512.0);
}

// Queries answered on the engine's pool threads reach the served-queries
// counter and the latency histogram that /metrics renders.
TEST(MetricsEngineTest, PoolThreadQueriesAreAllCounted) {
  const std::string path = ::testing::TempDir() + "/metrics_pool_" +
                           std::to_string(::getpid()) + ".skd";
  skydia::testing::SaveQuadrantFixture(256, 1 << 10, 98, path);
  QueryEngineOptions options;
  options.num_threads = 4;
  options.parallel_batch_threshold = 1;  // every batch fans out
  auto servable = ServableDiagram::Load(path, options);
  std::remove(path.c_str());
  ASSERT_TRUE(servable.ok()) << servable.status().ToString();
  ServingSnapshot snapshot;
  snapshot.diagram =
      std::make_shared<const ServableDiagram>(std::move(servable).value());
  snapshot.cache = std::make_shared<ResultCache>();
  snapshot.generation = 1;

  std::vector<Point2D> queries;
  for (int i = 0; i < 1000; ++i) {
    queries.push_back(Point2D{(i * 13) % 1024, (i * 29) % 1024});
  }
  std::vector<SetId> out;
  snapshot.diagram->engine().AnswerBatch(queries, &out);

  ServerMetrics metrics;
  const std::map<std::string, double> samples = ParseSamples(
      RenderPrometheusMetrics(metrics, &snapshot, /*uptime_seconds=*/1.0));
  EXPECT_EQ(samples.at("skydia_queries_served_total"), 1000.0);
  const double count = samples.at("skydia_query_latency_ns_count");
  EXPECT_EQ(count, static_cast<double>(
                       snapshot.diagram->engine().Stats().latency_samples));
  EXPECT_GE(count, 4.0);  // each of the four shards times its first query
}

TEST_F(MetricsRenderTest, NullSnapshotStillRendersServerCounters) {
  metrics_.connections_opened.store(5);
  const std::string exposition =
      RenderPrometheusMetrics(metrics_, nullptr, /*uptime_seconds=*/2.0);
  EXPECT_NE(exposition.find("skydia_connections_opened_total 5"),
            std::string::npos);
  // Snapshot-derived families must be absent, not rendered with garbage.
  EXPECT_EQ(exposition.find("skydia_build_info"), std::string::npos);
  EXPECT_EQ(exposition.find("skydia_query_latency_ns_bucket"),
            std::string::npos);
}

}  // namespace
}  // namespace skydia::serve
