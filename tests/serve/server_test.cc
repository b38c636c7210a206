#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/protocol.h"
#include "src/skyline/query.h"
#include "tests/serve/serve_test_util.h"

namespace skydia::serve {
namespace {

using skydia::testing::LineClient;
using skydia::testing::SaveQuadrantFixture;

std::string FixturePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Starts a server over a fresh fixture blob; fails the test on error.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(const char* blob_name, size_t n = 64, uint64_t seed = 1) {
    path_ = FixturePath(blob_name);
    dataset_ = SaveQuadrantFixture(n, 1024, seed, path_);
    ServerOptions options;
    options.port = 0;  // ephemeral
    server_ = std::make_unique<SkylineServer>(options);
    ASSERT_TRUE(server_->Start(path_).ok());
    ASSERT_TRUE(client_.Connect(server_->port()));
  }

  std::string path_;
  std::optional<Dataset> dataset_;
  std::unique_ptr<SkylineServer> server_;
  LineClient client_;
};

std::string ExpectedIds(const Dataset& dataset, const Point2D& q) {
  return RenderIdsArray(FirstQuadrantSkyline(dataset, q));
}

/// Strips the trailing `,"rid":"..."` every reply now carries so the oracle
/// comparisons stay byte-exact on the payload fields (the rid itself is
/// covered by debug_endpoints_test.cc).
std::string StripRid(std::string reply) {
  const size_t pos = reply.rfind(",\"rid\":\"");
  if (pos != std::string::npos && !reply.empty() && reply.back() == '}') {
    reply.erase(pos, reply.size() - pos - 1);
  }
  return reply;
}

TEST_F(ServerTest, AnswersQueryAgainstOracle) {
  StartServer("server_query.skd");
  for (const Point2D q : {Point2D{0, 0}, Point2D{17, 900}, Point2D{512, 512},
                          Point2D{1023, 1023}}) {
    ASSERT_TRUE(client_.SendLine("{\"q\":[" + std::to_string(q.x) + "," +
                                 std::to_string(q.y) + "]}"));
    const std::string reply = StripRid(client_.ReadLine());
    EXPECT_EQ(reply,
              "{\"gen\":1,\"ids\":" + ExpectedIds(*dataset_, q) + "}");
  }
}

TEST_F(ServerTest, EchoesCorrelationIdAndLabels) {
  StartServer("server_labels.skd");
  ASSERT_TRUE(client_.SendLine(R"({"q":[512,512],"id":99,"labels":true})"));
  const std::string reply = client_.ReadLine();
  EXPECT_EQ(reply.rfind("{\"id\":99,\"gen\":1,\"labels\":[", 0), 0u) << reply;
}

TEST_F(ServerTest, PipelinedBatchRepliesInOrder) {
  StartServer("server_pipeline.skd");
  std::string burst;
  constexpr int kDepth = 50;
  for (int i = 0; i < kDepth; ++i) {
    burst += "{\"id\":" + std::to_string(i) + ",\"q\":[" +
             std::to_string(i * 20) + "," + std::to_string(1000 - i * 20) +
             "]}\n";
  }
  ASSERT_TRUE(client_.Send(burst));
  for (int i = 0; i < kDepth; ++i) {
    const std::string reply = client_.ReadLine();
    const std::string prefix = "{\"id\":" + std::to_string(i) + ",";
    EXPECT_EQ(reply.rfind(prefix, 0), 0u) << reply;
    EXPECT_EQ(reply.find("\"error\""), std::string::npos) << reply;
  }
}

TEST_F(ServerTest, MalformedLineGetsErrorAndConnectionSurvives) {
  StartServer("server_malformed.skd");
  ASSERT_TRUE(client_.SendLine("this is not json"));
  const std::string error_reply = client_.ReadLine();
  EXPECT_EQ(error_reply.rfind("{\"error\":", 0), 0u) << error_reply;

  // The same connection must keep serving.
  ASSERT_TRUE(client_.SendLine(R"({"q":[512,512],"id":1})"));
  const std::string ok_reply = client_.ReadLine();
  EXPECT_EQ(ok_reply.rfind("{\"id\":1,\"gen\":1,\"ids\":", 0), 0u) << ok_reply;
  EXPECT_GE(server_->metrics().malformed_requests.load(), 1u);
}

TEST_F(ServerTest, SemanticsMismatchIsPerLineError) {
  StartServer("server_semantics.skd");
  // The blob serves quadrant semantics; asking for dynamic without exact
  // must error, with exact must answer via the oracle.
  ASSERT_TRUE(client_.SendLine(R"({"q":[512,512],"semantics":"dynamic"})"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"error\":", 0), 0u);

  ASSERT_TRUE(client_.SendLine(
      R"({"q":[512,512],"semantics":"dynamic","exact":true,"id":2})"));
  const std::string reply = client_.ReadLine();
  EXPECT_EQ(reply.rfind("{\"id\":2,\"gen\":1,\"ids\":", 0), 0u) << reply;
  EXPECT_EQ(reply.find("\"error\""), std::string::npos);
}

TEST_F(ServerTest, PingStatsAndReloadCommands) {
  StartServer("server_admin.skd");
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"ping","id":1})"));
  EXPECT_EQ(StripRid(client_.ReadLine()), "{\"id\":1,\"ok\":true,\"gen\":1}");

  ASSERT_TRUE(client_.SendLine(R"({"q":[512,512]})"));
  (void)client_.ReadLine();
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"stats","id":2})"));
  const std::string stats = client_.ReadLine();
  EXPECT_NE(stats.find("\"queries_served\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_misses\":"), std::string::npos) << stats;

  // Overwrite the blob and hot-swap through the admin command.
  SaveQuadrantFixture(96, 1024, /*seed=*/7, path_);
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"reload","id":3})"));
  EXPECT_EQ(StripRid(client_.ReadLine()), "{\"id\":3,\"ok\":true,\"gen\":2}");
  ASSERT_TRUE(client_.SendLine(R"({"q":[512,512],"id":4})"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":4,\"gen\":2,", 0), 0u);
  EXPECT_EQ(server_->registry().Current()->diagram->dataset().size(), 96u);
}

TEST_F(ServerTest, FailedReloadKeepsOldSnapshot) {
  StartServer("server_badreload.skd");
  ASSERT_TRUE(client_.SendLine(
      R"({"cmd":"reload","path":"/nonexistent/blob.skd","id":1})"));
  const std::string reply = client_.ReadLine();
  EXPECT_EQ(reply.rfind("{\"id\":1,\"error\":", 0), 0u) << reply;
  ASSERT_TRUE(client_.SendLine(R"({"q":[512,512],"id":2})"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":2,\"gen\":1,", 0), 0u);
  EXPECT_EQ(server_->metrics().reload_failures.load(), 1u);
}

TEST_F(ServerTest, RepeatedCellQueriesHitTheCache) {
  StartServer("server_cache.skd");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client_.SendLine(R"({"q":[512,512]})"));
    ASSERT_FALSE(client_.ReadLine().empty());
  }
  const ResultCacheStats stats =
      server_->registry().Current()->cache->Stats();
  EXPECT_GE(stats.hits, 7u);
  EXPECT_GE(stats.misses, 1u);
}

// The stats body is the pinned snapshot's engine and cache counters, nothing
// else: the engine locates every point query, cache hits included, and the
// cache counts one miss per distinct answer.
TEST_F(ServerTest, StatsCountEveryQueryIncludingCacheHits) {
  StartServer("server_stats_counts.skd");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client_.SendLine(R"({"q":[300,700]})"));
    ASSERT_FALSE(client_.ReadLine().empty());
  }
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"stats","id":5})"));
  const std::string stats = StripRid(client_.ReadLine());
  EXPECT_EQ(stats.rfind("{\"id\":5,\"gen\":1,\"stats\":{\"generation\":1,"
                        "\"points\":64,\"queries_served\":12,"
                        "\"oracle_fallbacks\":0,",
                        0),
            0u)
      << stats;
  EXPECT_NE(stats.find("\"cache_hits\":11,\"cache_misses\":1,"),
            std::string::npos)
      << stats;
  EXPECT_EQ(stats.find("shards"), std::string::npos) << stats;
  EXPECT_EQ(stats.find("memo"), std::string::npos) << stats;
}

TEST_F(ServerTest, OversizeLineClosesConnection) {
  ServerOptions options;
  options.port = 0;
  options.max_request_bytes = 256;
  path_ = FixturePath("server_oversize.skd");
  SaveQuadrantFixture(16, 1024, /*seed=*/1, path_);
  server_ = std::make_unique<SkylineServer>(options);
  ASSERT_TRUE(server_->Start(path_).ok());
  ASSERT_TRUE(client_.Connect(server_->port()));

  // A single unterminated line larger than the limit.
  std::string oversize(1024, 'x');
  ASSERT_TRUE(client_.Send(oversize));
  const std::string reply = client_.ReadLine();
  EXPECT_EQ(reply.rfind("{\"error\":", 0), 0u) << reply;
  // After the error the server closes: the next read returns "".
  EXPECT_EQ(client_.ReadLine(), "");
}

TEST_F(ServerTest, HttpMetricsAndHealthOnTheSamePort) {
  StartServer("server_http.skd");
  // Generate some traffic so the counters are nonzero.
  ASSERT_TRUE(client_.SendLine(R"({"q":[512,512]})"));
  ASSERT_FALSE(client_.ReadLine().empty());

  LineClient http;
  ASSERT_TRUE(http.Connect(server_->port()));
  ASSERT_TRUE(http.Send("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string metrics = http.ReadAll();
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("skydia_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("skydia_snapshot_generation 1"), std::string::npos);
  EXPECT_NE(metrics.find("skydia_cache_hit_ratio"), std::string::npos);
  EXPECT_NE(metrics.find("skydia_query_latency_p99_ns"), std::string::npos);

  LineClient health;
  ASSERT_TRUE(health.Connect(server_->port()));
  ASSERT_TRUE(health.Send("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_NE(health.ReadAll().find("ok"), std::string::npos);
}

TEST_F(ServerTest, StopIsIdempotentAndDrains) {
  StartServer("server_stop.skd");
  ASSERT_TRUE(client_.SendLine(R"({"q":[1,2]})"));
  ASSERT_FALSE(client_.ReadLine().empty());
  server_->Stop();
  server_->Stop();  // second call is a no-op
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(server_->metrics().connections_open.load(), 0u);
}

TEST_F(ServerTest, PartialReadsSplitMidLineStillAnswer) {
  StartServer("server_partial.skd");
  // One request delivered in four fragments, split inside the JSON and
  // inside a number; the reactor must buffer across reads.
  const Point2D q{17, 900};
  ASSERT_TRUE(client_.Send("{\"q\":[1"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client_.Send("7,90"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client_.Send("0],\"id\""));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client_.Send(":7}\n"));
  const std::string reply = StripRid(client_.ReadLine());
  EXPECT_EQ(reply, "{\"id\":7,\"gen\":1,\"ids\":" + ExpectedIds(*dataset_, q) +
                       "}");

  // A fragment arriving together with a complete line: the complete line is
  // answered, the fragment waits.
  ASSERT_TRUE(client_.Send("{\"id\":8,\"q\":[0,0]}\n{\"id\":9,\"q\":[1,"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":8,", 0), 0u);
  ASSERT_TRUE(client_.Send("1]}\n"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":9,", 0), 0u);
}

TEST_F(ServerTest, HalfClosedPeerStillGetsAllReplies) {
  StartServer("server_halfclose.skd");
  // Pipeline a burst, then FIN our write side before reading anything. The
  // server must answer everything already sent, flush, and only then close.
  std::string burst;
  constexpr int kDepth = 200;
  for (int i = 0; i < kDepth; ++i) {
    burst += "{\"id\":" + std::to_string(i) + ",\"q\":[" +
             std::to_string(i * 5) + "," + std::to_string(i * 5) + "]}\n";
  }
  ASSERT_TRUE(client_.Send(burst));
  ASSERT_EQ(::shutdown(client_.fd(), SHUT_WR), 0);
  for (int i = 0; i < kDepth; ++i) {
    const std::string reply = client_.ReadLine();
    EXPECT_EQ(reply.rfind("{\"id\":" + std::to_string(i) + ",", 0), 0u)
        << "at " << i << ": " << reply;
  }
  // After the tail is flushed the server closes its side: EOF, not a hang.
  EXPECT_EQ(client_.ReadLine(), "");
}

TEST_F(ServerTest, SlowClientHitsWriteBackpressureCap) {
  ServerOptions options;
  options.port = 0;
  options.max_response_bytes = 32 * 1024;  // tiny cap for the test
  options.idle_timeout_ms = 0;             // isolate the backpressure path
  path_ = FixturePath("server_backpressure.skd");
  SaveQuadrantFixture(64, 1024, /*seed=*/1, path_);
  server_ = std::make_unique<SkylineServer>(options);
  ASSERT_TRUE(server_->Start(path_).ok());

  // A client that shrinks its receive window and never reads: replies pile
  // up in the server's output buffer until the cap drops the connection.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval tv{0, 200 * 1000};  // bounded sends so the test can't hang
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const std::string line = "{\"q\":[512,512]}\n";
  std::string chunk;
  for (int i = 0; i < 1024; ++i) chunk += line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->metrics().backpressure_disconnects.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    // Sends fail once the server drops us or our own buffer jams; both are
    // fine — keep polling the metric until the drop is observed.
    (void)::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->metrics().backpressure_disconnects.load(), 1u);
  ::close(fd);
}

TEST_F(ServerTest, IdleConnectionsAreClosedByTheWheel) {
  ServerOptions options;
  options.port = 0;
  options.idle_timeout_ms = 100;
  path_ = FixturePath("server_idle.skd");
  SaveQuadrantFixture(16, 1024, /*seed=*/1, path_);
  server_ = std::make_unique<SkylineServer>(options);
  ASSERT_TRUE(server_->Start(path_).ok());
  ASSERT_TRUE(client_.Connect(server_->port()));
  // A silent connection must be closed within a few timeout periods (the
  // wheel is coarse, not exact).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->metrics().idle_disconnects.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->metrics().idle_disconnects.load(), 1u);
  EXPECT_EQ(client_.ReadLine(), "");  // we were the one closed
}

TEST_F(ServerTest, ActiveConnectionSurvivesTheIdleWheel) {
  ServerOptions options;
  options.port = 0;
  // Generous timeout-to-cadence ratio: sanitizer builds on a loaded
  // one-core host can stall a 30ms sleep past a tight idle window.
  options.idle_timeout_ms = 300;
  path_ = FixturePath("server_active.skd");
  SaveQuadrantFixture(16, 1024, /*seed=*/1, path_);
  server_ = std::make_unique<SkylineServer>(options);
  ASSERT_TRUE(server_->Start(path_).ok());
  ASSERT_TRUE(client_.Connect(server_->port()));
  // Query steadily for several timeout periods; the touches must keep the
  // connection enrolled ahead of the hand.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(900);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_TRUE(client_.SendLine(R"({"q":[3,4]})"));
    ASSERT_FALSE(client_.ReadLine().empty());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  ASSERT_TRUE(client_.SendLine(R"({"q":[5,6],"id":1})"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":1,", 0), 0u);
}

TEST_F(ServerTest, TwoWorkerServerAnswersIdenticallyToTheOracle) {
  ServerOptions options;
  options.port = 0;
  options.num_workers = 2;
  path_ = FixturePath("server_two_workers.skd");
  dataset_ = SaveQuadrantFixture(128, 1024, /*seed=*/21, path_);
  server_ = std::make_unique<SkylineServer>(options);
  ASSERT_TRUE(server_->Start(path_).ok());
  ASSERT_TRUE(client_.Connect(server_->port()));

  std::string burst;
  constexpr int kDepth = 64;
  for (int i = 0; i < kDepth; ++i) {
    burst += "{\"id\":" + std::to_string(i) + ",\"q\":[" +
             std::to_string((i * 37) % 1024) + "," +
             std::to_string((i * 61) % 1024) + "]}\n";
  }
  ASSERT_TRUE(client_.Send(burst));
  for (int i = 0; i < kDepth; ++i) {
    const Point2D q{(i * 37) % 1024, (i * 61) % 1024};
    EXPECT_EQ(StripRid(client_.ReadLine()),
              "{\"id\":" + std::to_string(i) + ",\"gen\":1,\"ids\":" +
                  ExpectedIds(*dataset_, q) + "}");
  }

  // /metrics reports every served query and at least one latency sample.
  LineClient http;
  ASSERT_TRUE(http.Connect(server_->port()));
  ASSERT_TRUE(http.Send("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string metrics = http.ReadAll();
  EXPECT_NE(metrics.find("\nskydia_queries_served_total 64\n"),
            std::string::npos)
      << metrics;
  const std::string count_prefix = "\nskydia_query_latency_ns_count ";
  const size_t count_at = metrics.find(count_prefix);
  ASSERT_NE(count_at, std::string::npos) << metrics;
  EXPECT_GE(std::stoull(metrics.substr(count_at + count_prefix.size())), 1u);

  // Hot swap: the new generation serves immediately.
  SaveQuadrantFixture(96, 1024, /*seed=*/22, path_);
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"reload","id":100})"));
  EXPECT_EQ(StripRid(client_.ReadLine()),
            "{\"id\":100,\"ok\":true,\"gen\":2}");
  ASSERT_TRUE(client_.SendLine(R"({"q":[512,512],"id":101})"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":101,\"gen\":2,", 0), 0u);
  EXPECT_EQ(server_->registry().Current()->diagram->dataset().size(), 96u);
}

TEST_F(ServerTest, RangeCommandMatchesBruteForce) {
  StartServer("server_range.skd", /*n=*/48, /*seed=*/33);
  const QueryRange range{100, 180, 40, 90};
  // Brute-force union/intersection/distinct over every integer position.
  std::set<PointId> uni;
  std::set<PointId> inter;
  std::set<std::vector<PointId>> distinct;
  bool first = true;
  for (int64_t x = range.x_lo; x <= range.x_hi; ++x) {
    for (int64_t y = range.y_lo; y <= range.y_hi; ++y) {
      const auto sky = FirstQuadrantSkyline(*dataset_, {x, y});
      distinct.insert(sky);
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
  const std::string expected =
      "{\"id\":9,\"gen\":1,\"union\":" +
      RenderIdsArray(std::vector<PointId>(uni.begin(), uni.end())) +
      ",\"intersection\":" +
      RenderIdsArray(std::vector<PointId>(inter.begin(), inter.end())) +
      ",\"distinct\":" + std::to_string(distinct.size()) + "}";
  ASSERT_TRUE(client_.SendLine(
      R"({"cmd":"range","x":[100,180],"y":[40,90],"id":9})"));
  EXPECT_EQ(StripRid(client_.ReadLine()), expected);

  // An inverted range is a per-line error; the connection survives.
  ASSERT_TRUE(client_.SendLine(
      R"({"cmd":"range","x":[5,4],"y":[0,1],"id":10})"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":10,\"error\":", 0), 0u);
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"ping","id":11})"));
  EXPECT_EQ(StripRid(client_.ReadLine()),
            "{\"id\":11,\"ok\":true,\"gen\":1}");
}

TEST_F(ServerTest, InsertDeleteFlushOverTheWire) {
  StartServer("server_mutate.skd", /*n=*/32, /*seed=*/41);
  // Synchronous publish (default window 0): the ack's gen is exact and the
  // next query serves the mutated dataset.
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"insert","x":3,"y":2,"id":1})"));
  EXPECT_EQ(StripRid(client_.ReadLine()),
            "{\"id\":1,\"ok\":true,\"gen\":2,\"point\":32}");

  std::vector<Point2D> points = dataset_->points();
  points.push_back({3, 2});
  auto mutated = Dataset::Create(points, 1024);
  ASSERT_TRUE(mutated.ok());
  ASSERT_TRUE(client_.SendLine(R"({"q":[0,0],"id":2})"));
  EXPECT_EQ(StripRid(client_.ReadLine()),
            "{\"id\":2,\"gen\":2,\"ids\":" + ExpectedIds(*mutated, {0, 0}) +
                "}");

  // Delete the point we just inserted; ids above it are unaffected.
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"delete","point":32,"id":3})"));
  EXPECT_EQ(StripRid(client_.ReadLine()), "{\"id\":3,\"ok\":true,\"gen\":3}");
  ASSERT_TRUE(client_.SendLine(R"({"q":[0,0],"id":4})"));
  EXPECT_EQ(StripRid(client_.ReadLine()),
            "{\"id\":4,\"gen\":3,\"ids\":" + ExpectedIds(*dataset_, {0, 0}) +
                "}");

  // Error codes ride the reply: unknown point, then a clean parse error.
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"delete","point":99,"id":5})"));
  const std::string unknown = client_.ReadLine();
  EXPECT_EQ(unknown.rfind("{\"id\":5,\"error\":", 0), 0u) << unknown;
  EXPECT_NE(unknown.find("\"code\":\"unknown_point\""), std::string::npos)
      << unknown;
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"insert","x":[1,2],"y":3,"id":6})"));
  const std::string bad = client_.ReadLine();
  EXPECT_NE(bad.find("\"code\":\"parse_error\""), std::string::npos) << bad;

  // A flush with nothing pending acks at the current generation.
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"flush","id":7})"));
  EXPECT_EQ(StripRid(client_.ReadLine()), "{\"id\":7,\"ok\":true,\"gen\":3}");
  EXPECT_EQ(server_->metrics().mutation_inserts.load(), 1u);
  EXPECT_EQ(server_->metrics().mutation_deletes.load(), 1u);
  EXPECT_GE(server_->metrics().mutation_failures.load(), 1u);
}

TEST_F(ServerTest, MutationWindowCoalescesAndFlushPublishes) {
  ServerOptions options;
  options.port = 0;
  options.mutation_window_ms = 60'000;  // publish only on explicit flush
  path_ = FixturePath("server_window.skd");
  dataset_ = SaveQuadrantFixture(32, 1024, /*seed=*/42, path_);
  server_ = std::make_unique<SkylineServer>(options);
  ASSERT_TRUE(server_->Start(path_).ok());
  ASSERT_TRUE(client_.Connect(server_->port()));

  // Three deferred inserts: acks carry the lower-bound gen 2, reads keep
  // serving generation 1 until the flush.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client_.SendLine("{\"cmd\":\"insert\",\"x\":" +
                                 std::to_string(200 + i) + ",\"y\":" +
                                 std::to_string(210 + i) +
                                 ",\"id\":" + std::to_string(i) + "}"));
    EXPECT_EQ(StripRid(client_.ReadLine()),
              "{\"id\":" + std::to_string(i) +
                  ",\"ok\":true,\"gen\":2,\"point\":" +
                  std::to_string(32 + i) + "}");
  }
  ASSERT_TRUE(client_.SendLine(R"({"q":[0,0],"id":10})"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":10,\"gen\":1,", 0), 0u);
  EXPECT_EQ(server_->mutations()->pending(), 3u);

  ASSERT_TRUE(client_.SendLine(R"({"cmd":"flush","id":11})"));
  EXPECT_EQ(StripRid(client_.ReadLine()),
            "{\"id\":11,\"ok\":true,\"gen\":2}");
  EXPECT_EQ(server_->registry().Current()->diagram->dataset().size(), 35u);
  ASSERT_TRUE(client_.SendLine(R"({"q":[0,0],"id":12})"));
  EXPECT_EQ(client_.ReadLine().rfind("{\"id\":12,\"gen\":2,", 0), 0u);
  EXPECT_EQ(server_->metrics().mutation_last_publish_mutations.load(), 3u);

  // The mutation series lands on the Prometheus scrape.
  LineClient http;
  ASSERT_TRUE(http.Connect(server_->port()));
  ASSERT_TRUE(http.Send("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
  const std::string metrics = http.ReadAll();
  EXPECT_NE(metrics.find("skydia_mutation_inserts_total 3"),
            std::string::npos);
  EXPECT_NE(metrics.find("skydia_mutation_publishes_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("skydia_mutation_points_live 35"),
            std::string::npos);
}

TEST_F(ServerTest, ReloadDiscardsUnpublishedMutations) {
  ServerOptions options;
  options.port = 0;
  options.mutation_window_ms = 60'000;
  path_ = FixturePath("server_mutate_reload.skd");
  dataset_ = SaveQuadrantFixture(32, 1024, /*seed=*/43, path_);
  server_ = std::make_unique<SkylineServer>(options);
  ASSERT_TRUE(server_->Start(path_).ok());
  ASSERT_TRUE(client_.Connect(server_->port()));

  ASSERT_TRUE(client_.SendLine(R"({"cmd":"insert","x":7,"y":9,"id":1})"));
  ASSERT_FALSE(client_.ReadLine().empty());
  ASSERT_EQ(server_->mutations()->pending(), 1u);

  // A successful reload supersedes the shadow; the pending insert is gone.
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"reload","id":2})"));
  EXPECT_EQ(StripRid(client_.ReadLine()), "{\"id\":2,\"ok\":true,\"gen\":2}");
  EXPECT_EQ(server_->mutations()->pending(), 0u);
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"flush","id":3})"));
  EXPECT_EQ(StripRid(client_.ReadLine()), "{\"id\":3,\"ok\":true,\"gen\":2}");
  EXPECT_EQ(server_->registry().Current()->diagram->dataset().size(), 32u);
}

TEST(ServerStartTest, MissingBlobFailsCleanly) {
  SkylineServer server;
  const Status s = server.Start("/nonexistent/diagram.skd");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace skydia::serve
