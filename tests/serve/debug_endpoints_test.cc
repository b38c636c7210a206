// End-to-end tests for the request-scoped observability surface: rid
// stamping on replies, request-context propagation across the reactor, the
// worker pool and the query engine's pool threads, the liveness/readiness
// split, and the /debug/{trace,connections,snapshot} endpoints.
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/trace.h"
#include "src/serve/server.h"
#include "tests/serve/serve_test_util.h"

namespace skydia::serve {
namespace {

using skydia::testing::LineClient;
using skydia::testing::SaveQuadrantFixture;

/// Arms the flight recorder with record-every-span sampling for the test
/// and restores the all-off default (plus clean rings) on exit.
class ScopedRecorder {
 public:
  ScopedRecorder() {
    trace::Reset();
    trace::RecorderOptions options;
    options.sample_period = 1;
    trace::EnableFlightRecorder(options);
  }
  ~ScopedRecorder() {
    trace::DisableFlightRecorder();
    trace::Reset();
  }
};

class DebugEndpointsTest : public ::testing::Test {
 protected:
  void StartServer(const char* blob_name, ServerOptions options = {}) {
    const std::string path = ::testing::TempDir() + "/" + blob_name;
    SaveQuadrantFixture(64, 1024, /*seed=*/1, path);
    options.port = 0;
    server_ = std::make_unique<SkylineServer>(options);
    ASSERT_TRUE(server_->Start(path).ok());
    ASSERT_TRUE(client_.Connect(server_->port()));
  }

  std::string Http(const std::string& target) {
    LineClient http;
    if (!http.Connect(server_->port())) return "";
    if (!http.Send("GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n")) {
      return "";
    }
    return http.ReadAll();
  }

  std::unique_ptr<SkylineServer> server_;
  LineClient client_;
};

TEST_F(DebugEndpointsTest, ClientRidStampsReplyAndSpansAcrossThreads) {
  ScopedRecorder recorder;
  ServerOptions options;
  options.inline_batch_lines = 0;  // force the worker-pool path
  options.num_workers = 2;
  options.engine.num_threads = 2;
  options.engine.parallel_batch_threshold = 1;  // even one query fans out
  StartServer("debug_rid.skd", options);

  ASSERT_TRUE(
      client_.SendLine(R"({"q":[512,512],"id":1,"rid":"X-req-1"})"));
  const std::string reply = client_.ReadLine();
  // The rid is stamped as the last field of the reply.
  ASSERT_GE(reply.size(), 2u);
  EXPECT_EQ(reply.substr(reply.size() - std::string(
                ",\"rid\":\"X-req-1\"}").size()),
            ",\"rid\":\"X-req-1\"}")
      << reply;

  // Spans from this one request share the rid across the reactor thread
  // (serve.dispatch), a worker thread (serve.batch), and an engine pool
  // thread (query.shard). Tokens are resolved back to strings because
  // interning is not idempotent.
  struct Seen {
    uint32_t tid = 0;
    bool found = false;
  };
  Seen dispatch;
  Seen batch;
  Seen shard;
  for (int attempt = 0; attempt < 50; ++attempt) {
    dispatch = batch = shard = Seen{};
    const trace::TraceSnapshot snapshot = trace::CollectRecent();
    for (const trace::ThreadTrack& track : snapshot.threads) {
      for (const trace::TraceEvent& event : track.events) {
        if (event.ctx == 0 ||
            trace::RequestIdForToken(event.ctx) != "X-req-1") {
          continue;
        }
        const std::string name = event.name;
        if (name == "serve.dispatch") dispatch = {track.tid, true};
        if (name == "serve.batch") batch = {track.tid, true};
        if (name == "query.shard") shard = {track.tid, true};
      }
    }
    if (dispatch.found && batch.found && shard.found) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(dispatch.found) << "no serve.dispatch span with the rid";
  EXPECT_TRUE(batch.found) << "no serve.batch span with the rid";
  EXPECT_TRUE(shard.found) << "no query.shard span with the rid";
  // The reactor, the worker and the engine pool are genuinely different
  // threads.
  EXPECT_NE(dispatch.tid, batch.tid);
  EXPECT_NE(shard.tid, batch.tid);

  // The same window is exported over HTTP as Perfetto JSON with rid args.
  const std::string traced = Http("/debug/trace");
  EXPECT_NE(traced.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(traced.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(traced.find("\"args\":{\"rid\":\"X-req-1\"}"),
            std::string::npos);
}

TEST_F(DebugEndpointsTest, MissingOrInvalidRidGetsServerGeneratedId) {
  StartServer("debug_server_rid.skd");
  ASSERT_TRUE(client_.SendLine(R"({"q":[1,2],"id":1})"));
  const std::string reply = client_.ReadLine();
  EXPECT_NE(reply.find(",\"rid\":\"s"), std::string::npos) << reply;

  // A rid over the 64-byte cap is rejected at parse time; the reply still
  // carries a server-generated id rather than echoing the oversize one.
  const std::string long_rid(65, 'r');
  ASSERT_TRUE(client_.SendLine("{\"q\":[1,2],\"id\":2,\"rid\":\"" +
                               long_rid + "\"}"));
  const std::string rejected = client_.ReadLine();
  EXPECT_EQ(rejected.find(long_rid), std::string::npos) << rejected;
  EXPECT_NE(rejected.find(",\"rid\":\"s"), std::string::npos) << rejected;
}

TEST_F(DebugEndpointsTest, MultiLineBatchSuffixesTheSharedRid) {
  ServerOptions options;
  options.inline_batch_lines = 0;
  StartServer("debug_batch_rid.skd", options);
  // Two lines delivered as one batch: a line's own rid is echoed verbatim,
  // and a rid-less line borrows the batch id with a ".<index>" suffix so
  // every reply of a pipelined batch stays individually addressable.
  ASSERT_TRUE(client_.Send(
      "{\"q\":[1,2],\"id\":0,\"rid\":\"B7\"}\n{\"q\":[3,4],\"id\":1}\n"));
  const std::string first = client_.ReadLine();
  const std::string second = client_.ReadLine();
  EXPECT_NE(first.find(",\"rid\":\"B7\"}"), std::string::npos) << first;
  EXPECT_NE(second.find(",\"rid\":\"B7.1\"}"), std::string::npos) << second;
}

TEST_F(DebugEndpointsTest, ErrorRepliesCarryTheRid) {
  StartServer("debug_error_rid.skd");
  ASSERT_TRUE(client_.SendLine(R"({"nonsense":true,"rid":"bad-1"})"));
  const std::string reply = client_.ReadLine();
  EXPECT_EQ(reply.rfind("{\"error\":", 0), 0u) << reply;
  EXPECT_NE(reply.find("\"rid\":\"bad-1\""), std::string::npos) << reply;
}

TEST_F(DebugEndpointsTest, HealthzIsLivenessAndReadyzReportsServingState) {
  StartServer("debug_health.skd");
  const std::string health = Http("/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string ready = Http("/readyz");
  EXPECT_NE(ready.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ready.find("\"generation\":1"), std::string::npos) << ready;
  EXPECT_NE(ready.find("\"points\":64"), std::string::npos) << ready;
  EXPECT_NE(ready.find("\"mutation_pending\":0"), std::string::npos);
}

TEST_F(DebugEndpointsTest, UnknownEndpointListsTheDebugSurface) {
  StartServer("debug_404.skd");
  const std::string reply = Http("/debug/nope");
  EXPECT_NE(reply.find("HTTP/1.1 404 Not Found"), std::string::npos);
  EXPECT_NE(reply.find("/debug/trace"), std::string::npos);
  EXPECT_NE(reply.find("/debug/connections"), std::string::npos);
}

TEST_F(DebugEndpointsTest, DebugConnectionsRendersReactorState) {
  StartServer("debug_conns.skd");
  // Keep one line connection open with an in-flight rid-less query first so
  // the listing has at least the idle line client plus the HTTP probe.
  ASSERT_TRUE(client_.SendLine(R"({"q":[1,2],"id":1})"));
  ASSERT_FALSE(client_.ReadLine().empty());
  const std::string reply = Http("/debug/connections");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("\"connections\":["), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"inbuf_bytes\":"), std::string::npos);
  EXPECT_NE(reply.find("\"outbuf_bytes\":"), std::string::npos);
  EXPECT_NE(reply.find("\"idle_ms\":"), std::string::npos);
  // The line client and the HTTP probe itself are both listed.
  EXPECT_NE(reply.find("\"open\":2"), std::string::npos) << reply;
}

TEST_F(DebugEndpointsTest, DebugSnapshotLinksMutationStateAndExemplars) {
  ScopedRecorder recorder;
  ServerOptions options;
  options.mutation_window_ms = 60'000;  // acks now, publish deferred
  StartServer("debug_snapshot.skd", options);

  ASSERT_TRUE(client_.SendLine(
      R"({"cmd":"insert","x":3,"y":2,"id":1,"rid":"mut-1"})"));
  const std::string ack = client_.ReadLine();
  EXPECT_NE(ack.find("\"rid\":\"mut-1\""), std::string::npos) << ack;

  const std::string reply = Http("/debug/snapshot");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("\"generation\":1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"recorder_active\":true"), std::string::npos);
  EXPECT_NE(reply.find("\"mutation\":{\"pending\":1"), std::string::npos)
      << reply;
  // The deferred window remembers which request opened it.
  EXPECT_NE(reply.find("\"pending_rid\":\"mut-1\""), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"window_ms\":60000"), std::string::npos);
  // The insert and the queries above landed duration exemplars carrying
  // their rids.
  EXPECT_NE(reply.find("\"request_duration_exemplars\":[{"),
            std::string::npos)
      << reply;
  EXPECT_NE(reply.find("\"le_ns\":"), std::string::npos);
  EXPECT_NE(reply.find("\"duration_ns\":"), std::string::npos);
}

TEST_F(DebugEndpointsTest, MutationPublishCarriesThePendingRid) {
  ScopedRecorder recorder;
  ServerOptions options;
  options.mutation_window_ms = 60'000;
  StartServer("debug_publish_rid.skd", options);

  ASSERT_TRUE(client_.SendLine(
      R"({"cmd":"insert","x":5,"y":6,"id":1,"rid":"pub-1"})"));
  ASSERT_FALSE(client_.ReadLine().empty());
  // Flush publishes the coalesced window synchronously; the publish span
  // must carry the rid of the request that opened the window, not the
  // flusher's.
  ASSERT_TRUE(client_.SendLine(R"({"cmd":"flush","id":2,"rid":"flusher"})"));
  ASSERT_FALSE(client_.ReadLine().empty());

  bool publish_with_rid = false;
  for (int attempt = 0; attempt < 50 && !publish_with_rid; ++attempt) {
    const trace::TraceSnapshot snapshot = trace::CollectRecent();
    for (const trace::ThreadTrack& track : snapshot.threads) {
      for (const trace::TraceEvent& event : track.events) {
        if (event.ctx != 0 && std::string(event.name) == "mutation.publish" &&
            trace::RequestIdForToken(event.ctx) == "pub-1") {
          publish_with_rid = true;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(publish_with_rid)
      << "no mutation.publish span carrying the window-opening rid";
}

}  // namespace
}  // namespace skydia::serve
