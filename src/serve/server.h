// SkylineServer: the `skydia serve` daemon.
//
// A long-running TCP server answering line-delimited JSON skyline queries
// (src/serve/protocol.h) over a hot-swappable snapshot (snapshot_registry.h)
// with a per-snapshot reply cache (result_cache.h) and a Prometheus
// /metrics endpoint (metrics.h).
//
// Threading model: an epoll reactor. One event-loop thread owns every
// connection state machine — non-blocking accept/read/write, per-connection
// input and output buffers, and a coarse timing wheel for the idle timeout —
// while a small worker pool executes parsed request batches off the event
// thread. Concurrency is bounded by max_connections, not by OS threads.
//
// Event-loop invariants (the TSan contract):
//   * Connection objects are created, mutated and destroyed only on the
//     event-loop thread. Workers never see a Connection.
//   * Small pure-query batches execute inline on the event-loop thread —
//     the fast path that amortizes scheduler wakeups across connections.
//     HTTP requests, reloads, range scans and oversized batches cross to
//     the pool as a self-contained job (connection id + moved-out request
//     bytes) and return as a completion (connection id + rendered reply)
//     through a mutex-guarded queue; an eventfd (write-coalesced via an
//     atomic flag) wakes the loop. Stale completions for closed
//     connections are dropped by id.
//   * At most one batch per connection is in flight, and the connection's
//     read interest is parked while it is — replies stay in request order
//     and the input buffer stays bounded without any per-connection locks.
//   * Replies append to the connection's output buffer and drain via
//     EPOLLOUT; a peer that stops reading hits the max_response_bytes cap
//     and is dropped (write backpressure), so one slow client cannot pin
//     server memory.
//
// Batches answer against one pinned snapshot (so a pipelined batch is
// answered consistently even across a concurrent reload), in order. A
// request starting with "GET " is treated as HTTP and the connection closes
// after one response — the same port works for both nc and curl:
//   /metrics            Prometheus text exposition
//   /healthz            liveness: 200 "ok" while the process serves
//   /readyz             readiness: a JSON summary (generation, points, the
//                       semantics served, backlog); Start() installs the
//                       first snapshot before any request is read
//   /debug/trace        the flight recorder's recent window as Chrome
//                       trace-event JSON (ui.perfetto.dev)
//   /debug/snapshot     registry + mutation-pipeline introspection JSON,
//                       including request-duration bucket exemplars
//   /debug/connections  per-connection state JSON (rendered inline on the
//                       event-loop thread, which owns the state machines)
//
// Request identity: every batch runs under a request-context token — the
// first client-supplied "rid" in the batch, else a server-generated one —
// so trace spans from the reactor dispatch, the worker, and the engine's
// query spans share one id (src/common/trace.h). Replies, error replies and
// the slow-query log are stamped with the resolved rid.
//
// Robustness contract: a malformed line produces one error reply and the
// connection stays open; a line longer than max_request_bytes produces one
// error reply and closes the connection; partial reads, half-closed peers
// (FIN with replies pending — the tail is flushed), client disconnects and
// SIGPIPE-free sends are handled; nothing a client sends can abort the
// process.
#ifndef SKYDIA_SRC_SERVE_SERVER_H_
#define SKYDIA_SRC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/core/query_engine.h"
#include "src/serve/metrics.h"
#include "src/serve/mutation_pipeline.h"
#include "src/serve/result_cache.h"
#include "src/serve/snapshot_registry.h"

namespace skydia::serve {

/// Options for SkylineServer.
struct ServerOptions {
  /// Listen address. The default stays loopback-only; the daemon has no
  /// authentication story, so exposing it wider is an explicit choice.
  std::string host = "127.0.0.1";
  /// Listen port in [0, 65535]; 0 picks a free port (read it back via
  /// port()).
  int port = 0;
  /// Per-snapshot reply cache sizing, given to the snapshot registry, which
  /// applies it to every install and reload. (What a snapshot serves needs
  /// no option: each diagram's table states its semantics.)
  ResultCacheOptions cache;
  /// Worker threads executing parsed batches off the event loop (>= 1).
  int num_workers = 1;
  /// A single request line (and a pipelined burst's buffer) may not exceed
  /// this many bytes; beyond it the connection is closed after one error.
  size_t max_request_bytes = 64 * 1024;
  /// Write-backpressure cap: a connection whose un-drained output buffer
  /// exceeds this many bytes is dropped.
  size_t max_response_bytes = 4 * 1024 * 1024;
  /// Connections silent for this long are closed (granularity is coarse:
  /// the timing wheel rounds up by up to 1/8 of the timeout).
  /// <= 0 disables the timeout.
  int idle_timeout_ms = 60'000;
  /// Accepted connections above this cap are closed immediately.
  int max_connections = 256;
  /// Queries (and pipelined batches) slower than this are logged at Warning
  /// with their position and timing — the structured slow-query log.
  /// <= 0 disables it.
  int slow_query_ms = 250;
  /// Mutation publish coalescing window in milliseconds. <= 0 publishes
  /// every mutation synchronously before its ack; > 0 batches all mutations
  /// of a window into one snapshot publish ({"cmd":"flush"} publishes
  /// early). See mutation_pipeline.h.
  int mutation_window_ms = 0;
  /// Mutations allowed to wait for one publish before further mutation
  /// requests are rejected with the "overloaded" error code. 0 = no cap.
  size_t mutation_max_pending = 4096;
};

/// The serve daemon. Start() binds, loads the initial snapshot and returns;
/// serving happens on background threads until Stop() (also run by the
/// destructor) drains them.
class SkylineServer {
 public:
  explicit SkylineServer(const ServerOptions& options = {});
  ~SkylineServer();

  SkylineServer(const SkylineServer&) = delete;
  SkylineServer& operator=(const SkylineServer&) = delete;

  /// Loads `blob_path` as the initial snapshot (through the registry, like
  /// a reload), creates the write path, binds and starts the reactor and
  /// the workers. InvalidArgument for a port outside [0, 65535].
  Status Start(const std::string& blob_path);

  /// Stops accepting, closes every connection, joins the reactor and the
  /// worker pool. Idempotent.
  void Stop() SKYDIA_EXCLUDES(jobs_mu_, completions_mu_);

  /// Hot-swaps the snapshot from `path` ("" = re-read the current source).
  /// On failure the old snapshot keeps serving and the error is returned.
  Status Reload(const std::string& path);

  /// The bound port (valid after Start).
  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  SnapshotRegistry& registry() { return registry_; }
  const ServerMetrics& metrics() const { return metrics_; }
  /// The write path (valid after Start; tests poke it directly).
  MutationPipeline* mutations() { return mutations_.get(); }

  /// One /metrics scrape payload (also used by the HTTP path).
  std::string RenderMetrics() const;

 private:
  /// One connection state machine. Owned and touched exclusively by the
  /// event-loop thread; workers refer to it only by `id`.
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::string inbuf;        ///< unconsumed request bytes
    std::string outbuf;       ///< reply bytes not yet written
    size_t out_off = 0;       ///< written prefix of outbuf
    bool want_write = false;  ///< EPOLLOUT currently armed
    bool reading = true;      ///< EPOLLIN currently armed
    bool http = false;        ///< switched to one-shot HTTP mode
    bool in_flight = false;   ///< a batch is at the worker pool
    bool closing = false;     ///< close once outbuf drains
    bool peer_half_closed = false;  ///< read saw EOF; flush, then close
    int wheel_slot = -1;      ///< idle-wheel bucket, -1 = not enrolled
    /// Request-context token of the in-flight batch (0 = none); cleared
    /// when its completion drains. Surfaces in /debug/connections.
    uint64_t ctx = 0;
    /// trace::NowNanos() of the last accept/read/completion activity —
    /// the /debug/connections idle age.
    uint64_t last_active_ns = 0;
  };

  /// A unit of work for the pool: one connection's batch of complete
  /// request lines, or one HTTP request. Self-contained — the strings are
  /// moved out of the connection before the handoff.
  struct Job {
    uint64_t conn_id = 0;
    std::string lines;        ///< complete lines, each '\n'-terminated
    bool http = false;
    std::string http_target;  ///< request target when http
    /// Request-context token the worker re-establishes before serving, so
    /// spans on the worker thread carry the same rid as the reactor's.
    uint64_t ctx = 0;
  };

  /// A finished job on its way back to the event loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::string reply;
    bool close_after = false;  ///< HTTP one-shot: close once flushed
  };

  Status BindAndListen();
  void ReactorLoop() SKYDIA_REACTOR_ONLY;
  void WorkerLoop() SKYDIA_EXCLUDES(jobs_mu_, completions_mu_);

  // Everything below carrying SKYDIA_REACTOR_ONLY runs on the event-loop
  // thread only; tools/lint/check_concurrency.py additionally proves none
  // of these bodies can block the loop (no pool handoffs that wait, no
  // sleeps, no buffered disk I/O).
  void HandleAccept() SKYDIA_REACTOR_ONLY;
  void HandleReadable(Connection* conn) SKYDIA_REACTOR_ONLY;
  void HandleWritable(Connection* conn) SKYDIA_REACTOR_ONLY;
  void ProcessInput(Connection* conn) SKYDIA_REACTOR_ONLY;
  /// Whether a complete-line batch qualifies for the inline fast path: at
  /// most kInlineBatchLines lines and no command that can block the loop.
  bool CanExecuteInline(const std::string& batch) const SKYDIA_REACTOR_ONLY;
  /// Answers a small batch directly on the event-loop thread and flushes.
  /// Returns false when the flush destroyed `conn`.
  bool ExecuteInline(Connection* conn,
                     std::string_view lines) SKYDIA_REACTOR_ONLY;
  void DispatchJob(Connection* conn,
                   Job job) SKYDIA_REACTOR_ONLY SKYDIA_EXCLUDES(jobs_mu_);
  void DrainCompletions() SKYDIA_REACTOR_ONLY SKYDIA_EXCLUDES(completions_mu_);
  /// Writes as much of outbuf as the socket accepts; arms/disarms EPOLLOUT
  /// and closes drained `closing` connections. Returns false when it
  /// destroyed `conn`.
  bool FlushOutput(Connection* conn) SKYDIA_REACTOR_ONLY;
  void SetReading(Connection* conn, bool reading) SKYDIA_REACTOR_ONLY;
  void UpdateEpoll(Connection* conn) SKYDIA_REACTOR_ONLY;
  void TouchIdleWheel(Connection* conn) SKYDIA_REACTOR_ONLY;
  void AdvanceIdleWheel() SKYDIA_REACTOR_ONLY;
  void CloseConnection(Connection* conn, bool idle = false) SKYDIA_REACTOR_ONLY;

  /// Answers one batch of complete request lines against one pinned
  /// snapshot, appending reply lines to `out`. Runs on worker threads and,
  /// for the inline fast path, on the event-loop thread, under the batch's
  /// request context (a server token is opened when none is active). Those
  /// threads exist only between Start() installing a snapshot and creating
  /// mutations_, and Stop() resetting it after joining them; the registry
  /// never uninstalls a snapshot. So ServeBatch and ServeHttp always see a
  /// snapshot and the write path.
  void ServeBatch(std::span<const std::string_view> lines, std::string* out);
  void ServeHttp(std::string_view request_target, std::string* out);
  /// The /debug/connections payload. Reactor-only by necessity: the
  /// connection table and state machines belong to the event-loop thread.
  std::string RenderConnectionsJson() const SKYDIA_REACTOR_ONLY;
  /// The /debug/snapshot payload: registry generation and points, mutation
  /// pipeline DebugState, and request-duration bucket exemplars.
  std::string RenderDebugSnapshotJson() const;

  /// Pure-query batches of at most this many lines execute inline on the
  /// event-loop thread (the reactor fast path). Larger batches, HTTP
  /// requests, and batches containing a command that can block the loop
  /// (reload, range scans, mutations) go to the worker pool.
  static constexpr std::ptrdiff_t kInlineBatchLines = 64;

  ServerOptions options_;
  SnapshotRegistry registry_;
  ServerMetrics metrics_;
  /// The write path: shadow diagram + coalesced publish (see
  /// mutation_pipeline.h). Created by Start, torn down by Stop.
  std::unique_ptr<MutationPipeline> mutations_;
  std::chrono::steady_clock::time_point start_time_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completions posted / Stop requested
  int port_ = 0;
  /// Ordering: Start() publishes all serving state with a release store;
  /// the reactor/worker loops and running() read it with acquire.
  std::atomic<bool> running_{false};
  std::thread reactor_;

  // Connection table: the event loop resolves completions by id. Only the
  // event-loop thread touches it.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;

  // Idle-timeout wheel (event-loop thread only): kWheelSlots coarse buckets
  // of fds; the hand closes a bucket after one full revolution of silence.
  static constexpr size_t kWheelSlots = 16;
  std::vector<std::vector<uint64_t>> wheel_;
  int64_t wheel_tick_ms_ = 0;
  int64_t wheel_last_tick_ = 0;

  // Worker pool plumbing.
  std::vector<std::thread> workers_;
  Mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_ SKYDIA_GUARDED_BY(jobs_mu_);
  bool workers_stop_ SKYDIA_GUARDED_BY(jobs_mu_) = false;
  Mutex completions_mu_;
  std::deque<Completion> completions_ SKYDIA_GUARDED_BY(completions_mu_);
  /// True while an eventfd wake for pending completions is outstanding —
  /// coalesces one wake_fd_ write per reactor drain instead of one per
  /// completion. Ordering: workers set it with an acq_rel exchange after
  /// release-publishing the completion; the event loop clears it (release)
  /// before swapping the queue, so a post-swap push always re-signals.
  std::atomic<bool> completions_signaled_{false};
};

}  // namespace skydia::serve

#endif  // SKYDIA_SRC_SERVE_SERVER_H_
