#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/serve/protocol.h"

namespace skydia::serve {

namespace {

/// epoll user-data tags for the two non-connection fds; Connection pointers
/// are heap-allocated and can never collide with these values.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

/// Cache key for one rendered reply array: the interned set id tagged with
/// the representation bit (ids vs labels). SetIds are snapshot-local and the
/// cache lives on the snapshot, so this key is collision-free by design.
uint64_t CacheKey(SetId set, bool labels) {
  return (static_cast<uint64_t>(set) << 1) | (labels ? 1u : 0u);
}

/// Appends one complete HTTP/1.1 response (status line, Content-Type,
/// Content-Length, Connection: close) to `out`.
void AppendHttpResponse(const char* status_line, const char* content_type,
                        std::string_view body, std::string* out) {
  out->append(status_line).append("\r\nContent-Type: ").append(content_type);
  out->append("\r\nContent-Length: ")
      .append(std::to_string(body.size()))
      .append("\r\nConnection: close\r\n\r\n")
      .append(body);
}

/// Resolves the request-context token for one line batch: the first
/// client-supplied "rid" wins, else a fresh server token. A raw scan, not a
/// parse — the reactor must not pay per-line parsing, and a false positive
/// (the literal inside a string value) merely names the batch oddly. An id
/// the parser would reject (RidError) must not be interned, logged or
/// echoed as the batch context. The scan cannot decode escapes, so a rid
/// containing one falls back to a server token too; ParseRequest still
/// surfaces the exact client rid on the reply.
uint64_t BatchRequestContext(std::string_view batch) {
  const size_t pos = batch.find("\"rid\":\"");
  if (pos != std::string_view::npos) {
    const size_t begin = pos + 7;
    const size_t end = batch.find('"', begin);
    if (end != std::string_view::npos) {
      const std::string_view rid = batch.substr(begin, end - begin);
      if (RidError(rid).empty() &&
          rid.find('\\') == std::string_view::npos) {
        return trace::RegisterRequestId(rid);
      }
    }
  }
  return trace::NextServerRequestToken();
}

/// Splits '\n'-terminated request bytes into per-line views (CR stripped).
void SplitLines(std::string_view view, std::vector<std::string_view>* lines) {
  size_t start = 0;
  for (size_t nl = view.find('\n', start); nl != std::string_view::npos;
       nl = view.find('\n', start)) {
    std::string_view line = view.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines->push_back(line);
    start = nl + 1;
  }
}

/// Renders the {"cmd":"stats"} reply body: one flat JSON object of the
/// engine's and cache's counters for the pinned snapshot.
std::string RenderStatsJson(const ServingSnapshot* snapshot) {
  const QueryEngineStats engine = snapshot->diagram->engine().Stats();
  const ResultCacheStats cache = snapshot->cache->Stats();
  std::string out;
  out.reserve(256);
  out.push_back('{');
  const auto field = [&out](const char* name, uint64_t value, bool first) {
    if (!first) out.push_back(',');
    out.push_back('"');
    out.append(name);
    out.append("\":");
    out.append(std::to_string(value));
  };
  field("generation", snapshot->generation, /*first=*/true);
  field("points", snapshot->diagram->dataset().size(), false);
  field("queries_served", engine.queries_served, false);
  field("oracle_fallbacks", engine.oracle_fallbacks, false);
  field("p50_latency_ns", static_cast<uint64_t>(engine.p50_latency_ns),
        false);
  field("p99_latency_ns", static_cast<uint64_t>(engine.p99_latency_ns),
        false);
  field("cache_hits", cache.hits, false);
  field("cache_misses", cache.misses, false);
  field("cache_evictions", cache.evictions, false);
  field("cache_entries", cache.entries, false);
  out.push_back('}');
  return out;
}

}  // namespace

SkylineServer::SkylineServer(const ServerOptions& options)
    : options_(options), registry_(options.cache) {
  options_.num_workers = std::max(1, options_.num_workers);
}

SkylineServer::~SkylineServer() { Stop(); }

Status SkylineServer::BindAndListen() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable listen host \"" +
                                   options_.host + "\"");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal("bind " + options_.host + ":" +
                            std::to_string(options_.port) + ": " +
                            std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Status SkylineServer::Start(const std::string& blob_path) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port " + std::to_string(options_.port) +
                                   " is outside [0, 65535]");
  }
  if (Status loaded = registry_.Reload(blob_path); !loaded.ok()) {
    return loaded;
  }
  MutationPipelineOptions mutation_options;
  mutation_options.window_ms = options_.mutation_window_ms;
  mutation_options.max_pending = options_.mutation_max_pending;
  mutations_ = std::make_unique<MutationPipeline>(&registry_, &metrics_,
                                                  mutation_options);
  auto bound = BindAndListen();
  if (!bound.ok()) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return bound;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const Status status =
        Status::Internal(std::string("epoll/eventfd: ") +
                         std::strerror(errno));
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    return status;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  if (options_.idle_timeout_ms > 0) {
    // Ceil so a full wheel revolution is never shorter than the timeout.
    wheel_tick_ms_ = std::max<int64_t>(
        1, (options_.idle_timeout_ms + static_cast<int64_t>(kWheelSlots) - 3) /
               (static_cast<int64_t>(kWheelSlots) - 2));
    wheel_.assign(kWheelSlots, {});
    wheel_last_tick_ =
        static_cast<int64_t>(trace::NowNanos() / 1'000'000) / wheel_tick_ms_;
  } else {
    wheel_tick_ms_ = 0;
  }

  start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] {
      trace::SetThreadName("serve-worker-" + std::to_string(i));
      WorkerLoop();
    });
  }
  reactor_ = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void SkylineServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Wake the reactor out of epoll_wait; it closes every connection before
  // exiting, so the gauge drains to zero.
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (reactor_.joinable()) reactor_.join();
  {
    MutexLock lock(jobs_mu_);
    workers_stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    MutexLock lock(jobs_mu_);
    workers_stop_ = false;
    jobs_.clear();
  }
  {
    MutexLock lock(completions_mu_);
    completions_.clear();
  }
  mutations_.reset();  // joins the publisher thread
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

Status SkylineServer::Reload(const std::string& path) {
  const auto swap = [&] { return registry_.Reload(path); };
  // The registry swap and the shadow reset must share the pipeline's
  // publish exclusion: a publish that grabbed pre-reload shadow state
  // would otherwise Install() after the swap with a higher generation and
  // silently revert the reloaded data. ReloadAndReset also discards any
  // unpublished mutations; the next mutation re-seeds from the reloaded
  // file.
  const Status status =
      mutations_ != nullptr ? mutations_->ReloadAndReset(swap) : swap();
  if (status.ok()) {
    metrics_.reloads.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.reload_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

std::string SkylineServer::RenderMetrics() const {
  const auto snapshot = registry_.Current();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  return RenderPrometheusMetrics(metrics_, snapshot.get(), uptime);
}

// ---------------------------------------------------------------------------
// Event loop.

void SkylineServer::ReactorLoop() {
  trace::SetThreadName("serve-reactor");
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  uint64_t last_wake_ns = 0;
  while (running_.load(std::memory_order_acquire)) {
    int timeout_ms = 200;
    if (wheel_tick_ms_ > 0) {
      timeout_ms = static_cast<int>(
          std::clamp<int64_t>(wheel_tick_ms_, 1, timeout_ms));
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    const uint64_t loop_start_ns = trace::NowNanos();
    // Loop-lag gauge: the gap between consecutive wakeups bounds how long
    // an already-posted completion sat before this drain.
    if (last_wake_ns != 0) {
      metrics_.reactor_loop_lag_ns.store(loop_start_ns - last_wake_ns,
                                         std::memory_order_relaxed);
    }
    last_wake_ns = loop_start_ns;
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        HandleAccept();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // epoll coalesces all readiness for one fd into one event, so each
      // Connection appears at most once per wait — a close inside one
      // handler cannot dangle another event in this batch.
      auto* conn = reinterpret_cast<Connection*>(tag);
      const uint64_t id = conn->id;
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        HandleReadable(conn);
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      if ((events[i].events & EPOLLOUT) != 0) HandleWritable(it->second.get());
      it = connections_.find(id);
      if (it == connections_.end()) continue;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(it->second.get());
      }
    }
    DrainCompletions();
    AdvanceIdleWheel();
    if (n > 0) metrics_.RecordReactorLoop(trace::NowNanos() - loop_start_ns);
  }
  // Shutdown: tear down every state machine on the owning thread.
  while (!connections_.empty()) {
    CloseConnection(connections_.begin()->second.get());
  }
}

void SkylineServer::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: wait for the next event
    }
    if (connections_.size() >=
        static_cast<size_t>(options_.max_connections)) {
      metrics_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    metrics_.connections_opened.fetch_add(1, std::memory_order_relaxed);
    metrics_.connections_open.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_active_ns = trace::NowNanos();
    Connection* raw = conn.get();
    connections_.emplace(raw->id, std::move(conn));
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = reinterpret_cast<uint64_t>(raw);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      CloseConnection(raw);
      continue;
    }
    TouchIdleWheel(raw);
  }
}

void SkylineServer::HandleReadable(Connection* conn) {
  char chunk[64 * 1024];
  const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(conn);
    return;
  }
  if (n == 0) {
    // Peer half-closed. Anything already buffered (complete lines or an
    // in-flight batch) still gets answered and flushed; only then close.
    if (!conn->peer_half_closed) {
      conn->peer_half_closed = true;
      SetReading(conn, false);
      if (conn->in_flight || conn->out_off < conn->outbuf.size() ||
          conn->inbuf.find('\n') != std::string::npos) {
        metrics_.half_closed_drains.fetch_add(1, std::memory_order_relaxed);
      }
      ProcessInput(conn);
      auto it = connections_.find(conn->id);
      if (it == connections_.end()) return;
      conn = it->second.get();
      if (!conn->in_flight && conn->out_off >= conn->outbuf.size()) {
        CloseConnection(conn);
      }
    }
    return;
  }
  conn->inbuf.append(chunk, static_cast<size_t>(n));
  conn->last_active_ns = trace::NowNanos();
  metrics_.bytes_received.fetch_add(static_cast<uint64_t>(n),
                                    std::memory_order_relaxed);
  TouchIdleWheel(conn);
  ProcessInput(conn);
}

void SkylineServer::ProcessInput(Connection* conn) {
  if (conn->closing) return;
  if (!conn->http && conn->inbuf.size() >= 4 &&
      conn->inbuf.compare(0, 4, "GET ") == 0) {
    conn->http = true;
  }
  if (conn->http) {
    if (conn->in_flight) return;
    const size_t header_end = conn->inbuf.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (conn->inbuf.size() > options_.max_request_bytes) {
        CloseConnection(conn);
      }
      return;
    }
    const size_t target_end = conn->inbuf.find(' ', 4);
    Job job;
    job.conn_id = conn->id;
    job.http = true;
    job.ctx = trace::NextServerRequestToken();
    if (target_end != std::string::npos) {
      job.http_target = conn->inbuf.substr(4, target_end - 4);
    }
    conn->inbuf.clear();
    if (job.http_target == "/debug/connections") {
      // Connection state machines are owned by this thread; rendering them
      // anywhere else would race. The payload is a few hundred bytes per
      // connection — cheap enough to build inline.
      AppendHttpResponse("HTTP/1.1 200 OK", "application/json",
                         RenderConnectionsJson(), &conn->outbuf);
      conn->closing = true;
      SetReading(conn, false);
      FlushOutput(conn);
      return;
    }
    DispatchJob(conn, std::move(job));
    return;
  }
  if (!conn->in_flight) {
    // Take every complete line as one pipelined batch; the trailing partial
    // line stays buffered for the next read. Small pure-query batches run
    // inline on this thread (no handoff, no epoll re-arm); anything that
    // could block the loop goes to the pool.
    const size_t last_nl = conn->inbuf.rfind('\n');
    if (last_nl != std::string::npos) {
      std::string batch = conn->inbuf.substr(0, last_nl + 1);
      conn->inbuf.erase(0, last_nl + 1);
      // Establish the batch's request context here so the dispatch span on
      // this thread and everything downstream (worker, engine) share one
      // rid.
      const uint64_t ctx = BatchRequestContext(batch);
      trace::ScopedRequestContext ctx_scope(ctx);
      SKYDIA_TRACE_SPAN("serve.dispatch");
      if (CanExecuteInline(batch)) {
        if (!ExecuteInline(conn, batch)) return;
      } else {
        Job job;
        job.conn_id = conn->id;
        job.lines = std::move(batch);
        job.ctx = ctx;
        conn->ctx = ctx;
        DispatchJob(conn, std::move(job));
      }
    }
  }
  if (!conn->in_flight && conn->inbuf.size() > options_.max_request_bytes) {
    AppendErrorReply(std::nullopt, ErrorCode::kInvalidArgument,
                     "request line exceeds the size limit", &conn->outbuf,
                     trace::RequestIdForToken(trace::NextServerRequestToken()));
    metrics_.error_replies.fetch_add(1, std::memory_order_relaxed);
    metrics_.oversize_disconnects.fetch_add(1, std::memory_order_relaxed);
    conn->closing = true;
    SetReading(conn, false);
    FlushOutput(conn);
  }
}

bool SkylineServer::CanExecuteInline(const std::string& batch) const {
  // Reloads block on disk, range scans can walk a large slab of the grid,
  // and mutations take the pipeline mutex (and, with a zero window, run a
  // publish) — all belong on the pool. The substring test is conservative:
  // every such command literally contains the keyword, and a false match
  // (the keyword inside a malformed line) merely routes a cheap batch to
  // the pool, which is always correct.
  if (batch.find("reload") != std::string::npos ||
      batch.find("range") != std::string::npos ||
      batch.find("insert") != std::string::npos ||
      batch.find("delete") != std::string::npos ||
      batch.find("flush") != std::string::npos) {
    return false;
  }
  return std::count(batch.begin(), batch.end(), '\n') <= kInlineBatchLines;
}

bool SkylineServer::ExecuteInline(Connection* conn, std::string_view lines) {
  std::vector<std::string_view> split;
  SplitLines(lines, &split);
  ServeBatch(split, &conn->outbuf);
  metrics_.inline_batches.fetch_add(1, std::memory_order_relaxed);
  return FlushOutput(conn);
}

void SkylineServer::DispatchJob(Connection* conn, Job job) {
  conn->in_flight = true;
  // Read backpressure: park the read interest while the batch is at the
  // pool, so replies stay ordered and the input buffer stays bounded.
  SetReading(conn, false);
  TouchIdleWheel(conn);
  metrics_.worker_queue_depth.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(jobs_mu_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void SkylineServer::DrainCompletions() {
  std::deque<Completion> batch;
  completions_signaled_.store(false, std::memory_order_release);
  {
    MutexLock lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // closed while the batch ran
    Connection* conn = it->second.get();
    conn->in_flight = false;
    conn->ctx = 0;
    conn->last_active_ns = trace::NowNanos();
    conn->outbuf.append(completion.reply);
    if (completion.close_after) conn->closing = true;
    TouchIdleWheel(conn);
    if (!FlushOutput(conn)) continue;
    it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;
    conn = it->second.get();
    if (conn->closing) continue;
    // Resume reading and serve whatever piled up while the batch ran.
    SetReading(conn, true);
    ProcessInput(conn);
    it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;
    conn = it->second.get();
    if (conn->peer_half_closed && !conn->in_flight &&
        conn->out_off >= conn->outbuf.size()) {
      CloseConnection(conn);
    }
  }
}

void SkylineServer::HandleWritable(Connection* conn) {
  if (!FlushOutput(conn)) return;
  auto it = connections_.find(conn->id);
  if (it == connections_.end()) return;
  conn = it->second.get();
  if (conn->peer_half_closed && !conn->in_flight &&
      conn->out_off >= conn->outbuf.size()) {
    CloseConnection(conn);
  }
}

bool SkylineServer::FlushOutput(Connection* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->out_off,
               conn->outbuf.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      metrics_.bytes_sent.fetch_add(static_cast<uint64_t>(n),
                                    std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(conn);
    return false;
  }
  if (conn->out_off >= conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
    if (conn->want_write) {
      conn->want_write = false;
      UpdateEpoll(conn);
    }
    if (conn->closing) {
      CloseConnection(conn);
      return false;
    }
    return true;
  }
  // Partial write: the socket buffer is full. Reclaim the written prefix
  // once it is large enough to matter, enforce the backpressure cap, and
  // wait for EPOLLOUT.
  if (conn->out_off > size_t{64} * 1024) {
    conn->outbuf.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  if (conn->outbuf.size() - conn->out_off > options_.max_response_bytes) {
    metrics_.backpressure_disconnects.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(conn);
    return false;
  }
  if (!conn->want_write) {
    conn->want_write = true;
    UpdateEpoll(conn);
  }
  return true;
}

void SkylineServer::SetReading(Connection* conn, bool reading) {
  // After EOF there is nothing left to read; never re-arm EPOLLIN.
  if (conn->peer_half_closed) reading = false;
  if (conn->reading == reading) return;
  conn->reading = reading;
  UpdateEpoll(conn);
}

void SkylineServer::UpdateEpoll(Connection* conn) {
  epoll_event ev{};
  // A half-closed peer keeps EPOLLRDHUP asserted forever in level-triggered
  // mode, so both read interests drop together once EOF is seen.
  if (conn->reading && !conn->peer_half_closed) {
    ev.events |= EPOLLIN | EPOLLRDHUP;
  }
  if (conn->want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = reinterpret_cast<uint64_t>(conn);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void SkylineServer::TouchIdleWheel(Connection* conn) {
  if (wheel_tick_ms_ <= 0) return;
  // Enroll relative to the hand, not the clock alone: after the loop lags
  // two or more ticks, the clock's slot is one the catching-up hand sweeps
  // in this very pass, which would close a connection that just spoke.
  const int64_t tick = std::min(
      static_cast<int64_t>(trace::NowNanos() / 1'000'000) / wheel_tick_ms_,
      wheel_last_tick_ + 1);
  const int slot = static_cast<int>(
      (tick + static_cast<int64_t>(kWheelSlots) - 1) %
      static_cast<int64_t>(kWheelSlots));
  if (conn->wheel_slot == slot) return;
  conn->wheel_slot = slot;
  // Entries in the old bucket go stale and are skipped at expiry; no
  // eager removal needed.
  wheel_[static_cast<size_t>(slot)].push_back(conn->id);
}

void SkylineServer::AdvanceIdleWheel() {
  if (wheel_tick_ms_ <= 0) return;
  const int64_t tick =
      static_cast<int64_t>(trace::NowNanos() / 1'000'000) / wheel_tick_ms_;
  if (tick <= wheel_last_tick_) return;
  // Cap catch-up at one revolution: after a long stall, sweeping further
  // would re-visit buckets that now hold freshly-touched connections.
  const int64_t steps = std::min<int64_t>(tick - wheel_last_tick_,
                                          static_cast<int64_t>(kWheelSlots));
  for (int64_t i = 1; i <= steps; ++i) {
    const size_t slot = static_cast<size_t>(
        (wheel_last_tick_ + i) % static_cast<int64_t>(kWheelSlots));
    std::vector<uint64_t> expired;
    expired.swap(wheel_[slot]);
    for (const uint64_t id : expired) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;          // closed already
      Connection* conn = it->second.get();
      if (conn->wheel_slot != static_cast<int>(slot)) continue;  // touched
      if (conn->in_flight || conn->out_off < conn->outbuf.size()) {
        // Mid-batch or mid-flush is not idle; re-enroll for another round.
        conn->wheel_slot = -1;
        TouchIdleWheel(conn);
        continue;
      }
      CloseConnection(conn, /*idle=*/true);
    }
  }
  wheel_last_tick_ = tick;
}

void SkylineServer::CloseConnection(Connection* conn, bool idle) {
  if (idle) {
    metrics_.idle_disconnects.fetch_add(1, std::memory_order_relaxed);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  // Guarded: the event loop owns the state machine, so this runs exactly
  // once per connection; the guard is belt-and-braces against future bugs.
  GuardedDecrement(&metrics_.connections_open);
  connections_.erase(conn->id);  // destroys conn
}

// ---------------------------------------------------------------------------
// Worker pool.

void SkylineServer::WorkerLoop() {
  for (;;) {
    Job job;
    {
      // Explicit wait loop (not the predicate overload) so the guarded reads
      // happen where -Wthread-safety can see the MutexLock.
      MutexLock lock(jobs_mu_);
      while (!workers_stop_ && jobs_.empty()) jobs_cv_.wait(lock.native());
      if (jobs_.empty()) return;  // stop requested and queue drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    Completion completion;
    completion.conn_id = job.conn_id;
    // Re-establish the batch's request context on this thread: spans below
    // (the engine's query.batch and query.shard among them) carry the
    // reactor's rid.
    trace::ScopedRequestContext ctx_scope(job.ctx);
    if (job.http) {
      ServeHttp(job.http_target, &completion.reply);
      completion.close_after = true;
    } else {
      std::vector<std::string_view> lines;
      SplitLines(job.lines, &lines);
      ServeBatch(lines, &completion.reply);
    }
    metrics_.worker_batches.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(completions_mu_);
      completions_.push_back(std::move(completion));
    }
    GuardedDecrement(&metrics_.worker_queue_depth);
    // One wake per reactor drain, not per completion: the loop clears the
    // flag before swapping the queue, so a post-swap push always re-signals.
    if (!completions_signaled_.exchange(true, std::memory_order_acq_rel)) {
      const uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(wake_fd_, &one, sizeof(one));
    }
  }
}

void SkylineServer::ServeHttp(std::string_view request_target,
                              std::string* out) {
  std::string body;
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  const char* status_line = "HTTP/1.1 200 OK";
  if (request_target == "/metrics") {
    body = RenderMetrics();
  } else if (request_target == "/healthz") {
    // Liveness only: the process is up and serving HTTP. Whether it can
    // answer queries is /readyz's question — a restart will not fix "no
    // snapshot yet", so it must not fail liveness.
    body = "ok\n";
    content_type = "text/plain; charset=utf-8";
  } else if (request_target == "/readyz") {
    const auto snapshot = registry_.Current();
    body.append("{\"generation\":")
        .append(std::to_string(snapshot->generation));
    body.append(",\"points\":")
        .append(std::to_string(snapshot->diagram->dataset().size()));
    body.append(",\"semantics\":\"")
        .append(SkylineQueryTypeName(snapshot->diagram->type()));
    body.append("\",\"mutation_pending\":")
        .append(std::to_string(mutations_->pending()));
    body.append("}\n");
    content_type = "application/json";
  } else if (request_target == "/debug/trace") {
    body = trace::ToChromeTraceJson(trace::CollectRecent());
    content_type = "application/json";
  } else if (request_target == "/debug/snapshot") {
    body = RenderDebugSnapshotJson();
    content_type = "application/json";
  } else {
    body =
        "skydia serve: try /metrics, /healthz, /readyz, /debug/trace, "
        "/debug/snapshot or /debug/connections\n";
    content_type = "text/plain; charset=utf-8";
    status_line = "HTTP/1.1 404 Not Found";
  }
  AppendHttpResponse(status_line, content_type, body, out);
}

std::string SkylineServer::RenderConnectionsJson() const {
  const uint64_t now_ns = trace::NowNanos();
  std::string out;
  out.reserve(128 + connections_.size() * 160);
  out.append("{\"connections\":[");
  bool first = true;
  for (const auto& [id, conn] : connections_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"id\":").append(std::to_string(id));
    out.append(",\"inbuf_bytes\":").append(std::to_string(conn->inbuf.size()));
    out.append(",\"outbuf_bytes\":")
        .append(std::to_string(conn->outbuf.size() - conn->out_off));
    out.append(",\"in_flight\":").append(conn->in_flight ? "true" : "false");
    out.append(",\"http\":").append(conn->http ? "true" : "false");
    out.append(",\"closing\":").append(conn->closing ? "true" : "false");
    out.append(",\"half_closed\":")
        .append(conn->peer_half_closed ? "true" : "false");
    const uint64_t idle_ns =
        now_ns > conn->last_active_ns ? now_ns - conn->last_active_ns : 0;
    out.append(",\"idle_ms\":").append(std::to_string(idle_ns / 1'000'000));
    out.append(",\"rid\":\"");
    JsonEscape(trace::RequestIdForToken(conn->ctx), &out);
    out.append("\"}");
  }
  out.append("],\"open\":").append(std::to_string(connections_.size()));
  out.append("}\n");
  return out;
}

std::string SkylineServer::RenderDebugSnapshotJson() const {
  std::string out;
  out.reserve(512);
  const auto snapshot = registry_.Current();
  out.append("{\"generation\":").append(std::to_string(snapshot->generation));
  out.append(",\"points\":")
      .append(std::to_string(snapshot->diagram->dataset().size()));
  out.append(",\"recorder_active\":")
      .append(trace::RecorderActive() ? "true" : "false");
  const MutationDebugState m = mutations_->DebugState();
  out.append(",\"mutation\":{\"pending\":").append(std::to_string(m.pending));
  out.append(",\"pending_cells\":").append(std::to_string(m.pending_cells));
  out.append(",\"shadow_seeded\":").append(m.shadow_seeded ? "true" : "false");
  out.append(",\"shadow_age_ms\":").append(std::to_string(m.shadow_age_ms));
  out.append(",\"publish_in_flight\":")
      .append(m.publish_in_flight ? "true" : "false");
  out.append(",\"in_flight_generation\":")
      .append(std::to_string(m.in_flight_generation));
  out.append(",\"pending_rid\":\"");
  JsonEscape(m.pending_rid, &out);
  out.append("\",\"window_ms\":").append(std::to_string(m.window_ms));
  out.append(",\"max_pending\":").append(std::to_string(m.max_pending));
  out.push_back('}');
  // Histogram exemplars: the most recent request to land in each populated
  // duration bucket, linking /metrics tail buckets to concrete rids.
  out.append(",\"request_duration_exemplars\":[");
  bool first = true;
  for (size_t b = 0; b < ServerMetrics::kDurationBuckets; ++b) {
    const uint64_t token =
        metrics_.request_exemplar_token[b].load(std::memory_order_relaxed);
    if (token == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"le_ns\":").append(std::to_string(uint64_t{1} << (b + 1)));
    out.append(",\"rid\":\"");
    JsonEscape(trace::RequestIdForToken(token), &out);
    out.append("\",\"duration_ns\":")
        .append(std::to_string(
            metrics_.request_exemplar_ns[b].load(std::memory_order_relaxed)));
    out.push_back('}');
  }
  out.append("]}\n");
  return out;
}

void SkylineServer::ServeBatch(std::span<const std::string_view> lines,
                               std::string* out) {
  // The reactor/worker normally established the batch's request context
  // already; direct embedder calls get a fresh server token so every reply
  // still carries a rid and every span an id.
  uint64_t ctx = trace::CurrentRequestContext();
  if (ctx == 0) ctx = trace::NextServerRequestToken();
  trace::ScopedRequestContext ctx_scope(ctx);
  const std::string batch_rid = trace::RequestIdForToken(ctx);
  SKYDIA_TRACE_SPAN("serve.batch");
  const uint64_t batch_start_ns = trace::NowNanos();
  // One snapshot pin for the whole pipelined batch: every reply in a batch
  // carries the same generation even across a concurrent reload.
  const auto snapshot = registry_.Current();

  struct Pending {
    Request request;
    std::string parse_error;  // non-empty = reply with this error
  };
  std::vector<Pending> pending;
  pending.reserve(lines.size());

  // Pass 1: parse everything and run the batched SetId fast path over the
  // plain diagram queries (the dominant traffic).
  std::vector<Point2D> fast_queries;
  std::vector<size_t> fast_index;
  {
    SKYDIA_TRACE_SPAN("serve.parse");
    for (size_t i = 0; i < lines.size(); ++i) {
      metrics_.requests_total.fetch_add(1, std::memory_order_relaxed);
      Pending p;
      auto parsed = ParseRequest(lines[i]);
      if (!parsed.ok()) {
        p.parse_error = parsed.status().message();
        metrics_.malformed_requests.fetch_add(1, std::memory_order_relaxed);
      } else {
        p.request = *std::move(parsed);
        if (p.request.kind == RequestKind::kQuery) {
          const QueryPayload& query = p.request.query();
          if (!query.exact && !query.semantics.has_value()) {
            fast_queries.push_back(query.q);
            fast_index.push_back(i);
          }
        }
      }
      pending.push_back(std::move(p));
    }
  }

  std::vector<SetId> fast_sets;
  if (!fast_queries.empty()) {
    SKYDIA_TRACE_SPAN("serve.answer");
    snapshot->diagram->engine().AnswerBatch(fast_queries, &fast_sets);
  }
  std::vector<SetId> set_for_line(lines.size(), 0);
  std::vector<bool> has_set(lines.size(), false);
  for (size_t j = 0; j < fast_index.size(); ++j) {
    set_for_line[fast_index[j]] = fast_sets[j];
    has_set[fast_index[j]] = true;
  }

  // Pass 2: render replies in request order.
  SKYDIA_TRACE_SPAN("serve.render");
  const int64_t slow_ns = options_.slow_query_ms > 0
                              ? int64_t{options_.slow_query_ms} * 1'000'000
                              : -1;
  const uint64_t generation = snapshot->generation;
  std::string cached;
  // Reply rid: the line's own "rid" when the client sent one, else the
  // batch's server-generated id — suffixed with the line index so every
  // reply of a pipelined batch is still individually addressable.
  const auto line_rid = [&](const Request& req, size_t i) -> std::string {
    if (!req.rid.empty()) return req.rid;
    if (lines.size() == 1) return batch_rid;
    return batch_rid + "." + std::to_string(i);
  };
  for (size_t i = 0; i < lines.size(); ++i) {
    Pending& p = pending[i];
    const std::string rid = line_rid(p.request, i);
    if (!p.parse_error.empty()) {
      AppendErrorReply(p.request.id, ErrorCode::kParseError, p.parse_error,
                       out, rid);
      metrics_.error_replies.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const Request& req = p.request;
    switch (req.kind) {
      case RequestKind::kPing:
        AppendOkReply(req.id, generation, out, rid);
        break;
      case RequestKind::kStats: {
        std::string body = RenderStatsJson(snapshot.get());
        AppendQueryReply(req.id, generation, "stats", body, out, rid);
        break;
      }
      case RequestKind::kReload: {
        auto status = Reload(req.reload().path);
        if (status.ok()) {
          AppendOkReply(req.id, registry_.generation(), out, rid);
        } else {
          AppendErrorReply(req.id, ErrorCode::kInvalidArgument,
                           status.message(), out, rid);
          metrics_.error_replies.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      case RequestKind::kInsert: {
        auto ack = mutations_->Insert(req.insert().p, req.insert().label);
        if (!ack.ok()) {
          AppendErrorReply(req.id, ErrorCodeForStatus(ack.status()),
                           ack.status().message(), out, rid);
          metrics_.error_replies.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        AppendInsertReply(req.id, ack->generation, ack->point, out, rid);
        break;
      }
      case RequestKind::kDelete: {
        auto ack = mutations_->Delete(req.del().point);
        if (!ack.ok()) {
          AppendErrorReply(req.id, ErrorCodeForStatus(ack.status()),
                           ack.status().message(), out, rid);
          metrics_.error_replies.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        AppendOkReply(req.id, ack->generation, out, rid);
        break;
      }
      case RequestKind::kFlush:
        AppendOkReply(req.id, mutations_->Flush(), out, rid);
        break;
      case RequestKind::kRange: {
        const RangePayload& range = req.range();
        auto summary = snapshot->diagram->engine().AnswerRange(range.range);
        if (!summary.ok()) {
          AppendErrorReply(req.id, ErrorCode::kInvalidArgument,
                           summary.status().message(), out, rid);
          metrics_.error_replies.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const Dataset& dataset = snapshot->diagram->dataset();
        const std::string union_json =
            range.labels ? RenderLabelsArray(dataset, summary->union_ids)
                         : RenderIdsArray(summary->union_ids);
        const std::string intersection_json =
            range.labels
                ? RenderLabelsArray(dataset, summary->intersection_ids)
                : RenderIdsArray(summary->intersection_ids);
        AppendRangeReply(req.id, generation, union_json, intersection_json,
                         summary->distinct_results, out, rid);
        break;
      }
      case RequestKind::kQuery: {
        const QueryPayload& query = req.query();
        const QueryEngine& engine = snapshot->diagram->engine();
        const char* key = query.labels ? "labels" : "ids";
        if (has_set[i]) {
          // Fast path: interned set id -> per-snapshot rendered-reply cache.
          const uint64_t cache_key = CacheKey(set_for_line[i], query.labels);
          if (snapshot->cache->Lookup(cache_key, &cached)) {
            AppendQueryReply(req.id, generation, key, cached, out, rid);
            break;
          }
          const auto ids = engine.Get(set_for_line[i]);
          std::string array =
              query.labels
                  ? RenderLabelsArray(snapshot->diagram->dataset(), ids)
                  : RenderIdsArray(ids);
          AppendQueryReply(req.id, generation, key, array, out, rid);
          snapshot->cache->Insert(cache_key, std::move(array));
          break;
        }
        // Slow path: exact and/or semantics-override queries go through the
        // QueryOptions entry point (uncached; oracle answers are per-query).
        QueryOptions query_options;
        query_options.exact = query.exact;
        query_options.semantics = query.semantics;
        const uint64_t query_start_ns = trace::NowNanos();
        auto answer = engine.Answer(query.q, query_options);
        const int64_t query_ns =
            static_cast<int64_t>(trace::NowNanos() - query_start_ns);
        if (slow_ns >= 0 && query_ns >= slow_ns) {
          SKYDIA_LOG(Warning) << "slow_query ms="
                              << static_cast<double>(query_ns) / 1e6
                              << " x=" << query.q.x << " y=" << query.q.y
                              << " exact=" << (query.exact ? 1 : 0)
                              << " generation=" << generation
                              << " rid=" << rid;
        }
        if (!answer.ok()) {
          AppendErrorReply(req.id, ErrorCode::kInvalidArgument,
                           answer.status().message(), out, rid);
          metrics_.error_replies.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const std::string array =
            query.labels
                ? RenderLabelsArray(snapshot->diagram->dataset(), *answer)
                : RenderIdsArray(*answer);
        AppendQueryReply(req.id, generation, key, array, out, rid);
        break;
      }
    }
  }

  const int64_t batch_ns =
      static_cast<int64_t>(trace::NowNanos() - batch_start_ns);
  metrics_.RecordRequestDuration(static_cast<uint64_t>(batch_ns), ctx);
  if (slow_ns >= 0 && batch_ns >= slow_ns) {
    SKYDIA_LOG(Warning) << "slow_batch ms="
                        << static_cast<double>(batch_ns) / 1e6
                        << " lines=" << lines.size()
                        << " generation=" << generation
                        << " rid=" << batch_rid;
  }
}

}  // namespace skydia::serve
