// Closed-loop throughput benchmark for the `skydia serve` daemon.
//
// Opens N connections, keeps `pipeline` query lines in flight on each, and
// measures completed replies over a wall-clock window. Modes:
//
//   bench_serve_throughput --port P [--host H]      drive an external server
//   bench_serve_throughput                          self-hosted: builds an
//       n=4096 quadrant fixture, starts an in-process SkylineServer, and
//       drives it over real loopback sockets (the CI smoke configuration).
//   bench_serve_throughput --sweep-connections 1,8,64
//       self-hosted sweep: one measurement cell per connection count, all
//       against one started server.
//
// Flags: --connections C (default 4), --workers W (default 1),
//        --client-threads T (load-generator threads multiplexing the
//        connections, default 4), --distinct-queries Q (shared pool of
//        distinct query points all connections sample from, default 4096;
//        0 = every burst unique), --pipeline D (default 64),
//        --reconnect-every K (tear down and re-dial each connection after
//        K completed bursts — a connection-churn workload exercising the
//        accept path; 0 = persistent connections),
//        --duration-seconds S (default 2), --repetitions R (best-of-R per
//        cell, default 1), --n N (fixture size, default 4096), --labels
//        (ask for label replies), --json-name NAME (baseline stem, default
//        serve_throughput).
//
// Every run writes a machine-readable baseline `BENCH_<json-name>.json`
// (schema: tools/bench_schema_check.py) into $SKYDIA_BENCH_JSON_DIR or the
// working directory — one row per sweep cell, with qps and sampled
// burst-round-trip p50/p99 counters. Prints per-cell totals; exits non-zero
// when any reply was an error, a connection failed, or throughput was zero —
// the CI smoke job relies on the exit code.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/common/version.h"
#include "src/core/diagram.h"
#include "src/core/serialize.h"
#include "src/datagen/distributions.h"
#include "src/serve/server.h"

namespace skydia {
namespace {

struct ClientStats {
  uint64_t replies = 0;
  uint64_t errors = 0;
  uint64_t reconnects = 0;
  bool transport_failed = false;
  /// Nanoseconds from burst send to last reply of the burst — one sample per
  /// completed burst, i.e. the closed-loop round-trip latency.
  std::vector<uint64_t> burst_ns;
};

/// One measured sweep cell (one connection count).
struct CellResult {
  int connections = 0;
  int reconnect_every = 0;
  uint64_t replies = 0;
  uint64_t errors = 0;
  uint64_t reconnects = 0;
  bool transport_failed = false;
  double elapsed_seconds = 0;
  double qps = 0;
  uint64_t p50_burst_ns = 0;
  uint64_t p99_burst_ns = 0;
};

int DialServer(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Renders the workload's distinct-query pool: `distinct` pre-rendered
/// query lines drawn uniformly from the domain. Every connection samples
/// its bursts from this shared pool, so the distinct working set is fixed
/// by the flag, not by the connection count — the serve bench measures the
/// serving stack over a hot query distribution (cold point-location cost
/// is bench_query_throughput's job). 0 disables pooling: every burst is
/// unique, an all-miss stream.
std::vector<std::string> RenderQueryPool(int64_t domain, bool labels,
                                         size_t distinct) {
  Rng rng(20180416);
  std::vector<std::string> pool(distinct);
  for (std::string& line : pool) {
    line.append("{\"q\":[")
        .append(std::to_string(rng.NextInt(0, domain - 1)))
        .append(",")
        .append(std::to_string(rng.NextInt(0, domain - 1)))
        .append(labels ? "],\"labels\":true}\n" : "]}\n");
  }
  return pool;
}

/// Pre-renders `count` distinct bursts of `pipeline` query lines each, so
/// the measurement loop spends its cycles on the socket rather than on
/// std::to_string. Lines come from `pool` when non-empty, else they are
/// freshly randomized.
std::vector<std::string> PrerenderBursts(const std::vector<std::string>& pool,
                                         int64_t domain, int pipeline,
                                         bool labels, uint64_t seed,
                                         size_t count) {
  Rng rng(seed);
  std::vector<std::string> bursts(count);
  for (std::string& burst : bursts) {
    burst.reserve(static_cast<size_t>(pipeline) * 24);
    for (int i = 0; i < pipeline; ++i) {
      if (!pool.empty()) {
        burst.append(
            pool[static_cast<size_t>(rng.NextInt(
                0, static_cast<int64_t>(pool.size()) - 1))]);
        continue;
      }
      burst.append("{\"q\":[")
          .append(std::to_string(rng.NextInt(0, domain - 1)))
          .append(",")
          .append(std::to_string(rng.NextInt(0, domain - 1)))
          .append(labels ? "],\"labels\":true}\n" : "]}\n");
    }
  }
  return bursts;
}

/// Per-socket closed-loop state inside a multiplexing client thread.
struct MuxConn {
  int fd = -1;
  int pending = 0;  ///< replies still owed for the current burst
  size_t next_burst = 0;
  uint64_t bursts_done = 0;
  std::vector<std::string> bursts;
  std::chrono::steady_clock::time_point burst_start;
};

/// One client thread driving many connections: each socket runs its own
/// closed loop (burst out, count reply newlines, burst again the moment the
/// last reply drains), multiplexed over one epoll instance — so 64
/// benchmark connections cost a handful of threads instead of 64, and the
/// load generator's own cost per reply is a recv, a send, and an amortized
/// epoll_wait rather than an O(connections) scan per round trip. Keeping
/// the harness lean matters: client and server share the machine, so every
/// cycle the client wastes deflates the server numbers being compared.
///
/// `reconnect_every` > 0 turns the workload into a connection-churn one:
/// each connection tears itself down and re-dials after that many completed
/// bursts, so the cell exercises the server's accept path (state-machine
/// setup for the reactor, a thread spawn per accept for the old
/// thread-per-connection server) at a fixed concurrency level.
void RunMuxClient(const std::string& host, int port,
                  std::vector<MuxConn> conns, int pipeline,
                  int reconnect_every,
                  std::chrono::steady_clock::time_point deadline,
                  ClientStats* stats) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    stats->transport_failed = true;
    return;
  }
  for (size_t i = 0; i < conns.size(); ++i) {
    MuxConn& conn = conns[i];
    conn.fd = DialServer(host, port);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (conn.fd < 0 || ::epoll_ctl(ep, EPOLL_CTL_ADD, conn.fd, &ev) < 0) {
      stats->transport_failed = true;
      break;
    }
  }
  // Bursts are far smaller than the socket buffer, so the blocking send
  // completes immediately in the common case.
  const auto send_burst = [&](MuxConn& conn) {
    const std::string& burst = conn.bursts[conn.next_burst];
    conn.next_burst = (conn.next_burst + 1) % conn.bursts.size();
    conn.burst_start = std::chrono::steady_clock::now();
    if (!SendAll(conn.fd, burst)) {
      stats->transport_failed = true;
      return;
    }
    conn.pending = pipeline;
  };
  for (MuxConn& conn : conns) {
    if (stats->transport_failed) break;
    send_burst(conn);
  }
  epoll_event events[64];
  char chunk[64 * 1024];
  while (!stats->transport_failed &&
         std::chrono::steady_clock::now() < deadline) {
    const int ready = ::epoll_wait(ep, events, 64, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      stats->transport_failed = true;
      break;
    }
    for (int e = 0; e < ready && !stats->transport_failed; ++e) {
      MuxConn& conn = conns[static_cast<size_t>(events[e].data.u64)];
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        stats->transport_failed = true;
        break;
      }
      // Replies are one line each, so newlines == replies: count them with
      // memchr instead of splitting strings. Error replies are detected by
      // substring scan per chunk — rare enough to be effectively free.
      const char* p = chunk;
      const char* end = chunk + n;
      while ((p = static_cast<const char*>(
                  memchr(p, '\n', static_cast<size_t>(end - p)))) != nullptr) {
        ++p;
        --conn.pending;
        ++stats->replies;
      }
      const std::string_view view(chunk, static_cast<size_t>(n));
      for (size_t at = view.find("\"error\":"); at != std::string_view::npos;
           at = view.find("\"error\":", at + 1)) {
        ++stats->errors;
      }
      if (conn.pending == 0) {
        stats->burst_ns.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - conn.burst_start)
                .count()));
        ++conn.bursts_done;
        if (reconnect_every > 0 &&
            conn.bursts_done % static_cast<uint64_t>(reconnect_every) == 0) {
          // RST-close (SO_LINGER 0) so churned sockets skip TIME_WAIT —
          // otherwise tens of thousands of TIME_WAIT entries exhaust the
          // client's ephemeral ports and connect() stalls dominate the
          // cell. The burst's replies are fully drained at this point.
          const linger reset{1, 0};
          ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
          ::close(conn.fd);  // also drops the fd out of the epoll set
          conn.fd = DialServer(host, port);
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.u64 = events[e].data.u64;
          if (conn.fd < 0 ||
              ::epoll_ctl(ep, EPOLL_CTL_ADD, conn.fd, &ev) < 0) {
            stats->transport_failed = true;
            break;
          }
          ++stats->reconnects;
        }
        send_burst(conn);
      }
    }
  }
  for (MuxConn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  ::close(ep);
}

/// Drives `connections` closed-loop connections (multiplexed over
/// `client_threads` threads) against host:port for `duration` seconds and
/// aggregates one cell.
CellResult MeasureCell(const std::string& host, int port, int connections,
                       int64_t domain, int pipeline, int reconnect_every,
                       bool labels, int duration, int client_threads,
                       const std::vector<std::string>& pool) {
  CellResult cell;
  cell.connections = connections;
  cell.reconnect_every = reconnect_every;
  const int threads_n = std::max(1, std::min(client_threads, connections));
  // Deal connections round-robin onto client threads; every connection gets
  // its own pre-rendered burst rotation (seeded by global index).
  std::vector<std::vector<MuxConn>> per_thread(
      static_cast<size_t>(threads_n));
  for (int c = 0; c < connections; ++c) {
    MuxConn conn;
    conn.bursts = PrerenderBursts(pool, domain, pipeline, labels,
                                  static_cast<uint64_t>(c + 1), /*count=*/16);
    per_thread[static_cast<size_t>(c % threads_n)].push_back(std::move(conn));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(duration);
  std::vector<ClientStats> stats(static_cast<size_t>(threads_n));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(threads_n));
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads_n; ++t) {
    threads.emplace_back(RunMuxClient, host, port,
                         std::move(per_thread[static_cast<size_t>(t)]),
                         pipeline, reconnect_every, deadline,
                         &stats[static_cast<size_t>(t)]);
  }
  for (auto& t : threads) t.join();
  cell.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<uint64_t> all_bursts;
  for (ClientStats& s : stats) {
    cell.replies += s.replies;
    cell.errors += s.errors;
    cell.reconnects += s.reconnects;
    cell.transport_failed = cell.transport_failed || s.transport_failed;
    all_bursts.insert(all_bursts.end(), s.burst_ns.begin(), s.burst_ns.end());
  }
  cell.qps = cell.elapsed_seconds > 0
                 ? static_cast<double>(cell.replies) / cell.elapsed_seconds
                 : 0;
  if (!all_bursts.empty()) {
    std::sort(all_bursts.begin(), all_bursts.end());
    cell.p50_burst_ns = all_bursts[all_bursts.size() / 2];
    cell.p99_burst_ns =
        all_bursts[std::min(all_bursts.size() - 1, all_bursts.size() * 99 / 100)];
  }
  return cell;
}

void AppendQuoted(const std::string& text, std::string* out) {
  out->push_back('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendDouble(double value, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out->append(buf);
}

/// Writes the BENCH_<name>.json baseline (one row per sweep cell) into
/// $SKYDIA_BENCH_JSON_DIR or the working directory. Mirrors the JSON shape
/// bench_common.h emits for google-benchmark binaries so the schema checker
/// and regression gate treat both alike.
bool WriteBaseline(const std::string& bench_name, int pipeline, int workers,
                   const std::vector<CellResult>& cells) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema_version\": 1,\n  \"bench\": ";
  AppendQuoted(bench_name, &out);
  out += ",\n  \"version\": ";
  AppendQuoted(kVersion, &out);
  out += ",\n  \"commit\": ";
  AppendQuoted(BuildCommit(), &out);
  out += ",\n  \"build_type\": ";
#ifdef NDEBUG
  AppendQuoted("release", &out);
#else
  AppendQuoted("debug", &out);
#endif
  out += ",\n  \"compiler\": ";
  AppendQuoted(__VERSION__, &out);
  out += ",\n  \"hardware_concurrency\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ",\n  \"timestamp_unix\": ";
  out += std::to_string(static_cast<int64_t>(std::time(nullptr)));
  out += ",\n  \"benchmarks\": [";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    std::string row_name = "serve_throughput/connections:" +
                           std::to_string(cell.connections) +
                           "/pipeline:" + std::to_string(pipeline);
    if (cell.reconnect_every > 0) {
      row_name += "/reconnect:" + std::to_string(cell.reconnect_every);
    }
    AppendQuoted(row_name, &out);
    out += ", \"iterations\": ";
    out += std::to_string(cell.replies > 0 ? cell.replies : 1);
    const double ns_per_reply =
        cell.replies > 0
            ? cell.elapsed_seconds * 1e9 / static_cast<double>(cell.replies)
            : 0;
    out += ", \"real_time_ns\": ";
    AppendDouble(ns_per_reply, &out);
    out += ", \"cpu_time_ns\": ";
    AppendDouble(ns_per_reply, &out);
    out += ", \"counters\": {\"qps\": ";
    AppendDouble(cell.qps, &out);
    out += ", \"connections\": ";
    out += std::to_string(cell.connections);
    out += ", \"workers\": ";
    out += std::to_string(workers);
    out += ", \"errors\": ";
    out += std::to_string(cell.errors);
    out += ", \"reconnects\": ";
    out += std::to_string(cell.reconnects);
    out += ", \"p50_burst_ns\": ";
    out += std::to_string(cell.p50_burst_ns);
    out += ", \"p99_burst_ns\": ";
    out += std::to_string(cell.p99_burst_ns);
    out += "}}";
  }
  out += "\n  ]\n}\n";

  const char* dir = std::getenv("SKYDIA_BENCH_JSON_DIR");
  std::string path = dir != nullptr && dir[0] != '\0' ? dir : ".";
  path += "/BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  const bool closed = std::fclose(f) == 0;
  if (wrote && closed) {
    std::fprintf(stderr, "wrote baseline %s (%zu rows)\n", path.c_str(),
                 cells.size());
  }
  return wrote && closed;
}

int64_t FlagInt(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name && i + 1 < argc) return std::atoll(argv[i + 1]);
    if (arg.rfind(prefix, 0) == 0) {
      return std::atoll(arg.c_str() + prefix.size());
    }
  }
  return fallback;
}

std::string FlagString(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

bool FlagBool(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == name) return true;
  }
  return false;
}

/// "1,8,64" -> {1, 8, 64}; `fallback` when the flag is absent or empty.
std::vector<int> FlagIntList(int argc, char** argv, const char* name,
                             std::vector<int> fallback) {
  const std::string raw = FlagString(argc, argv, name, "");
  if (raw.empty()) return fallback;
  std::vector<int> values;
  size_t start = 0;
  while (start <= raw.size()) {
    const size_t comma = raw.find(',', start);
    const std::string item = raw.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) values.push_back(std::atoi(item.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values.empty() ? fallback : values;
}

int Main(int argc, char** argv) {
  const std::string host = FlagString(argc, argv, "--host", "127.0.0.1");
  const int port = static_cast<int>(FlagInt(argc, argv, "--port", 0));
  const int pipeline = static_cast<int>(FlagInt(argc, argv, "--pipeline", 64));
  const int duration =
      static_cast<int>(FlagInt(argc, argv, "--duration-seconds", 2));
  const auto n = static_cast<size_t>(FlagInt(argc, argv, "--n", 4096));
  const bool labels = FlagBool(argc, argv, "--labels");
  const int workers = static_cast<int>(FlagInt(argc, argv, "--workers", 1));
  const int client_threads =
      static_cast<int>(FlagInt(argc, argv, "--client-threads", 4));
  const auto distinct = static_cast<size_t>(
      FlagInt(argc, argv, "--distinct-queries", 4096));
  const int64_t domain = FlagInt(argc, argv, "--domain", 1 << 20);
  const std::string json_name =
      FlagString(argc, argv, "--json-name", "serve_throughput");
  const int repetitions = std::max(
      1, static_cast<int>(FlagInt(argc, argv, "--repetitions", 1)));
  const int reconnect_every =
      static_cast<int>(FlagInt(argc, argv, "--reconnect-every", 0));
  const std::vector<int> connection_sweep = FlagIntList(
      argc, argv, "--sweep-connections",
      {static_cast<int>(FlagInt(argc, argv, "--connections", 4))});

  // Self-hosted runs build one fixture blob and start one server over it;
  // --port mode drives the external server as-is.
  std::string fixture_path;
  if (port == 0) {
    // Scoped so the built diagram and dataset are freed before any server
    // starts — the servers load the blob themselves, and keeping a second
    // copy of the structure resident would distort the measurement.
    DataGenOptions gen;
    gen.n = n;
    gen.domain_size = domain;
    gen.seed = 42;
    auto dataset = GenerateDataset(gen);
    if (!dataset.ok()) {
      std::cerr << "fixture dataset: " << dataset.status() << "\n";
      return 1;
    }
    auto diagram = SkylineDiagram::Build(*std::move(dataset),
                                         SkylineQueryType::kQuadrant);
    if (!diagram.ok()) {
      std::cerr << "fixture build: " << diagram.status() << "\n";
      return 1;
    }
    fixture_path =
        "/tmp/skydia_bench_serve_" + std::to_string(::getpid()) + ".skd";
    if (Status s = SaveCellDiagram(diagram->dataset(),
                                   *diagram->cell_diagram(), fixture_path);
        !s.ok()) {
      std::cerr << "fixture save: " << s << "\n";
      return 1;
    }
    std::cout << "self-hosted fixture: n=" << n << " domain=" << domain
              << "\n";
  }

  const std::vector<std::string> pool =
      distinct > 0 ? RenderQueryPool(domain, labels, distinct)
                   : std::vector<std::string>{};

  std::vector<CellResult> cells;
  bool failed = false;
  serve::ServerOptions options;
  options.port = 0;
  options.num_workers = workers;
  serve::SkylineServer self_hosted(options);
  int target_port = port;
  if (port == 0) {
    if (Status s = self_hosted.Start(fixture_path); !s.ok()) {
      std::cerr << "server start: " << s << "\n";
      return 1;
    }
    target_port = self_hosted.port();
  }
  for (const int connections : connection_sweep) {
    // Best-of-N: a closed-loop run on a shared machine only ever loses
    // throughput to scheduler noise, so the fastest repetition is the
    // least-contaminated estimate (the same reasoning as reporting the
    // min of google-benchmark repetitions).
    CellResult cell;
    for (int rep = 0; rep < repetitions; ++rep) {
      CellResult attempt =
          MeasureCell(host, target_port, connections, domain, pipeline,
                      reconnect_every, labels, duration, client_threads, pool);
      if (rep == 0 || attempt.transport_failed || attempt.qps > cell.qps) {
        cell = attempt;
      }
      if (cell.transport_failed) break;
    }
    std::printf(
        "serve bench: connections=%d -> %llu replies in %.2fs "
        "= %.0f qps (burst p50 %.2fms, p99 %.2fms), %llu error replies%s\n",
        connections, static_cast<unsigned long long>(cell.replies),
        cell.elapsed_seconds, cell.qps,
        static_cast<double>(cell.p50_burst_ns) / 1e6,
        static_cast<double>(cell.p99_burst_ns) / 1e6,
        static_cast<unsigned long long>(cell.errors),
        cell.transport_failed ? ", TRANSPORT FAILURE" : "");
    failed = failed || cell.transport_failed || cell.errors > 0 ||
             cell.replies == 0;
    cells.push_back(cell);
  }
  if (port == 0) self_hosted.Stop();
  if (!fixture_path.empty()) ::unlink(fixture_path.c_str());

  if (!WriteBaseline(json_name, pipeline, workers, cells)) return 1;
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace skydia

int main(int argc, char** argv) { return skydia::Main(argc, argv); }
