// Closed-loop benchmark for the serve daemon's live-mutation pipeline.
//
// Self-hosted only: builds an n=4096 quadrant fixture, starts an in-process
// SkylineServer with a mutation coalescing window, then drives it over real
// loopback sockets with one closed-loop writer connection (alternating
// {"cmd":"insert"} / {"cmd":"delete"}, each op ack'd before the next) and
// R closed-loop reader connections (pipelined query bursts) — so the
// numbers capture read latency under concurrent write-and-publish load,
// not an idle server.
//
// The headline counter is `recompute_speedup`: cells the incremental
// maintenance recomputed per mutation (scraped from the server's mutation
// metrics after a final flush) versus the (n+1)^2 cell computations a
// from-scratch scanning rebuild pays per snapshot. The run exits non-zero
// when the speedup drops below 10x at the default size, when any reply was
// an error, or when either side measured zero throughput — the CI smoke
// step gates on the exit code.
//
// Flags: --readers R (default 2), --pipeline D (reader burst depth,
//        default 32), --window-ms W (mutation coalescing window, default
//        25; 0 = publish per mutation), --duration-seconds S (default 2),
//        --n N (default 4096), --domain D (default 1<<20), --workers W,
//        --min-speedup X (default 10),
//        --json-name NAME (default mutation_throughput).
//
// Writes BENCH_<json-name>.json (schema: tools/bench_schema_check.py) into
// $SKYDIA_BENCH_JSON_DIR or the working directory.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <string>
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

int DialServer(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
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

/// Blocking line reader over one socket (the writer's closed loop and the
/// end-of-run flush are latency-insensitive, so blocking I/O keeps it
/// simple; readers use counted pipelined bursts instead).
struct LineConn {
  int fd = -1;
  std::string buffer;

  std::string ReadLine() {
    for (;;) {
      const size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return "";
      }
      buffer.append(chunk, static_cast<size_t>(n));
    }
  }
};

struct WriterStats {
  uint64_t acks = 0;
  uint64_t errors = 0;
  bool transport_failed = false;
};

/// One closed-loop writer: alternating insert/delete so the live point
/// count oscillates around the fixture size instead of drifting.
void RunWriter(int port, int64_t domain, size_t initial_size,
               std::chrono::steady_clock::time_point deadline,
               WriterStats* stats) {
  LineConn conn;
  conn.fd = DialServer(port);
  if (conn.fd < 0) {
    stats->transport_failed = true;
    return;
  }
  Rng rng(7331);
  size_t size = initial_size;
  bool insert_next = true;
  while (std::chrono::steady_clock::now() < deadline) {
    std::string line;
    if (insert_next || size <= 2) {
      line = "{\"cmd\":\"insert\",\"x\":" +
             std::to_string(rng.NextInt(0, domain - 1)) +
             ",\"y\":" + std::to_string(rng.NextInt(0, domain - 1)) + "}\n";
    } else {
      line = "{\"cmd\":\"delete\",\"point\":" +
             std::to_string(rng.NextInt(
                 0, static_cast<int64_t>(size) - 1)) +
             "}\n";
    }
    if (!SendAll(conn.fd, line)) {
      stats->transport_failed = true;
      break;
    }
    const std::string reply = conn.ReadLine();
    if (reply.empty()) {
      stats->transport_failed = true;
      break;
    }
    if (reply.find("\"error\"") != std::string::npos) {
      ++stats->errors;
    } else {
      ++stats->acks;
      size += insert_next ? 1 : static_cast<size_t>(-1);
    }
    insert_next = !insert_next;
  }
  // Publish whatever the window is still holding so the scraped mutation
  // counters cover every acked op.
  if (!stats->transport_failed && SendAll(conn.fd, "{\"cmd\":\"flush\"}\n")) {
    (void)conn.ReadLine();
  }
  ::close(conn.fd);
}

struct ReaderStats {
  uint64_t replies = 0;
  uint64_t errors = 0;
  bool transport_failed = false;
  std::vector<uint64_t> burst_ns;
};

/// One closed-loop reader: a pipelined burst of point queries, re-sent the
/// moment the last reply of the previous burst drains.
void RunReader(int port, int64_t domain, int pipeline, uint64_t seed,
               std::chrono::steady_clock::time_point deadline,
               ReaderStats* stats) {
  LineConn conn;
  conn.fd = DialServer(port);
  if (conn.fd < 0) {
    stats->transport_failed = true;
    return;
  }
  Rng rng(seed);
  std::string burst;
  burst.reserve(static_cast<size_t>(pipeline) * 24);
  while (std::chrono::steady_clock::now() < deadline) {
    burst.clear();
    for (int i = 0; i < pipeline; ++i) {
      burst.append("{\"q\":[")
          .append(std::to_string(rng.NextInt(0, domain - 1)))
          .append(",")
          .append(std::to_string(rng.NextInt(0, domain - 1)))
          .append("]}\n");
    }
    const auto start = std::chrono::steady_clock::now();
    if (!SendAll(conn.fd, burst)) {
      stats->transport_failed = true;
      break;
    }
    for (int i = 0; i < pipeline; ++i) {
      const std::string reply = conn.ReadLine();
      if (reply.empty()) {
        stats->transport_failed = true;
        break;
      }
      ++stats->replies;
      if (reply.find("\"error\"") != std::string::npos) ++stats->errors;
    }
    if (stats->transport_failed) break;
    stats->burst_ns.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  ::close(conn.fd);
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

struct RunResult {
  size_t n = 0;
  int window_ms = 0;
  double elapsed_seconds = 0;
  uint64_t mutations = 0;
  uint64_t mutation_errors = 0;
  uint64_t publishes = 0;
  uint64_t cells_recomputed = 0;
  double cells_full_rebuild = 0;
  double recompute_speedup = 0;
  uint64_t read_replies = 0;
  uint64_t read_errors = 0;
  double read_qps = 0;
  uint64_t read_p50_burst_ns = 0;
  uint64_t read_p99_burst_ns = 0;
};

bool WriteBaseline(const std::string& bench_name, int readers, int pipeline,
                   const RunResult& r) {
  std::string out;
  out.reserve(2048);
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
  out += ",\n  \"benchmarks\": [\n    {\"name\": ";
  AppendQuoted("mutation_throughput/n:" + std::to_string(r.n) +
                   "/window_ms:" + std::to_string(r.window_ms) +
                   "/readers:" + std::to_string(readers) +
                   "/pipeline:" + std::to_string(pipeline),
               &out);
  out += ", \"iterations\": ";
  out += std::to_string(r.mutations > 0 ? r.mutations : 1);
  const double ns_per_mutation =
      r.mutations > 0
          ? r.elapsed_seconds * 1e9 / static_cast<double>(r.mutations)
          : 0;
  out += ", \"real_time_ns\": ";
  AppendDouble(ns_per_mutation, &out);
  out += ", \"cpu_time_ns\": ";
  AppendDouble(ns_per_mutation, &out);
  out += ", \"counters\": {\"mutations_per_sec\": ";
  AppendDouble(r.elapsed_seconds > 0
                   ? static_cast<double>(r.mutations) / r.elapsed_seconds
                   : 0,
               &out);
  out += ", \"publishes\": ";
  out += std::to_string(r.publishes);
  out += ", \"cells_recomputed\": ";
  out += std::to_string(r.cells_recomputed);
  out += ", \"cells_per_mutation\": ";
  AppendDouble(r.mutations > 0 ? static_cast<double>(r.cells_recomputed) /
                                     static_cast<double>(r.mutations)
                               : 0,
               &out);
  out += ", \"cells_full_rebuild\": ";
  AppendDouble(r.cells_full_rebuild, &out);
  out += ", \"recompute_speedup\": ";
  AppendDouble(r.recompute_speedup, &out);
  out += ", \"read_qps\": ";
  AppendDouble(r.read_qps, &out);
  out += ", \"read_p50_burst_ns\": ";
  out += std::to_string(r.read_p50_burst_ns);
  out += ", \"read_p99_burst_ns\": ";
  out += std::to_string(r.read_p99_burst_ns);
  out += ", \"errors\": ";
  out += std::to_string(r.mutation_errors + r.read_errors);
  out += "}}\n  ]\n}\n";

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
    std::fprintf(stderr, "wrote baseline %s\n", path.c_str());
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

int Main(int argc, char** argv) {
  const auto n = static_cast<size_t>(FlagInt(argc, argv, "--n", 4096));
  const int64_t domain = FlagInt(argc, argv, "--domain", 1 << 20);
  const int readers = static_cast<int>(FlagInt(argc, argv, "--readers", 2));
  const int pipeline =
      static_cast<int>(FlagInt(argc, argv, "--pipeline", 32));
  const int window_ms =
      static_cast<int>(FlagInt(argc, argv, "--window-ms", 25));
  const int duration =
      static_cast<int>(FlagInt(argc, argv, "--duration-seconds", 6));
  const int workers = static_cast<int>(FlagInt(argc, argv, "--workers", 1));
  const double min_speedup =
      static_cast<double>(FlagInt(argc, argv, "--min-speedup", 10));
  const std::string json_name =
      FlagString(argc, argv, "--json-name", "mutation_throughput");

  std::string fixture_path =
      "/tmp/skydia_bench_mutation_" + std::to_string(::getpid()) + ".skd";
  {
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
    if (Status s = SaveCellDiagram(diagram->dataset(),
                                   *diagram->cell_diagram(), fixture_path);
        !s.ok()) {
      std::cerr << "fixture save: " << s << "\n";
      return 1;
    }
  }

  serve::ServerOptions options;
  options.port = 0;
  options.num_workers = workers;
  options.mutation_window_ms = window_ms;
  serve::SkylineServer server(options);
  if (Status s = server.Start(fixture_path); !s.ok()) {
    std::cerr << "server start: " << s << "\n";
    return 1;
  }
  const int port = server.port();
  std::cout << "self-hosted fixture: n=" << n << " domain=" << domain
            << " window_ms=" << window_ms << "\n";

  const serve::ServerMetrics& metrics = server.metrics();
  const uint64_t base_mutations = metrics.mutation_inserts.load() +
                                  metrics.mutation_deletes.load();
  const uint64_t base_publishes = metrics.mutation_publishes.load();
  const uint64_t base_cells = metrics.mutation_cells_recomputed.load();

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::seconds(duration);
  WriterStats writer;
  std::vector<ReaderStats> reader_stats(
      static_cast<size_t>(std::max(readers, 0)));
  std::vector<std::thread> threads;
  threads.emplace_back(RunWriter, port, domain, n, deadline, &writer);
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back(RunReader, port, domain, pipeline,
                         static_cast<uint64_t>(r + 1), deadline,
                         &reader_stats[static_cast<size_t>(r)]);
  }
  for (auto& t : threads) t.join();

  RunResult result;
  result.n = n;
  result.window_ms = window_ms;
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.mutations = metrics.mutation_inserts.load() +
                     metrics.mutation_deletes.load() - base_mutations;
  result.mutation_errors = writer.errors;
  result.publishes = metrics.mutation_publishes.load() - base_publishes;
  result.cells_recomputed =
      metrics.mutation_cells_recomputed.load() - base_cells;
  // A from-scratch scanning rebuild fills every (n+1)^2 grid cell; the live
  // point count is the honest n for that comparison.
  const double live =
      static_cast<double>(metrics.mutation_points_live.load());
  result.cells_full_rebuild = (live + 1) * (live + 1);
  const double cells_per_mutation =
      result.mutations > 0 ? static_cast<double>(result.cells_recomputed) /
                                 static_cast<double>(result.mutations)
                           : 0;
  result.recompute_speedup =
      cells_per_mutation > 0 ? result.cells_full_rebuild / cells_per_mutation
                             : 0;

  std::vector<uint64_t> all_bursts;
  bool transport_failed = writer.transport_failed;
  for (const ReaderStats& s : reader_stats) {
    result.read_replies += s.replies;
    result.read_errors += s.errors;
    transport_failed = transport_failed || s.transport_failed;
    all_bursts.insert(all_bursts.end(), s.burst_ns.begin(), s.burst_ns.end());
  }
  // Readers stop at the deadline; the writer may overrun it finishing its
  // last ack and flush, so qps is over the read window, not the join time.
  const double read_window =
      std::min(result.elapsed_seconds, static_cast<double>(duration));
  result.read_qps =
      read_window > 0 ? static_cast<double>(result.read_replies) / read_window
                      : 0;
  if (!all_bursts.empty()) {
    std::sort(all_bursts.begin(), all_bursts.end());
    result.read_p50_burst_ns = all_bursts[all_bursts.size() / 2];
    result.read_p99_burst_ns = all_bursts[std::min(
        all_bursts.size() - 1, all_bursts.size() * 99 / 100)];
  }
  server.Stop();
  ::unlink(fixture_path.c_str());

  std::printf(
      "mutation bench: %llu mutations in %.2fs (%.0f/s, %llu publishes), "
      "%.1f cells/mutation vs %.0f full rebuild = %.0fx speedup\n"
      "read side: %llu replies (%.0f qps) under write load, burst p50 "
      "%.2fms p99 %.2fms, %llu errors%s\n",
      static_cast<unsigned long long>(result.mutations),
      result.elapsed_seconds,
      result.elapsed_seconds > 0
          ? static_cast<double>(result.mutations) / result.elapsed_seconds
          : 0,
      static_cast<unsigned long long>(result.publishes), cells_per_mutation,
      result.cells_full_rebuild, result.recompute_speedup,
      static_cast<unsigned long long>(result.read_replies), result.read_qps,
      static_cast<double>(result.read_p50_burst_ns) / 1e6,
      static_cast<double>(result.read_p99_burst_ns) / 1e6,
      static_cast<unsigned long long>(result.mutation_errors +
                                      result.read_errors),
      transport_failed ? ", TRANSPORT FAILURE" : "");

  if (!WriteBaseline(json_name, readers, pipeline, result)) return 1;
  const bool failed =
      transport_failed || result.mutation_errors > 0 ||
      result.read_errors > 0 || result.mutations == 0 ||
      (readers > 0 && result.read_replies == 0) ||
      result.recompute_speedup < min_speedup;
  if (result.recompute_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: recompute speedup %.1fx is below the %.1fx floor\n",
                 result.recompute_speedup, min_speedup);
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace skydia

int main(int argc, char** argv) { return skydia::Main(argc, argv); }
