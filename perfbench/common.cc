// Workload specs, seeded inputs, set-up, sockets and result output.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "perfbench/perf.h"
#include "src/core/serialize.h"

namespace skydia::perf {
namespace {

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status BuildAndSave(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& blob_path) {
  auto dataset = MakeDataset(spec, seed);
  if (!dataset.ok()) return dataset.status();
  auto diagram = SkylineDiagram::Build(*std::move(dataset), spec.type);
  if (!diagram.ok()) return diagram.status();
  if (spec.type == SkylineQueryType::kDynamic) {
    return SaveSubcellDiagram(diagram->dataset(), *diagram->subcell_diagram(),
                              blob_path);
  }
  return SaveCellDiagram(diagram->dataset(), *diagram->cell_diagram(),
                         blob_path);
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

void AppendNumber(double v, std::string* out) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace

StatusOr<WorkloadSpec> FindWorkload(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "read_hot") {
    spec.type = SkylineQueryType::kDynamic;
    spec.n = tiny ? 12 : 64;
    spec.open_rate = 40000;
  } else if (name == "read_cold") {
    spec.distribution = Distribution::kAnticorrelated;
    spec.n = tiny ? 96 : 2048;
    spec.range_rate = 400;
    spec.open_rate = 40000;
  } else if (name == "write_mix") {
    spec.n = tiny ? 64 : 1024;
    spec.concurrent_writer = true;
    spec.open_rate = 20000;
    spec.read_connections = 3;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (read_hot, read_cold, write_mix)");
  }
  if (tiny) spec.open_rate = 2000;
  return spec;
}

Point2D StreamPoint(uint64_t seed, uint32_t stream, uint64_t k) {
  // A 4-round Feistel network over two 20-bit halves is a bijection of the
  // 40-bit index space onto the domain, so distinct (stream, k) never
  // repeat a point.
  constexpr uint64_t kMask = (uint64_t{1} << kDomainBits) - 1;
  const uint64_t index = (uint64_t{stream} << 32) | (k & 0xffffffffULL);
  uint64_t left = (index >> kDomainBits) & kMask;
  uint64_t right = index & kMask;
  for (uint64_t round = 0; round < 4; ++round) {
    const uint64_t f = Mix(right ^ Mix(seed * 4 + round)) & kMask;
    const uint64_t next = left ^ f;
    left = right;
    right = next;
  }
  return Point2D{static_cast<int64_t>(left), static_cast<int64_t>(right)};
}

Point2D WritePoint(bool corner, uint64_t seed, uint64_t k) {
  if (!corner) return StreamPoint(seed, kWriterStream, k);
  const int64_t offset = static_cast<int64_t>(k % (kDomain / 2));
  return Point2D{kDomain - 1 - offset, kDomain - 1 - offset};
}

QueryRange RangeAt(const Point2D& corner) {
  return QueryRange{corner.x, std::min(corner.x + kRangeSide, kDomain - 1),
                    corner.y, std::min(corner.y + kRangeSide, kDomain - 1)};
}

StatusOr<Dataset> MakeDataset(const WorkloadSpec& spec, uint64_t seed) {
  DataGenOptions options;
  options.n = spec.n;
  options.domain_size = kDomain;
  options.distribution = spec.distribution;
  options.seed = Mix(seed ^ 0x5eed5eed5eedULL);  // apart from the streams
  return GenerateDataset(options);
}

std::string QueryLine(const Point2D& q) {
  return "{\"q\":[" + std::to_string(q.x) + "," + std::to_string(q.y) +
         "]}\n";
}

std::string RangeLine(const QueryRange& r) {
  return "{\"cmd\":\"range\",\"x\":[" + std::to_string(r.x_lo) + "," +
         std::to_string(r.x_hi) + "],\"y\":[" + std::to_string(r.y_lo) + "," +
         std::to_string(r.y_hi) + "]}\n";
}

std::string InsertLine(const Point2D& p) {
  return "{\"cmd\":\"insert\",\"x\":" + std::to_string(p.x) +
         ",\"y\":" + std::to_string(p.y) + "}\n";
}

std::string DeleteLine(uint64_t point) {
  return "{\"cmd\":\"delete\",\"point\":" + std::to_string(point) + "}\n";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  return (*v)[std::min(v->size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  return static_cast<double>(
      (*v)[std::min(v->size() - 1, rank == 0 ? 0 : rank - 1)]);
}

double ClosedRate(const PhaseResult& r) {
  std::vector<double> rates;
  const double slice_s = r.window_s / static_cast<double>(r.slices);
  for (uint64_t replies : r.closed_replies) {
    rates.push_back(static_cast<double>(replies) / slice_s);
  }
  return Quantile(&rates, 1 - kQuietSlices);
}

double SlicedQuantile(const std::vector<uint64_t>& ns,
                      const std::vector<uint16_t>& slice, size_t slices,
                      double q) {
  std::vector<std::vector<uint64_t>> by_slice(slices);
  for (size_t i = 0; i < ns.size(); ++i) by_slice[slice[i]].push_back(ns[i]);
  std::vector<double> per_slice;
  for (auto& one : by_slice) {
    if (!one.empty()) per_slice.push_back(Quantile(&one, q));
  }
  return Quantile(&per_slice, kQuietSlices);
}

double ResidentMiB() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

StatusOr<Served> SetupOnce(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& blob_path) {
  // Flush the previous set-up's blob first, untimed: its write-back would
  // otherwise run during this set-up or the measurement after it.
  ::sync();
  const uint64_t start = NowNs();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    const Status status = BuildAndSave(spec, seed, blob_path);
    if (!status.ok()) {
      std::fprintf(stderr, "build failed: %s\n", status.ToString().c_str());
    }
    ::_exit(status.ok() ? 0 : 1);
  }
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("the build child failed");
  }

  Served served;
  served.server = std::make_unique<serve::SkylineServer>();
  Status status = served.server->Start(blob_path);
  if (!status.ok()) return status;
  const int fd = Dial(served.server->port());
  if (fd < 0) return Status::Internal("cannot connect to the server");
  const auto reply =
      RoundTrip(fd, QueryLine(StreamPoint(seed, kProbeStream, 0)));
  ::close(fd);
  if (!reply.has_value() || reply->rfind("{\"gen\":", 0) != 0) {
    return Status::Internal("the probe query failed");
  }
  served.setup_s = static_cast<double>(NowNs() - start) / 1e9;
  return served;
}

StatusOr<Rehearsal> RehearseSetup(const WorkloadSpec& spec, uint64_t seed,
                                  const std::string& blob_path,
                                  bool first_write) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    Rehearsal out;
    bool ok = false;
    {
      auto served = SetupOnce(spec, seed, blob_path);
      if (served.ok()) {
        out.setup_s = served->setup_s;
        ok = true;
        if (first_write) {
          uint64_t index = 0;
          std::vector<WritePair> writes;
          const auto ms =
              TimedFirstWrite(served->server->port(), seed,
                              !spec.concurrent_writer, &index, &writes);
          out.first_write_ms = ms.value_or(0);
          ok = ms.has_value();
        }
        served->server->Stop();
      } else {
        std::fprintf(stderr, "setup failed: %s\n",
                     served.status().ToString().c_str());
      }
    }
    const bool sent = ::write(fds[1], &out, sizeof(out)) == sizeof(out);
    ::_exit(sent && ok ? 0 : 1);
  }
  ::close(fds[1]);
  Rehearsal out;
  const bool got = ::read(fds[0], &out, sizeof(out)) ==
                   static_cast<ssize_t>(sizeof(out));
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!got || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("the set-up rehearsal failed");
  }
  return out;
}

int Dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::optional<std::string> RoundTrip(int fd, std::string_view request) {
  if (!SendAll(fd, request)) return std::nullopt;
  std::string reply;
  char buf[4096];
  while (reply.empty() || reply.back() != '\n') {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    reply.append(buf, static_cast<size_t>(n));
  }
  reply.pop_back();
  return reply;
}

std::string ScrapeMetrics(int port) {
  const int fd = Dial(port);
  if (fd < 0) return "";
  std::string response;
  if (SendAll(fd, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")) {
    char buf[8192];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

std::optional<double> MetricValue(const std::string& payload,
                                  std::string_view name) {
  size_t pos = 0;
  while (pos < payload.size()) {
    const size_t eol = std::min(payload.find('\n', pos), payload.size());
    const std::string_view line(payload.data() + pos, eol - pos);
    if (line.size() > name.size() && line.substr(0, name.size()) == name &&
        line[name.size()] == ' ') {
      return std::strtod(std::string(line.substr(name.size() + 1)).c_str(),
                         nullptr);
    }
    pos = eol + 1;
  }
  return std::nullopt;
}

std::optional<std::vector<PointId>> ReplyArray(std::string_view reply,
                                               std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":[";
  const size_t at = reply.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::vector<PointId> ids;
  const char* p = reply.data() + at + needle.size();
  const char* end = reply.data() + reply.size();
  if (p < end && *p == ']') return ids;
  while (p < end) {
    PointId id = 0;
    const auto res = std::from_chars(p, end, id);
    if (res.ec != std::errc() || res.ptr >= end) return std::nullopt;
    ids.push_back(id);
    p = res.ptr + 1;
    if (*res.ptr == ']') return ids;
    if (*res.ptr != ',') return std::nullopt;
  }
  return std::nullopt;
}

std::optional<uint64_t> ReplyInt(std::string_view reply, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = reply.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  uint64_t v = 0;
  const char* p = reply.data() + at + needle.size();
  const auto res = std::from_chars(p, reply.data() + reply.size(), v);
  if (res.ec != std::errc()) return std::nullopt;
  return v;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append("\"").append(items_[i].first).append("\": {\"value\": ");
    AppendNumber(items_[i].second.first, &out);
    out.append(", \"unit\": \"").append(items_[i].second.second).append("\"}");
  }
  out.append("}");
  return out;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.Json() + "}";
}

uint32_t SpanRecorder::Begin(std::string name, uint32_t parent, int64_t rid) {
  spans_.push_back(Span{std::move(name), NowNs(), 0, parent, rid});
  return static_cast<uint32_t>(spans_.size());
}

void SpanRecorder::End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

uint32_t SpanRecorder::Add(std::string name, uint64_t start_ns,
                           uint64_t end_ns, uint32_t parent, int64_t rid) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, rid});
  return static_cast<uint32_t>(spans_.size());
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ",";
    // Complete events ("X") on one track; nesting follows the intervals, and
    // args carry the explicit parent id and request id.
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":"
        << static_cast<double>(std::max(s.end_ns, s.start_ns) - s.start_ns) /
               1e3
        << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent;
    if (s.rid >= 0) out << ",\"rid\":" << s.rid;
    out << "}}";
  }
  out << "]}\n";
  out.close();
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

}  // namespace skydia::perf
