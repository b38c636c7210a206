// The load generator: open-loop and closed-loop readers and a closed-loop
// writer, multiplexed over at most two client threads with ppoll.
//
// Open loop: request k of a read connection is due at start + k * period;
// it is sent when due whatever the replies outstanding, and its latency runs
// from the due time, so a stall also charges the requests queued behind it.
// Closed loop: each read connection keeps one burst of kPipeline queries in
// flight. Writer: insert a fresh point, then delete it, each acked before
// the next request, so n stays fixed.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <thread>

#include "perfbench/perf.h"

namespace skydia::perf {
namespace {

/// Sampling for the answer check: every kOpenSampleStride-th open-loop query
/// and every kClosedSampleStride-th closed-loop query, up to kMaxSamples per
/// connection, plus the first kRangeSamples ranges.
constexpr uint64_t kOpenSampleStride = 97;
constexpr uint64_t kClosedSampleStride = 1009;
constexpr size_t kMaxSamples = 150;
constexpr size_t kRangeSamples = 8;
/// Outstanding requests get this long after the window to be answered.
constexpr uint64_t kDrainNs = 10'000'000'000ULL;

/// The CPUs this process may run on.
std::vector<int> UsableCpus() {
  cpu_set_t usable;
  CPU_ZERO(&usable);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(usable), &usable) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &usable)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins thread `tid` (0 = the caller) to `cpus[slot % size]`.
void PinTo(pid_t tid, const std::vector<int>& cpus, size_t slot) {
  cpu_set_t want;
  CPU_ZERO(&want);
  CPU_SET(cpus[slot % cpus.size()], &want);
  ::sched_setaffinity(tid, sizeof(want), &want);
}

/// Pins the calling thread, client thread `index`, to one CPU of the half
/// of the ring of usable CPUs that PinServerThreads(true, rotation) leaves
/// free (no-op with fewer than 4 CPUs).
void PinClientThread(size_t index, size_t rotation) {
  const std::vector<int> cpus = UsableCpus();
  if (cpus.size() < 4) return;
  const size_t half = cpus.size() / 2;
  PinTo(0, cpus, rotation + half + index % (cpus.size() - half));
}

}  // namespace

void PinServerThreads(bool pin, size_t rotation) {
  const std::vector<int> cpus = UsableCpus();
  if (cpus.size() < 4) return;
  const pid_t self = static_cast<pid_t>(::syscall(SYS_gettid));
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    if (tid > 0 && tid != self) tids.push_back(tid);
  }
  // One CPU per thread, in creation order: left to the scheduler, threads
  // shared a core in some rounds and not in others.
  std::sort(tids.begin(), tids.end());
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int cpu : cpus) CPU_SET(cpu, &all);
  for (size_t i = 0; i < tids.size(); ++i) {
    if (pin) {
      PinTo(tids[i], cpus, rotation + i % (cpus.size() / 2));
    } else {
      ::sched_setaffinity(tids[i], sizeof(all), &all);
    }
  }
}

namespace {

struct Pending {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  Kind kind = Kind::kRead;
  int32_t sample = -1;
};

enum class Role { kOpen, kClosed, kWriter };

struct Conn {
  Role role = Role::kOpen;
  int fd = -1;
  uint32_t stream = 0;
  uint64_t next_k = 0;
  uint64_t period_ns = 0;
  uint64_t next_due = 0;
  size_t samples = 0;
  size_t range_samples = 0;
  bool ranges_only = false;
  std::deque<Pending> fifo;
  std::string in;
  std::string out;
  bool dead = false;
  // Writer state: the pair being written.
  bool mid_pair = false;
  WritePair pair;
};

struct Timing {
  uint64_t seed = 0;
  bool corner_writes = false;
  bool pin_clients = false;
  size_t thread = 0;  ///< this client thread's index
  size_t cpu_rotation = 0;
  uint64_t measure_start = 0;
  uint64_t end = 0;
};

class Client {
 public:
  Client(std::vector<Conn*> conns, const Timing& timing, uint64_t* write_index)
      : conns_(std::move(conns)), t_(timing), write_index_(write_index) {
    r_.closed_replies.assign(kSlices, 0);
  }

  PhaseResult Run();

 private:
  bool Send(Conn* c, const std::string& data);
  void Flush(Conn* c);
  void Pump(Conn* c, uint64_t now, bool over);
  void SendWrite(Conn* c, uint64_t now);
  void Receive(Conn* c);
  void OnReply(Conn* c, std::string_view line, uint64_t now);
  void Kill(Conn* c);
  int32_t Keep(Kind kind, const Point2D& q, const QueryRange& range);
  /// The slice of the timed window that `t` falls in.
  uint16_t Slice(uint64_t t) const {
    const uint64_t span = std::max<uint64_t>(1, t_.end - t_.measure_start);
    return static_cast<uint16_t>(std::min<uint64_t>(
        kSlices - 1, (t - t_.measure_start) * kSlices / span));
  }
  bool Idle() const;

  std::vector<Conn*> conns_;
  Timing t_;
  uint64_t* write_index_;  // null unless this client owns the writer
  PhaseResult r_;
};

bool Client::Send(Conn* c, const std::string& data) {
  if (c->dead) return false;
  if (!c->out.empty()) {
    c->out.append(data);
    return true;
  }
  const ssize_t n =
      ::send(c->fd, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    Kill(c);
    return false;
  }
  const size_t sent = n > 0 ? static_cast<size_t>(n) : 0;
  if (sent < data.size()) c->out.assign(data, sent, std::string::npos);
  return true;
}

void Client::Flush(Conn* c) {
  while (!c->out.empty() && !c->dead) {
    const ssize_t n = ::send(c->fd, c->out.data(), c->out.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Kill(c);
      return;
    }
    c->out.erase(0, static_cast<size_t>(n));
  }
}

void Client::Kill(Conn* c) {
  if (c->dead) return;
  c->dead = true;
  ++r_.transport_failures;
  r_.missing += c->fifo.size();
  c->fifo.clear();
  c->mid_pair = false;
}

int32_t Client::Keep(Kind kind, const Point2D& q, const QueryRange& range) {
  r_.samples.push_back(Sample{kind, q, range, ""});
  return static_cast<int32_t>(r_.samples.size() - 1);
}

void Client::SendWrite(Conn* c, uint64_t now) {
  Pending p;
  p.due_ns = p.sent_ns = now;
  if (!c->mid_pair) {
    c->mid_pair = true;
    c->pair = WritePair{};
    const uint64_t index = (*write_index_)++;
    c->pair.p = WritePoint(t_.corner_writes, t_.seed, index);
    p.kind = Kind::kInsert;
    c->fifo.push_back(p);
    ++r_.attempted;
    Send(c, InsertLine(c->pair.p));
    return;
  }
  p.kind = Kind::kDelete;
  c->fifo.push_back(p);
  ++r_.attempted;
  Send(c, DeleteLine(c->pair.point));
}

void Client::Pump(Conn* c, uint64_t now, bool over) {
  if (c->dead || over) return;
  switch (c->role) {
    case Role::kOpen:
      while (c->next_due <= now && c->next_due < t_.end) {
        const uint64_t k = c->next_k++;
        const Point2D q = StreamPoint(t_.seed, c->stream, k);
        Pending p;
        p.due_ns = c->next_due;
        p.sent_ns = now;
        if (c->ranges_only) {
          p.kind = Kind::kRange;
          if (c->range_samples < kRangeSamples) {
            ++c->range_samples;
            p.sample = Keep(Kind::kRange, q, RangeAt(q));
          }
        } else if (k % kOpenSampleStride == 0 && c->samples < kMaxSamples) {
          ++c->samples;
          p.sample = Keep(Kind::kRead, q, {});
        }
        if (p.due_ns >= t_.measure_start) r_.late_ns.push_back(now - p.due_ns);
        c->fifo.push_back(p);
        ++r_.attempted;
        Send(c, p.kind == Kind::kRange ? RangeLine(RangeAt(q)) : QueryLine(q));
        c->next_due += c->period_ns;
      }
      break;
    case Role::kClosed:
      if (c->fifo.empty() && c->ranges_only) {
        const uint64_t k = c->next_k++;
        const Point2D q = StreamPoint(t_.seed, c->stream, k);
        Pending p;
        p.due_ns = p.sent_ns = now;
        p.kind = Kind::kRange;
        if (c->range_samples < kRangeSamples) {
          ++c->range_samples;
          p.sample = Keep(Kind::kRange, q, RangeAt(q));
        }
        c->fifo.push_back(p);
        ++r_.attempted;
        Send(c, RangeLine(RangeAt(q)));
      } else if (c->fifo.empty()) {
        std::string burst;
        burst.reserve(kPipeline * 24);
        for (int i = 0; i < kPipeline; ++i) {
          const uint64_t k = c->next_k++;
          const Point2D q = StreamPoint(t_.seed, c->stream, k);
          Pending p;
          p.due_ns = p.sent_ns = now;
          if (k % kClosedSampleStride == 0 && c->samples < kMaxSamples) {
            ++c->samples;
            p.sample = Keep(Kind::kRead, q, {});
          }
          c->fifo.push_back(p);
          burst.append(QueryLine(q));
        }
        r_.attempted += kPipeline;
        Send(c, burst);
      }
      break;
    case Role::kWriter:
      if (c->fifo.empty() && !c->mid_pair && now >= c->next_due) {
        SendWrite(c, now);
      }
      break;
  }
}

void Client::OnReply(Conn* c, std::string_view line, uint64_t now) {
  if (c->fifo.empty()) {
    ++r_.errors;  // a reply nobody asked for
    return;
  }
  const Pending p = c->fifo.front();
  c->fifo.pop_front();
  const bool is_write = p.kind == Kind::kInsert || p.kind == Kind::kDelete;
  const bool ok = line.rfind(is_write ? "{\"ok\":true" : "{\"gen\":", 0) == 0;
  if (p.sample >= 0) r_.samples[static_cast<size_t>(p.sample)].reply = line;
  if (!ok) {
    ++r_.errors;
    if (is_write) c->mid_pair = false;
    return;
  }
  const bool in_window = now >= t_.measure_start && now < t_.end;
  switch (c->role) {
    case Role::kOpen:
      if (p.due_ns < t_.measure_start) return;
      if (p.kind == Kind::kRange) {
        r_.range_ns.push_back(now - p.due_ns);
        r_.range_slice.push_back(Slice(p.due_ns));
      } else {
        r_.read_ns.push_back(now - p.due_ns);
        r_.read_slice.push_back(Slice(p.due_ns));
      }
      return;
    case Role::kClosed:
      if (p.kind == Kind::kRange) {
        if (p.sent_ns >= t_.measure_start && p.sent_ns < t_.end) {
          r_.range_ns.push_back(now - p.sent_ns);
          r_.range_slice.push_back(Slice(p.sent_ns));
        }
      } else if (in_window) {
        ++r_.closed_replies[Slice(now)];
      }
      return;
    case Role::kWriter:
      break;
  }
  // After the window the writer sends only the delete that finishes its
  // pair, and that write is timed too.
  if (p.sent_ns >= t_.measure_start) r_.write_ns.push_back(now - p.sent_ns);
  const auto gen = ReplyInt(line, "gen");
  if (p.kind == Kind::kInsert) {
    const auto point = ReplyInt(line, "point");
    if (!gen.has_value() || !point.has_value()) {
      ++r_.errors;
      c->mid_pair = false;
      return;
    }
    c->pair.insert_gen = *gen;
    c->pair.point = *point;
    SendWrite(c, now);  // the delete finishes the pair even after the window
    return;
  }
  c->mid_pair = false;
  if (!gen.has_value()) {
    ++r_.errors;
    return;
  }
  c->pair.delete_gen = *gen;
  r_.writes.push_back(c->pair);
}

void Client::Receive(Conn* c) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      Kill(c);
      return;
    }
    const uint64_t now = NowNs();
    c->in.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    for (;;) {
      const size_t nl = c->in.find('\n', start);
      if (nl == std::string::npos) break;
      OnReply(c, std::string_view(c->in).substr(start, nl - start), now);
      start = nl + 1;
    }
    c->in.erase(0, start);
    if (static_cast<size_t>(n) < sizeof(buf)) return;
  }
}

bool Client::Idle() const {
  for (const Conn* c : conns_) {
    if (!c->dead && (!c->fifo.empty() || !c->out.empty())) return false;
  }
  return true;
}

PhaseResult Client::Run() {
  // Timer slack would otherwise add up to 50 us to every ppoll wake-up and
  // show as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // A closed loop saturates the reactor: keep the client threads off the
  // CPUs it may run on. (Pinning in the open loop raised its latency.)
  if (t_.pin_clients) PinClientThread(t_.thread, t_.cpu_rotation);
  std::vector<pollfd> pfds(conns_.size());
  for (;;) {
    uint64_t now = NowNs();
    const bool over = now >= t_.end;
    for (Conn* c : conns_) Pump(c, now, over);
    if (over && (Idle() || now >= t_.end + kDrainNs)) break;

    uint64_t wake = over ? now + 50'000'000 : t_.end;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn* c = conns_[i];
      pfds[i].fd = c->dead ? -1 : c->fd;
      pfds[i].events = POLLIN | (c->out.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
      if (!over && !c->dead &&
          (c->role == Role::kOpen ||
           (c->role == Role::kWriter && now < c->next_due))) {
        wake = std::min(wake, c->next_due);
      }
    }
    now = NowNs();
    const uint64_t wait = wake > now ? wake - now : 0;
    timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                     static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn* c = conns_[i];
      if (c->dead || pfds[i].revents == 0) continue;
      if (pfds[i].revents & POLLOUT) Flush(c);
      if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) Receive(c);
    }
  }
  for (Conn* c : conns_) {
    if (!c->dead) r_.missing += c->fifo.size();
  }
  return std::move(r_);
}

void Merge(PhaseResult* into, PhaseResult from) {
  into->attempted += from.attempted;
  into->errors += from.errors;
  into->transport_failures += from.transport_failures;
  into->missing += from.missing;
  const auto append = [](std::vector<uint64_t>* a,
                          const std::vector<uint64_t>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  append(&into->read_ns, from.read_ns);
  into->read_slice.insert(into->read_slice.end(), from.read_slice.begin(),
                          from.read_slice.end());
  append(&into->range_ns, from.range_ns);
  into->range_slice.insert(into->range_slice.end(), from.range_slice.begin(),
                           from.range_slice.end());
  append(&into->late_ns, from.late_ns);
  append(&into->write_ns, from.write_ns);
  for (size_t i = 0; i < from.closed_replies.size(); ++i) {
    into->closed_replies[i] += from.closed_replies[i];
  }
  into->writes.insert(into->writes.end(), from.writes.begin(),
                      from.writes.end());
  for (Sample& s : from.samples) into->samples.push_back(std::move(s));
}

}  // namespace

PhaseResult RunPhase(int port, uint64_t seed, const PhasePlan& plan,
                     uint64_t* write_index) {
  std::vector<Conn> conns;
  if (plan.writer) conns.emplace_back().role = Role::kWriter;
  const uint64_t read_period_ns =
      plan.rate > 0
          ? static_cast<uint64_t>(plan.read_connections * 1e9 / plan.rate)
          : 0;
  for (int i = 0; i < plan.read_connections; ++i) {
    Conn c;
    c.role = plan.open_loop ? Role::kOpen : Role::kClosed;
    c.stream = static_cast<uint32_t>(
        (plan.open_loop ? kOpenStream : kClosedStream) + i);
    c.next_k = plan.first_k;
    c.period_ns = read_period_ns;
    // Stagger the readers evenly inside one period.
    c.next_due = read_period_ns * static_cast<uint64_t>(i) /
                 static_cast<uint64_t>(plan.read_connections);
    conns.push_back(std::move(c));
  }
  if (plan.open_loop ? plan.range_rate > 0 : plan.closed_ranges) {
    Conn c;
    c.role = plan.open_loop ? Role::kOpen : Role::kClosed;
    c.stream = kRangeStream;
    c.ranges_only = true;
    c.next_k = plan.first_k;
    if (plan.open_loop) {
      c.period_ns = static_cast<uint64_t>(1e9 / plan.range_rate);
    }
    conns.push_back(std::move(c));
  }
  PhaseResult result;
  result.closed_replies.assign(kSlices, 0);
  result.slices = kSlices;
  result.window_s = plan.measure_s;
  for (Conn& c : conns) {
    c.fd = Dial(port);
    if (c.fd < 0) {
      c.dead = true;
      ++result.transport_failures;
      continue;
    }
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }

  Timing timing;
  timing.seed = seed;
  timing.corner_writes = plan.corner_writes;
  timing.pin_clients = !plan.open_loop;
  timing.cpu_rotation = plan.cpu_rotation;
  const uint64_t start = NowNs() + 1'000'000;
  timing.measure_start = start + static_cast<uint64_t>(plan.warmup_s * 1e9);
  timing.end =
      timing.measure_start + static_cast<uint64_t>(plan.measure_s * 1e9);
  for (Conn& c : conns) c.next_due += start;

  // Two client threads; the writer (first connection) goes to thread 0.
  std::vector<Conn*> groups[2];
  for (size_t i = 0; i < conns.size(); ++i) groups[i % 2].push_back(&conns[i]);
  PhaseResult partial[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    if (groups[t].empty()) continue;
    threads.emplace_back([&, t] {
      Timing mine = timing;
      mine.thread = static_cast<size_t>(t);
      Client client(groups[t], mine,
                    t == 0 && plan.writer ? write_index : nullptr);
      partial[t] = client.Run();
    });
  }
  for (size_t k = 1; k <= kSlices; ++k) {
    const uint64_t at = timing.measure_start +
                        (timing.end - timing.measure_start) * k / kSlices;
    const uint64_t now = NowNs();
    if (at > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
    }
    result.rss_mb.push_back(ResidentMiB());
  }
  for (std::thread& th : threads) th.join();
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  for (PhaseResult& p : partial) Merge(&result, std::move(p));
  return result;
}

void AppendRound(PhaseResult* into, PhaseResult round) {
  const size_t offset = into->slices;
  for (auto* slices : {&round.read_slice, &round.range_slice}) {
    for (uint16_t& slice : *slices) {
      slice = static_cast<uint16_t>(slice + offset);
    }
  }
  round.closed_replies.insert(round.closed_replies.begin(),
                              into->closed_replies.begin(),
                              into->closed_replies.end());
  into->closed_replies.swap(round.closed_replies);
  into->slices += round.slices;
  into->window_s += round.window_s;
  into->rss_mb.insert(into->rss_mb.end(), round.rss_mb.begin(),
                      round.rss_mb.end());
  round.closed_replies.clear();
  Merge(into, std::move(round));
}

std::optional<double> TimedFirstWrite(int port, uint64_t seed, bool corner,
                                      uint64_t* write_index,
                                      std::vector<WritePair>* writes) {
  const int fd = Dial(port);
  if (fd < 0) return std::nullopt;
  WritePair pair;
  pair.p = WritePoint(corner, seed, (*write_index)++);
  const uint64_t start = NowNs();
  const auto insert = RoundTrip(fd, InsertLine(pair.p));
  const uint64_t acked = NowNs();
  std::optional<double> ms;
  if (insert.has_value() && insert->rfind("{\"ok\":true", 0) == 0) {
    const auto gen = ReplyInt(*insert, "gen");
    const auto point = ReplyInt(*insert, "point");
    if (gen.has_value() && point.has_value()) {
      pair.insert_gen = *gen;
      pair.point = *point;
      const auto del = RoundTrip(fd, DeleteLine(pair.point));
      const auto del_gen =
          del.has_value() && del->rfind("{\"ok\":true", 0) == 0
              ? ReplyInt(*del, "gen")
              : std::nullopt;
      if (del_gen.has_value()) {
        pair.delete_gen = *del_gen;
        writes->push_back(pair);
        ms = static_cast<double>(acked - start) / 1e6;
      }
    }
  }
  ::close(fd);
  return ms;
}

}  // namespace skydia::perf
