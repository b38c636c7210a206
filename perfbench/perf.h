// Shared pieces of the skydia serving benchmark (see perfbench/README.md):
// workload specs, the seeded input streams, set-up, the load generator, the
// brute-force answer check and the span recorder of the traced run.
#ifndef SKYDIA_PERFBENCH_PERF_H_
#define SKYDIA_PERFBENCH_PERF_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/diagram.h"
#include "src/core/range_query.h"
#include "src/datagen/distributions.h"
#include "src/geometry/dataset.h"
#include "src/serve/server.h"

namespace skydia::perf {

/// Query coordinates are a bijection of 40-bit indices onto a 2^20 x 2^20
/// domain, so every query of a run is a distinct point.
inline constexpr int kDomainBits = 20;
inline constexpr int64_t kDomain = int64_t{1} << kDomainBits;
/// Side of a range request's rectangle: a few hundred cells at the
/// workloads' n.
inline constexpr int64_t kRangeSide = kDomain / 128;
/// Pipelined point queries per closed-loop burst.
inline constexpr int kPipeline = 64;

/// One named workload. Every field is a property of the input or the traffic.
struct WorkloadSpec {
  std::string name;
  SkylineQueryType type = SkylineQueryType::kQuadrant;
  Distribution distribution = Distribution::kIndependent;
  size_t n = 0;
  /// write_mix: a writer connection runs through both read phases. The
  /// read workloads instead run the writer alone after their read phases.
  bool concurrent_writer = false;
  /// read_cold: during the open loop one of the read connections sends
  /// ranges at this rate (about 1 request in 100). Every workload times
  /// ranges in a range-only probe of its own.
  double range_rate = 0;
  /// Open-loop point-query rate summed over the read connections.
  double open_rate = 0;
  int read_connections = 4;
};

/// The spec for `name` ("read_hot", "read_cold", "write_mix"); `tiny`
/// shrinks n and the rates for the benchmark's smoke test.
StatusOr<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);

/// Input streams. Each stream indexes its own slice of the bijection.
enum Stream : uint32_t {
  kOpenStream = 0,     ///< + read connection index
  kClosedStream = 8,   ///< + read connection index
  kWriterStream = 16,  ///< inserted points
  kFinalStream = 17,   ///< post-run answer check
  kProbeStream = 18,   ///< the set-up's first query
  kRangeStream = 19,   ///< range rectangles' lower-left corners
};

/// Query point k of `stream` under `seed`.
Point2D StreamPoint(uint64_t seed, uint32_t stream, uint64_t k);

/// The writer's k-th inserted point: uniform from its stream, or near the
/// domain's top-right corner for `corner` writes (see PhasePlan).
Point2D WritePoint(bool corner, uint64_t seed, uint64_t k);

/// The range rectangle whose lower-left corner is `corner`.
QueryRange RangeAt(const Point2D& corner);

/// The workload's dataset for `seed`.
StatusOr<Dataset> MakeDataset(const WorkloadSpec& spec, uint64_t seed);

std::string QueryLine(const Point2D& q);
std::string RangeLine(const QueryRange& r);
std::string InsertLine(const Point2D& p);
std::string DeleteLine(uint64_t point);

/// Monotonic nanoseconds.
uint64_t NowNs();

/// Median / nearest-rank quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);
double Quantile(std::vector<uint64_t>* v, double q);

/// Resident set size of this process in MiB.
double ResidentMiB();


// ---------------------------------------------------------------------------
// Set-up.

/// A started server and the wall time that set it up.
struct Served {
  std::unique_ptr<serve::SkylineServer> server;
  double setup_s = 0;
};

/// generate -> build (kAuto) -> save, in a child process so build memory
/// never counts against the server's RSS; then Start(blob) with default
/// ServerOptions and one probe query answered over loopback.
StatusOr<Served> SetupOnce(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& blob_path);

/// What one rehearsal measured.
struct Rehearsal {
  double setup_s = 0;
  double first_write_ms = 0;  ///< 0 unless asked for
};

/// SetupOnce in a forked child that reports its setup_s (and, when asked,
/// the first write's ack latency) and exits, so a rehearsal leaves nothing
/// behind in this process.
StatusOr<Rehearsal> RehearseSetup(const WorkloadSpec& spec, uint64_t seed,
                                  const std::string& blob_path,
                                  bool first_write);

// ---------------------------------------------------------------------------
// Sockets.

/// Connects to 127.0.0.1:port with TCP_NODELAY; -1 on failure.
int Dial(int port);
/// Blocking request/one-line reply on `fd`; nullopt on transport failure.
std::optional<std::string> RoundTrip(int fd, std::string_view request);
/// GET /metrics and return the body ("" on failure).
std::string ScrapeMetrics(int port);
/// The value of the unlabelled sample `name` in a Prometheus payload.
std::optional<double> MetricValue(const std::string& payload,
                                  std::string_view name);

// ---------------------------------------------------------------------------
// Load generator.

enum class Kind : uint8_t { kRead, kRange, kInsert, kDelete };

/// A reply kept for the answer check.
struct Sample {
  Kind kind = Kind::kRead;
  Point2D q;
  QueryRange range;
  std::string reply;
};

/// One acknowledged insert/delete pair of the writer.
struct WritePair {
  Point2D p;
  uint64_t insert_gen = 0;  ///< first generation containing p
  uint64_t delete_gen = 0;  ///< first generation without it again
  uint64_t point = 0;       ///< id the insert ack reported
};

struct PhasePlan {
  bool open_loop = true;  ///< else closed loop, kPipeline deep
  int read_connections = 4;
  double rate = 0;  ///< open loop, requests/s over all read connections
  /// Open loop: ranges per second on one more connection (0 = none).
  double range_rate = 0;
  /// Closed loop: one more connection sends ranges, one in flight.
  bool closed_ranges = false;
  /// Closed loop: the client threads' place on the CPU ring (see
  /// PinServerThreads).
  size_t cpu_rotation = 0;
  bool writer = false;
  /// The writer inserts near the domain's top-right corner instead of at
  /// uniform points: few cells change there, so every pair does about the
  /// same work, and that work is the fixed cost of one write.
  bool corner_writes = false;
  uint64_t first_k = 0;  ///< first index into the read streams
  double warmup_s = 0;   ///< sent and checked, not timed
  double measure_s = 0;  ///< the timed window
};

/// A phase's timed window is cut into this many slices. Read figures are
/// taken over the slices of all rounds at the kQuietSlices quantile from the
/// fast end (the lower quartile of latencies, the upper quartile of rates):
/// on a shared machine, stretches slowed by other tenants make the slow
/// tail, while a change to the code moves every slice.
inline constexpr size_t kSlices = 8;
inline constexpr double kQuietSlices = 0.25;

/// Everything a phase observed. Latencies are ns; open-loop ones run from
/// each request's due time.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t errors = 0;             ///< error replies
  uint64_t transport_failures = 0;
  uint64_t missing = 0;            ///< requests never answered
  std::vector<uint64_t> read_ns;   ///< open-loop point queries
  std::vector<uint16_t> read_slice;  ///< slice of each read_ns entry
  std::vector<uint64_t> range_ns;
  std::vector<uint16_t> range_slice;  ///< slice of each range_ns entry
  std::vector<uint64_t> late_ns;   ///< send time minus due time
  std::vector<uint64_t> write_ns;  ///< per ack
  /// Closed-loop replies received in each slice.
  std::vector<uint64_t> closed_replies;
  size_t slices = 0;     ///< slices in the timed window(s)
  double window_s = 0;   ///< timed seconds, summed over rounds
  /// Resident set sampled at the end of each slice, MiB.
  std::vector<double> rss_mb;
  std::vector<WritePair> writes;
  std::vector<Sample> samples;
  uint64_t failed() const { return errors + transport_failures + missing; }
};

/// Appends one round of a phase to `into`, keeping its slices apart.
void AppendRound(PhaseResult* into, PhaseResult round);

/// Closed-loop replies/s: the upper quartile over the slices.
double ClosedRate(const PhaseResult& r);
/// The lower quartile over the `slices` slices of each slice's q-quantile
/// of `ns`, whose entries fall in slices `slice`.
double SlicedQuantile(const std::vector<uint64_t>& ns,
                      const std::vector<uint16_t>& slice, size_t slices,
                      double q);

/// Runs one phase against the server on `port`: at most 4 connections
/// driven by 2 client threads. `write_index` numbers the writer's inserted
/// points across phases.
PhaseResult RunPhase(int port, uint64_t seed, const PhasePlan& plan,
                     uint64_t* write_index);

/// Pins every thread of the process but the caller's, one per CPU, to half
/// of the ring of usable CPUs starting at place `rotation` (`pin`), or
/// unpins them; a no-op with fewer than 4 CPUs. Called between phases, when
/// the other threads are the server's worker and reactor, so that a closed
/// loop runs them apart from its client threads, which take the other half.
void PinServerThreads(bool pin, size_t rotation = 0);

/// One insert/delete pair on a fresh connection, timed alone; appends the
/// pair to `writes`. Returns the insert's ack latency in ms, or nullopt on
/// an error reply or transport failure.
std::optional<double> TimedFirstWrite(int port, uint64_t seed, bool corner,
                                      uint64_t* write_index,
                                      std::vector<WritePair>* writes);

// ---------------------------------------------------------------------------
// Answer check against the brute-force oracle (src/skyline/query.h).

class AnswerCheck {
 public:
  AnswerCheck(const WorkloadSpec& spec, Dataset base);
  ~AnswerCheck();
  AnswerCheck(const AnswerCheck&) = delete;
  AnswerCheck& operator=(const AnswerCheck&) = delete;

  /// Checks every sample; `writes` map a reply's generation to the dataset
  /// that answered it. Returns the number of mismatches and counts the
  /// samples it could check in `*checked` (dynamic queries on a grid or
  /// bisector line are skipped: their answers are interior-exact only).
  uint64_t Check(const std::vector<Sample>& samples,
                 const std::vector<WritePair>& writes, uint64_t* checked);

  /// The oracle answer for a point query on the base dataset, or nullopt
  /// when the query lies on a line of a dynamic diagram.
  std::optional<std::vector<PointId>> Expected(const Point2D& q);

 private:
  struct Truth;
  Truth& TruthFor(const WritePair* pair);
  bool CheckOne(const Sample& sample, Truth& truth, bool* skipped);

  WorkloadSpec spec_;
  std::map<int64_t, std::unique_ptr<Truth>> truths_;  // -1 = base dataset
  std::unique_ptr<Truth> base_;
};

/// Parses the JSON integer array after `"key":` in a reply line.
std::optional<std::vector<PointId>> ReplyArray(std::string_view reply,
                                               std::string_view key);
/// Parses the integer after `"key":` in a reply line.
std::optional<uint64_t> ReplyInt(std::string_view reply, std::string_view key);

// ---------------------------------------------------------------------------
// Output.

/// An ordered name -> (value, unit) map printed as the result's "metrics".
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// The one-line result the benchmark prints last.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

// ---------------------------------------------------------------------------
// Traced run.

/// In-memory spans written as Chrome trace-event JSON at exit.
class SpanRecorder {
 public:
  /// Opens a span; returns its id. `parent` 0 = root.
  uint32_t Begin(std::string name, uint32_t parent = 0, int64_t rid = -1);
  void End(uint32_t id);
  /// A span whose interval was measured by the caller.
  uint32_t Add(std::string name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent = 0, int64_t rid = -1);
  /// Duration of a closed span.
  uint64_t DurationNs(uint32_t id) const {
    return spans_[id - 1].end_ns - spans_[id - 1].start_ns;
  }
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t parent = 0;
    int64_t rid = -1;
  };
  std::vector<Span> spans_;  // id = index + 1
};

struct TracedOptions {
  std::string trace_out;
  double seconds = 0;
  bool tiny = false;  ///< the smoke test: replay a short stream
};

/// The traced run: replays the workload's inputs through each layer's
/// public functions, reconciles with a live server and its /metrics, and
/// fills the per-layer metrics. Returns the failed-operation count.
uint64_t RunTraced(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& work_dir, const TracedOptions& options,
                   MetricSet* metrics, uint64_t* attempted);

}  // namespace skydia::perf

#endif  // SKYDIA_PERFBENCH_PERF_H_
