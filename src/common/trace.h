// Low-overhead in-process tracing: RAII scoped spans and named counters
// recorded into per-thread lock-free ring buffers, drained on demand into a
// Chrome trace-event / Perfetto-compatible JSON export or a per-span text
// summary.
//
// Design constraints, in priority order:
//   1. Non-recording tracing must be invisible on the serving hot path. A
//      span with recording off costs one relaxed atomic load and one
//      predictable branch — no clock read, no allocation, no store; in the
//      sampled flight-recorder mode it adds one thread-local decrement
//      (bench_query_throughput's BM_TraceSpanDisabled/BM_TraceSpanSampled
//      pin both fast paths down).
//   2. Enabled tracing never blocks the traced thread. Each thread writes
//      events to a private fixed-capacity ring buffer; when the ring wraps,
//      the oldest events are overwritten (newest-wins) and a drop count is
//      kept. There is no lock on the emission path.
//   3. Draining may race with emission (the serve daemon exports /metrics
//      and traces while connections are live). Every slot field is a relaxed
//      atomic word and each slot carries a sequence number written around
//      the payload, so a reader either observes a consistent event or skips
//      the slot — torn events are rejected, never surfaced. This protocol is
//      exercised under TSan by tests/core/concurrency_stress_test.cc.
//
// Recording modes. The recorder is a three-state machine:
//   * off      — spans are inert (the historical default outside serving).
//   * sampled  — the always-on flight recorder: every Nth span per thread is
//                recorded, and CollectRecent() drains only the last
//                window_ns of events. EnableFlightRecorder() enters this
//                mode; the serve daemon turns it on by default.
//   * full     — every span records; SetEnabled(true), the --trace flag.
// SetEnabled(false) falls back to sampled (not off) while the flight
// recorder is active, so an operator toggling --trace never loses the
// always-on window.
//
// Request contexts. A 64-bit token names one request id; spans emitted
// while a ScopedRequestContext is on the stack carry the token and export
// with "args":{"rid":"..."} so one request's spans correlate across the
// reactor, worker, and shard threads. Server-generated ids encode the id in
// the token itself ("s<token>"); client-supplied ids intern their string in
// a small eviction ring.
//
// Span names must be string literals (or otherwise immortal): the ring
// stores the pointer, not a copy. Counters follow the same rule.
//
// Typical use:
//   trace::SetEnabled(true);
//   { SKYDIA_TRACE_SPAN("build.sweep"); ... }
//   trace::Counter("cells", grid.num_cells());
//   const trace::TraceSnapshot snap = trace::Collect();
//   trace::WriteChromeTrace(snap, "trace.json");   // open in ui.perfetto.dev
//   std::cerr << trace::RenderTextSummary(snap);
#ifndef SKYDIA_SRC_COMMON_TRACE_H_
#define SKYDIA_SRC_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace skydia::trace {

namespace internal {
/// Recording mode, exposed for the inline fast path below.
/// Ordering: relaxed loads/stores only — the mode is a hint, and the slot
/// seqlock (not the mode flag) is what makes drained events consistent.
inline constexpr uint32_t kModeOff = 0;
inline constexpr uint32_t kModeSampled = 1;
inline constexpr uint32_t kModeFull = 2;
extern std::atomic<uint32_t> g_mode;

/// Spans left before the next sampled-mode record on this thread. Starts at
/// 1 so the first span after entering sampled mode records immediately.
// constinit: guarantees constant initialization, so every access compiles
// to a direct TLS load instead of a guarded init-wrapper call.
extern constinit thread_local uint32_t t_sample_countdown;
/// Out-of-line countdown reload; always returns true ("record this span").
bool ReloadSampleCountdown();

/// The per-span record decision — the hot-path gate. Off: one relaxed load
/// and a branch. Full: the same plus one compare. Sampled: one extra
/// thread-local decrement per span, with the reload out of line.
inline bool ShouldRecord() {
  const uint32_t mode = g_mode.load(std::memory_order_relaxed);
  // Sampled first: it is the serving steady state, and testing it directly
  // leaves both the off and full paths a single branchless compare.
  if (mode == kModeSampled) {
    if (--t_sample_countdown != 0) return false;
    return ReloadSampleCountdown();
  }
  return mode == kModeFull;
}

struct ThreadBuffer;
/// The calling thread's ring buffer, created (and registered) on first use.
ThreadBuffer* LocalBuffer();
void EmitSpan(ThreadBuffer* buffer, const char* name, uint64_t start_ns,
              uint64_t end_ns);
void EmitCounter(ThreadBuffer* buffer, const char* name, uint64_t value);
/// Appends `text` to `out` with Chrome-trace JSON string escaping (quotes,
/// backslashes, control characters). Exposed for the unit tests.
void AppendJsonEscaped(const char* text, std::string* out);

/// Current depth of open spans on this thread (for nesting tests).
int SpanDepth();
}  // namespace internal

/// Whether *full* tracing is on (every span records). The sampled flight
/// recorder intentionally reads as false here: callers gating expensive
/// exhaustive collection (--trace exports, exit summaries) want the full
/// mode only, and the disabled-span bench asserts the serving default.
inline bool Enabled() {
  return internal::g_mode.load(std::memory_order_relaxed) ==
         internal::kModeFull;
}

/// Turns full recording on or off. Enabling (re)starts the trace epoch that
/// exported timestamps are relative to. Disabling falls back to the sampled
/// flight-recorder mode when one is active, else to off. Thread-safe.
void SetEnabled(bool enabled);

/// Flight-recorder configuration: sample every Nth span per thread, keep
/// roughly the last window of events for CollectRecent().
struct RecorderOptions {
  /// Per-thread sampling period; 1 records every span. Clamped to >= 1.
  uint32_t sample_period = 256;
  /// CollectRecent() returns events newer than now - window_ns.
  uint64_t window_ns = 10'000'000'000ull;  // ~10 s
};

/// Enters the always-on sampled mode (no-op downgrade when full tracing is
/// already on: the recorder stays armed underneath and SetEnabled(false)
/// lands on it). Thread-safe.
void EnableFlightRecorder(const RecorderOptions& options = {});
/// Disarms the recorder; sampled mode drops to off (full stays full).
void DisableFlightRecorder();
bool RecorderActive();

/// Clears all recorded events and drop counts, releases buffers of threads
/// that have exited, and restarts the epoch. Not safe to call concurrently
/// with emission from other threads (callers quiesce first).
void Reset();

/// Ring capacity (events per thread) for buffers created after this call;
/// rounded up to a power of two, default 16384. Tests use tiny rings to
/// exercise wraparound. Call before the threads under test emit.
void SetRingCapacity(size_t events);

/// Small dense id of the calling thread, assigned on first use, shared with
/// the logging prefix so log lines correlate with trace tracks.
uint32_t CurrentThreadId();

/// Names the calling thread's track in exports ("pool-worker-3"). Cheap;
/// safe to call whether or not tracing is enabled.
void SetThreadName(const std::string& name);

/// Monotonic nanosecond clock used for all trace timestamps.
uint64_t NowNanos();

// ---------------------------------------------------------------------------
// Request contexts.

/// Allocates a token for a server-generated request id. The id string is
/// the token itself ("s<token>"), so no registration or lookup state is
/// needed — the common no-client-rid path stays allocation-free.
uint64_t NextServerRequestToken();

/// Interns a client-supplied request id and returns its token (0 for an
/// empty id). The backing ring holds the most recent ~4096 ids; an evicted
/// token still resolves to a stable placeholder ("c<seq>").
uint64_t RegisterRequestId(std::string_view rid);

/// The id string a token stands for ("" for token 0).
std::string RequestIdForToken(uint64_t token);

/// The calling thread's current request-context token (0 = none).
uint64_t CurrentRequestContext();

/// Installs `token` as the thread's context and returns the previous one.
uint64_t SwapRequestContext(uint64_t token);

/// RAII request context: spans emitted in scope carry `token` and export
/// with the resolved rid. Nests; the previous context is restored on exit.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(uint64_t token)
      : saved_(SwapRequestContext(token)) {}
  ~ScopedRequestContext() { SwapRequestContext(saved_); }

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  uint64_t saved_;
};

/// RAII scoped span. Records [construction, destruction) on the calling
/// thread under `name` (a string literal). When recording is off (or this
/// span loses the sampling draw) the object is inert, including at
/// destruction.
class Span {
 public:
  explicit Span(const char* name)
      : name_(internal::ShouldRecord() ? name : nullptr),
        start_(Begin(name_)) {}
  ~Span() {
    if (name_ != nullptr) End(name_, start_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static uint64_t Begin(const char* name);
  static void End(const char* name, uint64_t start_ns);

  const char* name_;
  uint64_t start_;
};

/// Records a named counter sample at the current time. No-op when recording
/// is off; counters are low-rate and bypass the span sampling draw.
void Counter(const char* name, uint64_t value);

/// One drained event. Spans carry [start_ns, start_ns + duration_ns) and
/// their nesting depth at emission; counters carry a value sampled at
/// start_ns with duration 0.
struct TraceEvent {
  enum class Kind { kSpan, kCounter };
  const char* name = nullptr;
  Kind kind = Kind::kSpan;
  uint64_t start_ns = 0;     // relative to the trace epoch
  uint64_t duration_ns = 0;  // spans only
  uint64_t value = 0;        // counters only
  uint64_t ctx = 0;          // request-context token (0 = none)
  uint32_t tid = 0;
  uint32_t depth = 0;  // spans only: open ancestors when the span closed
};

/// One thread's drained track.
struct ThreadTrack {
  uint32_t tid = 0;
  std::string name;          // "" when never named
  uint64_t dropped = 0;      // events lost to ring wraparound
  std::vector<TraceEvent> events;  // ascending start_ns
};

/// Everything recorded so far, drained without stopping emission.
struct TraceSnapshot {
  std::vector<ThreadTrack> threads;  // ascending tid
  uint64_t total_events = 0;
  uint64_t total_dropped = 0;
};

/// Drains every thread's ring into a snapshot. Safe to call while other
/// threads keep emitting (in-flight events may be missed or half-written
/// slots skipped; nothing torn is returned).
TraceSnapshot Collect();

/// Collect() restricted to events ending within the recorder window
/// (RecorderOptions::window_ns before now) — the /debug/trace payload.
TraceSnapshot CollectRecent();

/// Renders the snapshot in the Chrome trace-event JSON format (complete "X"
/// events plus thread-name metadata), loadable in ui.perfetto.dev and
/// chrome://tracing. Spans with a request context export
/// "args":{"rid":"..."}.
std::string ToChromeTraceJson(const TraceSnapshot& snapshot);

/// Writes ToChromeTraceJson(snapshot) to `path`.
Status WriteChromeTrace(const TraceSnapshot& snapshot,
                        const std::string& path);

/// Installs a fatal-signal handler (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL)
/// that writes ToChromeTraceJson(CollectRecent()) to `path`, then re-raises
/// with the default disposition so the exit status is preserved. Best
/// effort by design: the dump path allocates and takes the registry lock,
/// which is not async-signal-safe — a crash inside the tracer itself may
/// lose the dump, but every other crash gets the flight-recorder window.
/// Idempotent; the last path wins.
Status InstallCrashHandler(const std::string& path);

/// Per-span-name aggregation (count, total, max) plus per-thread track
/// lines — the human-readable companion of the JSON export.
std::string RenderTextSummary(const TraceSnapshot& snapshot);

/// Registers an atexit hook that, at process exit, writes
/// RenderTextSummary(Collect()) to stderr if tracing is still enabled and
/// the summary was not already flushed. Idempotent; FlushExitSummary() runs
/// the same flush early (the serve daemon calls it on clean shutdown so a
/// SIGTERM'd process and a normal exit report identically).
void RegisterExitSummary();
void FlushExitSummary();

}  // namespace skydia::trace

#define SKYDIA_TRACE_CONCAT_INNER(a, b) a##b
#define SKYDIA_TRACE_CONCAT(a, b) SKYDIA_TRACE_CONCAT_INNER(a, b)
/// Scoped span covering the rest of the enclosing block.
#define SKYDIA_TRACE_SPAN(name) \
  ::skydia::trace::Span SKYDIA_TRACE_CONCAT(skydia_trace_span_, __LINE__)(name)

#endif  // SKYDIA_SRC_COMMON_TRACE_H_
