// Server observability: lightweight relaxed-atomic counters plus a
// Prometheus text-format renderer for the /metrics endpoint.
//
// QueryEngine already tracks query counts and a sampled latency histogram
// (src/core/query_engine.h); ServerMetrics adds the transport-level view
// (connections, bytes, protocol errors, reloads). RenderPrometheusMetrics
// joins both with the snapshot's cache counters into one scrape payload.
#ifndef SKYDIA_SRC_SERVE_METRICS_H_
#define SKYDIA_SRC_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>

#include "src/serve/snapshot_registry.h"

namespace skydia::serve {

/// Transport-level serving counters. All relaxed atomics: exact totals, no
/// inter-thread ordering implied.
///
/// Connection-gauge semantics under the reactor: a connection is a state
/// machine owned by the event loop, not a thread. `connections_open` counts
/// state machines registered with epoll; it is incremented on accept and
/// decremented exactly once when the event loop destroys the state machine
/// (read error, EOF drain, idle/oversize/backpressure close, or shutdown) —
/// there is no thread-exit/reaper race for it to double count.
struct ServerMetrics {
  /// Log2 buckets for the reactor-loop-latency histogram: bucket b counts
  /// loop iterations whose epoll_wait-to-idle time fell in [2^b, 2^(b+1)) ns.
  static constexpr size_t kReactorLoopBuckets = 32;
  /// Log2 buckets shared by the request-duration and mutation-publish
  /// histograms (same [2^b, 2^(b+1)) ns scheme, rendered in seconds).
  static constexpr size_t kDurationBuckets = 32;

  // Ordering: every counter in this struct is updated and read with
  // memory_order_relaxed — exact totals, no inter-thread ordering implied.
  std::atomic<uint64_t> connections_opened{0};
  std::atomic<uint64_t> connections_open{0};
  std::atomic<uint64_t> connections_rejected{0};  ///< over max_connections
  std::atomic<uint64_t> requests_total{0};
  std::atomic<uint64_t> error_replies{0};
  std::atomic<uint64_t> malformed_requests{0};
  std::atomic<uint64_t> oversize_disconnects{0};
  std::atomic<uint64_t> idle_disconnects{0};
  /// Connections dropped because the peer stopped draining replies and the
  /// output buffer hit ServerOptions::max_response_bytes (relaxed).
  std::atomic<uint64_t> backpressure_disconnects{0};
  /// Connections whose peer half-closed (FIN) with replies still pending;
  /// the reactor flushed the tail before closing (relaxed).
  std::atomic<uint64_t> half_closed_drains{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> reloads{0};
  std::atomic<uint64_t> reload_failures{0};
  // Mutation pipeline (the serve write path; see mutation_pipeline.h).
  std::atomic<uint64_t> mutation_inserts{0};   ///< inserts applied
  std::atomic<uint64_t> mutation_deletes{0};   ///< deletes applied
  std::atomic<uint64_t> mutation_failures{0};  ///< mutation requests rejected
  std::atomic<uint64_t> mutation_publishes{0};  ///< shadow->snapshot installs
  /// Cells/subcells recomputed across all published mutations — the
  /// incremental win (a full rebuild recomputes every cell per mutation).
  std::atomic<uint64_t> mutation_cells_recomputed{0};
  std::atomic<uint64_t> mutation_pending{0};  ///< gauge: applied, unpublished
  std::atomic<uint64_t> mutation_points_live{0};  ///< gauge at last publish
  /// Gauge: wall time of the last publish (relaxed).
  std::atomic<uint64_t> mutation_last_publish_ns{0};
  /// Gauge: mutations coalesced into the last publish (relaxed).
  std::atomic<uint64_t> mutation_last_publish_mutations{0};
  /// Gauge: cells recomputed by the last publish (relaxed).
  std::atomic<uint64_t> mutation_last_publish_cells{0};
  /// Batches executed by the worker pool (line batches + HTTP requests;
  /// relaxed).
  std::atomic<uint64_t> worker_batches{0};
  /// Small pure-query batches executed inline on the event-loop thread
  /// (the reactor fast path; see SkylineServer::kInlineBatchLines; relaxed).
  std::atomic<uint64_t> inline_batches{0};
  /// Batches currently queued for or running on the worker pool (relaxed
  /// gauge; guarded against underflow by GuardedDecrement).
  std::atomic<uint64_t> worker_queue_depth{0};
  /// Sampled reactor loop-iteration latency (every iteration that handled
  /// at least one event records one sample; relaxed histogram buckets).
  std::array<std::atomic<uint64_t>, kReactorLoopBuckets> reactor_loop_ns{};
  /// Gauge: nanoseconds between the two most recent reactor wakeups — the
  /// loop lag an enqueued completion currently waits (relaxed; written by
  /// the event loop only).
  std::atomic<uint64_t> reactor_loop_lag_ns{0};

  /// End-to-end batch duration (parse -> answer -> render) as seen by
  /// ServeBatch, one sample per batch (relaxed histogram buckets + sum ns +
  /// count; exact totals, no ordering implied).
  std::array<std::atomic<uint64_t>, kDurationBuckets> request_duration_ns{};
  std::atomic<uint64_t> request_duration_sum_ns{0};
  std::atomic<uint64_t> request_duration_count{0};
  /// Exemplars: the most recent request-context token and duration to land
  /// in each bucket, linking tail-latency buckets to concrete request ids
  /// (GET /debug/snapshot). Relaxed independent stores: the token/duration
  /// pair may tear across a concurrent write — acceptable for a debug aid,
  /// never for accounting.
  std::array<std::atomic<uint64_t>, kDurationBuckets> request_exemplar_token{};
  std::array<std::atomic<uint64_t>, kDurationBuckets> request_exemplar_ns{};

  /// Mutation-publish duration (grab -> wrap -> install), one sample per
  /// publish (relaxed histogram buckets + sum ns + count).
  std::array<std::atomic<uint64_t>, kDurationBuckets> mutation_publish_ns{};
  std::atomic<uint64_t> mutation_publish_sum_ns{0};
  std::atomic<uint64_t> mutation_publish_count{0};

  /// Records one reactor loop iteration of `ns` nanoseconds.
  void RecordReactorLoop(uint64_t ns) {
    const auto b = static_cast<size_t>(std::bit_width(ns | 1) - 1);
    reactor_loop_ns[b < kReactorLoopBuckets ? b : kReactorLoopBuckets - 1]
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one served batch of `ns` nanoseconds under request-context
  /// token `ctx` (0 = none; the bucket exemplar is skipped).
  void RecordRequestDuration(uint64_t ns, uint64_t ctx) {
    auto b = static_cast<size_t>(std::bit_width(ns | 1) - 1);
    if (b >= kDurationBuckets) b = kDurationBuckets - 1;
    request_duration_ns[b].fetch_add(1, std::memory_order_relaxed);
    request_duration_sum_ns.fetch_add(ns, std::memory_order_relaxed);
    request_duration_count.fetch_add(1, std::memory_order_relaxed);
    if (ctx != 0) {
      request_exemplar_token[b].store(ctx, std::memory_order_relaxed);
      request_exemplar_ns[b].store(ns, std::memory_order_relaxed);
    }
  }

  /// Records one mutation publish of `ns` nanoseconds.
  void RecordMutationPublish(uint64_t ns) {
    auto b = static_cast<size_t>(std::bit_width(ns | 1) - 1);
    if (b >= kDurationBuckets) b = kDurationBuckets - 1;
    mutation_publish_ns[b].fetch_add(1, std::memory_order_relaxed);
    mutation_publish_sum_ns.fetch_add(ns, std::memory_order_relaxed);
    mutation_publish_count.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Decrements `gauge` unless it is already zero (CAS loop), so a double
/// close can never wrap the open-connections gauge to 2^64-1. Returns false
/// when the decrement was skipped.
bool GuardedDecrement(std::atomic<uint64_t>* gauge);

/// Renders the Prometheus text exposition for one scrape: server counters,
/// the snapshot's engine stats (qps, the sampled latency histogram with
/// p50/p99 gauges) and cache hit ratio, the current generation, and the
/// `skydia_build_info` labeled gauge. `snapshot` may be null (before the
/// first install). `uptime_seconds` feeds the qps gauge.
std::string RenderPrometheusMetrics(const ServerMetrics& metrics,
                                    const ServingSnapshot* snapshot,
                                    double uptime_seconds);

}  // namespace skydia::serve

#endif  // SKYDIA_SRC_SERVE_METRICS_H_
