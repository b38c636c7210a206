#include "src/serve/metrics.h"

#include <array>
#include <cstdio>

#include "src/common/version.h"

namespace skydia::serve {

namespace {

void Counter(const char* name, const char* help, uint64_t value,
             std::string* out) {
  out->append("# HELP ").append(name).append(" ").append(help).push_back('\n');
  out->append("# TYPE ").append(name).append(" counter\n");
  out->append(name).append(" ").append(std::to_string(value)).push_back('\n');
}

void Gauge(const char* name, const char* help, double value,
           std::string* out) {
  out->append("# HELP ").append(name).append(" ").append(help).push_back('\n');
  out->append("# TYPE ").append(name).append(" gauge\n");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out->append(name).append(" ").append(buf).push_back('\n');
}

/// Cumulative Prometheus histogram from the engine's log2 buckets: bucket b
/// counts samples in [2^b, 2^(b+1)) ns, so its upper bound is le="2^(b+1)".
/// Trailing empty buckets collapse into +Inf (they add no information and
/// 2^48 ns upper bounds only bloat the scrape).
void LatencyHistogram(const QueryEngineStats& engine, std::string* out) {
  const char* name = "skydia_query_latency_ns";
  out->append("# HELP ").append(name).append(
      " Sampled engine query latency in nanoseconds.\n");
  out->append("# TYPE ").append(name).append(" histogram\n");
  size_t last = 0;
  for (size_t b = 0; b < engine.latency_bucket_counts.size(); ++b) {
    if (engine.latency_bucket_counts[b] > 0) last = b;
  }
  uint64_t cumulative = 0;
  for (size_t b = 0; b <= last; ++b) {
    cumulative += engine.latency_bucket_counts[b];
    out->append(name).append("_bucket{le=\"");
    out->append(std::to_string(uint64_t{1} << (b + 1)));
    out->append("\"} ").append(std::to_string(cumulative)).push_back('\n');
  }
  out->append(name).append("_bucket{le=\"+Inf\"} ");
  out->append(std::to_string(engine.latency_samples)).push_back('\n');
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", engine.approx_latency_sum_ns);
  out->append(name).append("_sum ").append(buf).push_back('\n');
  out->append(name).append("_count ");
  out->append(std::to_string(engine.latency_samples)).push_back('\n');
}

/// Cumulative histogram of the reactor's loop-iteration latency, same log2
/// bucket scheme as the query-latency histogram. Omitted entirely while no
/// iteration has been recorded (thread-per-connection embedders, tests).
void ReactorLoopHistogram(const ServerMetrics& metrics, std::string* out) {
  uint64_t total = 0;
  size_t last = 0;
  std::array<uint64_t, ServerMetrics::kReactorLoopBuckets> counts{};
  for (size_t b = 0; b < counts.size(); ++b) {
    counts[b] = metrics.reactor_loop_ns[b].load(std::memory_order_relaxed);
    total += counts[b];
    if (counts[b] > 0) last = b;
  }
  if (total == 0) return;
  const char* name = "skydia_reactor_loop_ns";
  out->append("# HELP ").append(name).append(
      " Reactor event-loop iteration latency in nanoseconds.\n");
  out->append("# TYPE ").append(name).append(" histogram\n");
  uint64_t cumulative = 0;
  double sum = 0;
  for (size_t b = 0; b <= last; ++b) {
    cumulative += counts[b];
    sum += static_cast<double>(counts[b]) * 1.5 *
           static_cast<double>(uint64_t{1} << b);
    out->append(name).append("_bucket{le=\"");
    out->append(std::to_string(uint64_t{1} << (b + 1)));
    out->append("\"} ").append(std::to_string(cumulative)).push_back('\n');
  }
  out->append(name).append("_bucket{le=\"+Inf\"} ");
  out->append(std::to_string(total)).push_back('\n');
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", sum);
  out->append(name).append("_sum ").append(buf).push_back('\n');
  out->append(name).append("_count ");
  out->append(std::to_string(total)).push_back('\n');
}

/// Cumulative histogram over log2-ns buckets rendered in seconds (upper
/// bound of bucket b is 2^(b+1) ns / 1e9). Trailing empty buckets collapse
/// into +Inf; an all-empty histogram still renders (+Inf/_sum/_count), so a
/// scrape sees every family from the first sample on.
void SecondsHistogram(const char* name, const char* help,
                      const std::array<std::atomic<uint64_t>,
                                       ServerMetrics::kDurationBuckets>& ns,
                      uint64_t sum_ns, uint64_t count, std::string* out) {
  out->append("# HELP ").append(name).append(" ").append(help).push_back('\n');
  out->append("# TYPE ").append(name).append(" histogram\n");
  std::array<uint64_t, ServerMetrics::kDurationBuckets> counts{};
  size_t last = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    counts[b] = ns[b].load(std::memory_order_relaxed);
    if (counts[b] > 0) last = b;
  }
  char buf[64];
  uint64_t cumulative = 0;
  if (count > 0) {
    for (size_t b = 0; b <= last; ++b) {
      cumulative += counts[b];
      std::snprintf(buf, sizeof(buf), "%.9g",
                    static_cast<double>(uint64_t{1} << (b + 1)) / 1e9);
      out->append(name).append("_bucket{le=\"").append(buf);
      out->append("\"} ").append(std::to_string(cumulative)).push_back('\n');
    }
  }
  out->append(name).append("_bucket{le=\"+Inf\"} ");
  out->append(std::to_string(count)).push_back('\n');
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(sum_ns) / 1e9);
  out->append(name).append("_sum ").append(buf).push_back('\n');
  out->append(name).append("_count ");
  out->append(std::to_string(count)).push_back('\n');
}

}  // namespace

bool GuardedDecrement(std::atomic<uint64_t>* gauge) {
  uint64_t current = gauge->load(std::memory_order_relaxed);
  while (current > 0) {
    if (gauge->compare_exchange_weak(current, current - 1,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

std::string RenderPrometheusMetrics(const ServerMetrics& metrics,
                                    const ServingSnapshot* snapshot,
                                    double uptime_seconds) {
  const auto load = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  std::string out;
  out.reserve(4096);

  Counter("skydia_connections_opened_total", "Accepted TCP connections.",
          load(metrics.connections_opened), &out);
  Gauge("skydia_connections_open", "Currently open connections.",
        static_cast<double>(load(metrics.connections_open)), &out);
  Counter("skydia_connections_rejected_total",
          "Connections rejected at the max_connections cap.",
          load(metrics.connections_rejected), &out);
  Counter("skydia_requests_total", "Request lines processed.",
          load(metrics.requests_total), &out);
  Counter("skydia_error_replies_total", "Error reply lines sent.",
          load(metrics.error_replies), &out);
  Counter("skydia_malformed_requests_total",
          "Request lines rejected by the parser.",
          load(metrics.malformed_requests), &out);
  Counter("skydia_oversize_disconnects_total",
          "Connections closed for exceeding max_request_bytes.",
          load(metrics.oversize_disconnects), &out);
  Counter("skydia_idle_disconnects_total",
          "Connections closed by the idle timeout.",
          load(metrics.idle_disconnects), &out);
  Counter("skydia_backpressure_disconnects_total",
          "Connections dropped at the write-backpressure cap.",
          load(metrics.backpressure_disconnects), &out);
  Counter("skydia_half_closed_drains_total",
          "Half-closed connections whose reply tail was flushed.",
          load(metrics.half_closed_drains), &out);
  Counter("skydia_worker_batches_total",
          "Request batches executed by the worker pool.",
          load(metrics.worker_batches), &out);
  Counter("skydia_inline_batches_total",
          "Small query batches executed inline on the event-loop thread.",
          load(metrics.inline_batches), &out);
  Gauge("skydia_worker_queue_depth",
        "Batches queued for or running on the worker pool.",
        static_cast<double>(load(metrics.worker_queue_depth)), &out);
  ReactorLoopHistogram(metrics, &out);
  Gauge("skydia_reactor_loop_lag_seconds",
        "Seconds between the two most recent reactor wakeups.",
        static_cast<double>(load(metrics.reactor_loop_lag_ns)) / 1e9, &out);
  SecondsHistogram("skydia_request_duration_seconds",
                   "End-to-end batch duration (parse, answer, render).",
                   metrics.request_duration_ns,
                   load(metrics.request_duration_sum_ns),
                   load(metrics.request_duration_count), &out);
  SecondsHistogram("skydia_mutation_publish_duration_seconds",
                   "Mutation publish duration (grab, wrap, install).",
                   metrics.mutation_publish_ns,
                   load(metrics.mutation_publish_sum_ns),
                   load(metrics.mutation_publish_count), &out);
  Counter("skydia_bytes_received_total", "Bytes read from clients.",
          load(metrics.bytes_received), &out);
  Counter("skydia_bytes_sent_total", "Bytes written to clients.",
          load(metrics.bytes_sent), &out);
  Counter("skydia_reloads_total", "Successful snapshot reloads.",
          load(metrics.reloads), &out);
  Counter("skydia_reload_failures_total",
          "Reload attempts that kept the old snapshot.",
          load(metrics.reload_failures), &out);
  Counter("skydia_mutation_inserts_total", "Insert mutations applied.",
          load(metrics.mutation_inserts), &out);
  Counter("skydia_mutation_deletes_total", "Delete mutations applied.",
          load(metrics.mutation_deletes), &out);
  Counter("skydia_mutation_failures_total", "Mutation requests rejected.",
          load(metrics.mutation_failures), &out);
  Counter("skydia_mutation_publishes_total",
          "Mutation batches published as new snapshots.",
          load(metrics.mutation_publishes), &out);
  Counter("skydia_mutation_cells_recomputed_total",
          "Cells recomputed by the incremental mutation path.",
          load(metrics.mutation_cells_recomputed), &out);
  Gauge("skydia_mutation_pending",
        "Mutations applied to the shadow but not yet published.",
        static_cast<double>(load(metrics.mutation_pending)), &out);
  Gauge("skydia_mutation_points_live",
        "Points in the last published mutation snapshot.",
        static_cast<double>(load(metrics.mutation_points_live)), &out);
  Gauge("skydia_mutation_last_publish_ns",
        "Wrap-and-install latency of the last mutation publish.",
        static_cast<double>(load(metrics.mutation_last_publish_ns)), &out);
  Gauge("skydia_mutation_last_publish_mutations",
        "Mutations coalesced into the last publish.",
        static_cast<double>(load(metrics.mutation_last_publish_mutations)),
        &out);
  Gauge("skydia_mutation_last_publish_cells",
        "Cells recomputed across the last publish's batch.",
        static_cast<double>(load(metrics.mutation_last_publish_cells)), &out);
  Gauge("skydia_uptime_seconds", "Seconds since the server started.",
        uptime_seconds, &out);

  if (snapshot == nullptr) return out;

  Gauge("skydia_snapshot_generation", "Generation of the serving snapshot.",
        static_cast<double>(snapshot->generation), &out);
  Gauge("skydia_snapshot_points", "Points in the serving dataset.",
        static_cast<double>(snapshot->diagram->dataset().size()), &out);

  const QueryEngineStats engine = snapshot->diagram->engine().Stats();
  Counter("skydia_queries_served_total",
          "Queries answered by the current snapshot's engine.",
          engine.queries_served, &out);
  Counter("skydia_oracle_fallbacks_total",
          "Queries answered by the brute-force oracle.",
          engine.oracle_fallbacks, &out);
  if (uptime_seconds > 0) {
    Gauge("skydia_queries_per_second",
          "Engine queries averaged over the uptime.",
          static_cast<double>(engine.queries_served) / uptime_seconds, &out);
  }
  Gauge("skydia_query_latency_p50_ns",
        "Median engine latency (sampled, log2 buckets).",
        engine.p50_latency_ns, &out);
  Gauge("skydia_query_latency_p99_ns",
        "p99 engine latency (sampled, log2 buckets).", engine.p99_latency_ns,
        &out);
  LatencyHistogram(engine, &out);

  // Info-pattern gauge: constant 1, the payload lives in the labels.
  out.append(
      "# HELP skydia_build_info Version and dataset of the serving "
      "snapshot.\n# TYPE skydia_build_info gauge\n");
  out.append("skydia_build_info{version=\"").append(kVersion);
  out.append("\",commit=\"").append(BuildCommit());
  out.append("\",generation=\"")
      .append(std::to_string(snapshot->generation));
  out.append("\",points=\"")
      .append(std::to_string(snapshot->diagram->dataset().size()));
  out.append("\",cells=\"")
      .append(
          std::to_string(snapshot->diagram->engine().index().num_cells()));
  out.append("\"} 1\n");

  const ResultCacheStats cache = snapshot->cache->Stats();
  Counter("skydia_cache_hits_total", "Result cache hits.", cache.hits, &out);
  Counter("skydia_cache_misses_total", "Result cache misses.", cache.misses,
          &out);
  Counter("skydia_cache_evictions_total", "Result cache evictions.",
          cache.evictions, &out);
  Gauge("skydia_cache_entries", "Resident result cache entries.",
        static_cast<double>(cache.entries), &out);
  Gauge("skydia_cache_value_bytes", "Resident result cache payload bytes.",
        static_cast<double>(cache.value_bytes), &out);
  const uint64_t probes = cache.hits + cache.misses;
  Gauge("skydia_cache_hit_ratio",
        "Hits over lookups for the current snapshot's cache.",
        probes == 0 ? 0.0
                    : static_cast<double>(cache.hits) /
                          static_cast<double>(probes),
        &out);
  return out;
}

}  // namespace skydia::serve
