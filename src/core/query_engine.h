// QueryEngine: the batched query-serving layer over a built skyline
// diagram — the "answer millions of skyline queries from the precomputed
// partition" half of the paper's precompute-once story.
//
// A single engine wraps one diagram (any of the three semantics) behind a
// PointLocationIndex and serves:
//   * Answer(q)        — one O(log s) lookup, span into the interned arena.
//   * AnswerBatch(qs)  — one index lookup per query, on the calling thread,
//     or split into contiguous shards across a ThreadPool the caller passes
//     in. Repeated answers are the serve layer's per-snapshot ResultCache's
//     job, not the engine's.
//   * Answer(q, {.exact = true}) — boundary-exact answers under the one
//     exact-answer rule, NeedsOracle (diagram.h): quadrant and global
//     answers are exact everywhere by construction; dynamic queries that
//     land exactly on a grid/bisector line fall back to the O(n log n)
//     oracle (src/skyline/query.h). See point_location.h for the convention.
//
// The engine keeps lightweight serving counters — queries served, batches,
// oracle fallbacks, and a sampled log-bucket latency histogram (every 32nd
// query in a shard is timed) — exposed through Stats(). Counters are atomics
// updated with relaxed ordering: exact totals, no inter-thread ordering
// guarantees.
//
// The engine owns no threads. All serving methods are const and thread-safe;
// concurrent AnswerBatch calls on one engine are allowed, also over one
// shared pool (they may wait on each other's shards, which affects latency,
// not correctness).
//
// Each SkylineDiagram (diagram.h) owns exactly one engine, built when the
// diagram is built, loaded or wrapped; nothing else constructs one, so one
// diagram has one index and one set of counters. Reach it through
// SkylineDiagram::engine().
#ifndef SKYDIA_SRC_CORE_QUERY_ENGINE_H_
#define SKYDIA_SRC_CORE_QUERY_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/diagram.h"
#include "src/core/point_location.h"
#include "src/core/range_query.h"
#include "src/geometry/dataset.h"
#include "src/geometry/point.h"
#include "src/skyline/interning.h"

namespace skydia {

class ThreadPool;

/// Serving statistics. Latency percentiles come from sampled measurements
/// (every 32nd query of a shard), reported as the midpoint of a power-of-two
/// nanosecond bucket; 0 when nothing was sampled yet.
struct QueryEngineStats {
  /// Log2 latency buckets: bucket b counts samples in [2^b, 2^(b+1)) ns.
  static constexpr size_t kNumLatencyBuckets = 48;

  uint64_t queries_served = 0;
  uint64_t batches = 0;
  uint64_t oracle_fallbacks = 0;
  uint64_t latency_samples = 0;
  double p50_latency_ns = 0;
  double p99_latency_ns = 0;
  /// Raw sampled bucket counts (the Prometheus histogram source) and their
  /// approximate sum (each sample counted at its bucket midpoint).
  std::array<uint64_t, kNumLatencyBuckets> latency_bucket_counts{};
  double approx_latency_sum_ns = 0;
};

/// Per-query options for the general Answer/AnswerBatch entry points. The
/// one signature family shared by the single-query, batched, CLI and serving
/// paths (replaces the earlier positional-bool spellings).
struct QueryOptions {
  /// Answer exactly at every position: queries on grid/bisector lines of a
  /// dynamic diagram fall back to the O(n log n) oracle (quadrant and global
  /// diagrams are exact everywhere by construction and never fall back).
  bool exact = false;
  /// The semantics the caller expects. Unset means "whatever this engine
  /// serves". When set and different from the engine's: InvalidArgument
  /// unless `exact` is also set, in which case every answer is computed by
  /// the brute-force oracle under the requested semantics.
  std::optional<SkylineQueryType> semantics;
};

/// Batched query-serving over one diagram. Non-owning: the SkylineDiagram
/// that constructs it holds the dataset and diagram it references.
class QueryEngine {
 public:
  /// AnswerBatch splits a batch across a caller's pool only from this many
  /// queries on; below it the sharding overhead dominates the lookups.
  static constexpr size_t kParallelBatchThreshold = 1024;

  /// One query via point location: sorted ids, under the index's cell
  /// convention (see point_location.h). The span points into the diagram's
  /// arena.
  std::span<const PointId> Answer(const Point2D& q) const;

  /// One query, returning the interned result-set id (compact answer for
  /// callers that dedupe or forward ids; resolve with Get()).
  SetId AnswerSetId(const Point2D& q) const;

  /// One query under `options` (see QueryOptions). The general entry point:
  /// exactness and semantics mismatches are handled here; the only error is
  /// InvalidArgument for a semantics mismatch without `options.exact`.
  StatusOr<std::vector<PointId>> Answer(const Point2D& q,
                                        const QueryOptions& options) const;

  /// Every query in `queries` under the same `options`, one id vector per
  /// query. Runs the SetId fast path underneath (over `pool` when given) and
  /// patches in oracle answers only where `options` require them.
  StatusOr<std::vector<std::vector<PointId>>> AnswerBatch(
      std::span<const Point2D> queries, const QueryOptions& options,
      ThreadPool* pool = nullptr) const;

  /// Answers every query in `queries`, writing one interned id per query to
  /// `out` (resized to match). Runs on the calling thread, or in one
  /// contiguous shard per worker of `pool` when one is given and the batch
  /// has at least kParallelBatchThreshold queries. This is the serving hot
  /// path: diagram answers only (the QueryOptions overload layers exactness
  /// on top).
  void AnswerBatch(std::span<const Point2D> queries, std::vector<SetId>* out,
                   ThreadPool* pool = nullptr) const;
  std::vector<SetId> AnswerBatch(std::span<const Point2D> queries,
                                 ThreadPool* pool = nullptr) const;

  /// Range query: the union/intersection/distinct-count summary of the
  /// skyline over every position in the closed rectangle (see
  /// range_query.h). Positions carry the index's cell convention — exact
  /// for quadrant and global diagrams, interior-exact for dynamic ones.
  StatusOr<RangeSkylineSummary> AnswerRange(const QueryRange& range) const;

  /// Members of an interned result set.
  std::span<const PointId> Get(SetId id) const { return index_.Get(id); }

  const PointLocationIndex& index() const { return index_; }
  const Dataset& dataset() const { return *dataset_; }
  SkylineQueryType semantics() const { return semantics_; }

  /// Snapshot of the serving counters.
  QueryEngineStats Stats() const;

 private:
  friend class SkylineDiagram;

  /// Serves a cell diagram under `semantics` (kQuadrant or kGlobal, as
  /// DiagramSemantics reads the table).
  QueryEngine(const Dataset& dataset, const CellDiagram& diagram,
              SkylineQueryType semantics);
  /// Serves a subcell (dynamic) diagram.
  QueryEngine(const Dataset& dataset, const SubcellDiagram& diagram);

  static constexpr size_t kLatencyBuckets =
      QueryEngineStats::kNumLatencyBuckets;
  static constexpr size_t kLatencySampleStride = 32;

  /// Answers queries[i] -> out[i] for one contiguous shard (counters merged
  /// into the atomics once per shard).
  void AnswerShard(std::span<const Point2D> queries, SetId* out) const;
  void RecordLatency(uint64_t ns) const;

  /// Brute-force answer under `semantics`; bumps the oracle counter.
  std::vector<PointId> OracleAnswer(SkylineQueryType semantics,
                                    const Point2D& q) const;

  PointLocationIndex index_;
  const Dataset* dataset_;
  SkylineQueryType semantics_;

  mutable std::atomic<uint64_t> queries_served_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> oracle_fallbacks_{0};
  mutable std::array<std::atomic<uint64_t>, kLatencyBuckets> latency_buckets_{};
};

/// The serving benchmark's name for SkylineDiagram; nothing else uses it.
using ServableDiagram = SkylineDiagram;

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_QUERY_ENGINE_H_
