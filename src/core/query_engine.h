// QueryEngine: the batched, thread-parallel query-serving layer over a built
// skyline diagram — the "answer millions of skyline queries from the
// precomputed partition" half of the paper's precompute-once story.
//
// A single engine wraps one diagram (any of the three semantics) behind a
// PointLocationIndex and serves:
//   * Answer(q)        — one O(log s) lookup, span into the interned arena.
//   * AnswerBatch(qs)  — a batch of queries split into contiguous shards
//     across a ThreadPool, one index lookup per query. Repeated answers are
//     the serve layer's per-snapshot ResultCache's job, not the engine's.
//   * Answer(q, {.exact = true}) — boundary-exact answers under the one
//     exact-answer rule, NeedsOracle (diagram.h): quadrant answers are exact
//     everywhere by construction; global/dynamic queries that land exactly
//     on a grid/bisector line fall back to the O(n log n) oracle
//     (src/skyline/query.h). See point_location.h for the convention.
//
// The engine keeps lightweight serving counters — queries served, batches,
// oracle fallbacks, and a sampled log-bucket latency histogram (every 32nd
// query in a shard is timed) — exposed through Stats(). Counters are atomics
// updated with relaxed ordering: exact totals, no inter-thread ordering
// guarantees.
//
// All serving methods are const and thread-safe; concurrent AnswerBatch
// calls on one engine are allowed (they share the engine's pool and may wait
// on each other's shards, which affects latency, not correctness).
//
// ServableDiagram closes the deployment loop: it loads a serialized blob
// (v1 or v2) and rebuilds the index immediately, so a frozen file is
// servable right after Load() returns. It owns what it serves through
// shared_ptr<const ...> whether the diagram came from a blob or from memory,
// so a producer (the mutation pipeline) can adopt the served objects
// without a copy.
#ifndef SKYDIA_SRC_CORE_QUERY_ENGINE_H_
#define SKYDIA_SRC_CORE_QUERY_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/diagram.h"
#include "src/core/point_location.h"
#include "src/core/range_query.h"
#include "src/core/serialize.h"
#include "src/geometry/dataset.h"
#include "src/geometry/point.h"
#include "src/skyline/interning.h"

namespace skydia {

/// Options for QueryEngine.
struct QueryEngineOptions {
  /// Worker threads for AnswerBatch. 1 serves batches inline on the calling
  /// thread; > 1 creates a dedicated ThreadPool of that size.
  int num_threads = 1;
  /// Batches smaller than this are answered inline even when a pool exists
  /// (sharding overhead dominates below roughly a thousand lookups).
  size_t parallel_batch_threshold = 1024;
};

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
  /// global or dynamic diagram fall back to the O(n log n) oracle (quadrant
  /// diagrams are exact everywhere by construction and never fall back).
  bool exact = false;
  /// The semantics the caller expects. Unset means "whatever this engine
  /// serves". When set and different from the engine's: InvalidArgument
  /// unless `exact` is also set, in which case every answer is computed by
  /// the brute-force oracle under the requested semantics.
  std::optional<SkylineQueryType> semantics;
};

/// Batched query-serving over one diagram. Non-owning: the dataset and
/// diagram must outlive the engine (ServableDiagram bundles ownership).
class QueryEngine {
 public:
  /// Serves a cell diagram. `semantics` selects the exact-answer fallback
  /// oracle (kQuadrant or kGlobal; a cell diagram never encodes kDynamic).
  QueryEngine(const Dataset& dataset, const CellDiagram& diagram,
              SkylineQueryType semantics,
              const QueryEngineOptions& options = {});
  /// Serves a subcell (dynamic) diagram.
  QueryEngine(const Dataset& dataset, const SubcellDiagram& diagram,
              const QueryEngineOptions& options = {});

  /// One query via point location: sorted ids, interior-exact contract (see
  /// point_location.h). The span points into the diagram's arena.
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
  /// query. Runs the sharded SetId fast path underneath and patches in
  /// oracle answers only where `options` require them.
  StatusOr<std::vector<std::vector<PointId>>> AnswerBatch(
      std::span<const Point2D> queries, const QueryOptions& options) const;

  /// Answers every query in `queries`, writing one interned id per query to
  /// `out` (resized to match). Shards across the engine's pool when the
  /// batch is large enough. This is the serving hot path: diagram answers
  /// only (the QueryOptions overload layers exactness on top).
  void AnswerBatch(std::span<const Point2D> queries,
                   std::vector<SetId>* out) const;
  std::vector<SetId> AnswerBatch(std::span<const Point2D> queries) const;

  /// Range query: the union/intersection/distinct-count summary of the
  /// skyline over every position in the closed rectangle (see
  /// range_query.h). Positions carry the index's cell convention — exact
  /// for quadrant diagrams, interior-exact for global/dynamic.
  StatusOr<RangeSkylineSummary> AnswerRange(const QueryRange& range) const;

  /// Members of an interned result set.
  std::span<const PointId> Get(SetId id) const { return index_.Get(id); }

  const PointLocationIndex& index() const { return index_; }
  const Dataset& dataset() const { return *dataset_; }
  SkylineQueryType semantics() const { return semantics_; }

  /// Snapshot of the serving counters.
  QueryEngineStats Stats() const;

 private:
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
  QueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1

  mutable std::atomic<uint64_t> queries_served_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> oracle_fallbacks_{0};
  mutable std::array<std::atomic<uint64_t>, kLatencyBuckets> latency_buckets_{};
};

/// A diagram loaded from disk — or wrapped from memory — together with
/// everything needed to serve it: dataset, diagram, and a ready QueryEngine.
/// One ownership model for both origins: the dataset and diagram are held
/// as shared_ptr<const ...>, which pins the addresses the engine's index
/// references and lets others share them read-only (the publish path wraps
/// the mutation shadow's objects; the shadow adopts a served snapshot's).
/// Movable, not copyable. The one serving type: the snapshot registry, the
/// server and the mutation pipeline hold it directly.
class ServableDiagram {
 public:
  /// Loads a serialized cell or subcell diagram (LoadDiagram: the blob's
  /// kind byte decides) and wraps it. `cell_semantics` tells the engine
  /// which exact-answer oracle a cell blob encodes — the file format does
  /// not record quadrant vs global (kDynamic is inferred from subcell blobs
  /// and must not be passed here).
  static StatusOr<ServableDiagram> Load(
      const std::string& path, const QueryEngineOptions& options = {},
      SkylineQueryType cell_semantics = SkylineQueryType::kQuadrant);

  /// Wraps a diagram for serving and builds the index. Load ends here too;
  /// in-memory callers skip the serializer round trip (the mutation publish
  /// path wraps the shadow diagram's snapshots at zero copy cost).
  /// `cell_semantics` must be kQuadrant or kGlobal, exactly like Load.
  static ServableDiagram Wrap(std::shared_ptr<const Dataset> dataset,
                              std::shared_ptr<const CellDiagram> diagram,
                              SkylineQueryType cell_semantics,
                              const QueryEngineOptions& options = {});
  static ServableDiagram Wrap(std::shared_ptr<const Dataset> dataset,
                              std::shared_ptr<const SubcellDiagram> diagram,
                              const QueryEngineOptions& options = {});

  ServableDiagram(ServableDiagram&&) = default;
  ServableDiagram& operator=(ServableDiagram&&) = default;

  /// The engine answering every query: point batches, exact and range
  /// queries, and the serving counters.
  const QueryEngine& engine() const { return *engine_; }
  const Dataset& dataset() const { return *dataset_; }
  SkylineQueryType type() const { return engine_->semantics(); }

  /// Underlying diagrams (null for the other kind).
  const CellDiagram* cell_diagram() const { return cell_.get(); }
  const SubcellDiagram* subcell_diagram() const { return subcell_.get(); }

  /// The served objects themselves, for a producer that adopts them (the
  /// mutation pipeline seeds its shadow here). Null for the other kind.
  const std::shared_ptr<const Dataset>& shared_dataset() const {
    return dataset_;
  }
  const std::shared_ptr<const CellDiagram>& shared_cell_diagram() const {
    return cell_;
  }
  const std::shared_ptr<const SubcellDiagram>& shared_subcell_diagram()
      const {
    return subcell_;
  }

 private:
  ServableDiagram() = default;

  std::shared_ptr<const Dataset> dataset_;
  std::shared_ptr<const CellDiagram> cell_;
  std::shared_ptr<const SubcellDiagram> subcell_;
  // Declared last so it is destroyed first: its index references the above.
  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_QUERY_ENGINE_H_
