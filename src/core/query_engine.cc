#include "src/core/query_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>
#include <variant>

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace skydia {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

QueryEngine::QueryEngine(const Dataset& dataset, const CellDiagram& diagram,
                         SkylineQueryType semantics,
                         const QueryEngineOptions& options)
    : index_(diagram),
      dataset_(&dataset),
      semantics_(semantics),
      options_(options) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(options_.num_threads));
  }
}

QueryEngine::QueryEngine(const Dataset& dataset, const SubcellDiagram& diagram,
                         const QueryEngineOptions& options)
    : index_(diagram),
      dataset_(&dataset),
      semantics_(SkylineQueryType::kDynamic),
      options_(options) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(options_.num_threads));
  }
}

std::span<const PointId> QueryEngine::Answer(const Point2D& q) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return index_.Query(q);
}

SetId QueryEngine::AnswerSetId(const Point2D& q) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return index_.LocateSet(q);
}

std::vector<PointId> QueryEngine::OracleAnswer(SkylineQueryType semantics,
                                               const Point2D& q) const {
  oracle_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return OracleSkyline(*dataset_, semantics, q);
}

StatusOr<std::vector<PointId>> QueryEngine::Answer(
    const Point2D& q, const QueryOptions& options) const {
  const SkylineQueryType want = options.semantics.value_or(semantics_);
  if (want != semantics_) {
    if (!options.exact) {
      return Status::InvalidArgument(
          std::string("this engine serves ") +
          SkylineQueryTypeName(semantics_) + " semantics; answering a " +
          SkylineQueryTypeName(want) +
          " query needs the oracle path (set QueryOptions::exact)");
    }
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    return OracleAnswer(want, q);
  }
  if (options.exact && NeedsOracle(semantics_, index_, q)) {
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    return OracleAnswer(semantics_, q);
  }
  const std::span<const PointId> result = Answer(q);
  return std::vector<PointId>(result.begin(), result.end());
}

StatusOr<std::vector<std::vector<PointId>>> QueryEngine::AnswerBatch(
    std::span<const Point2D> queries, const QueryOptions& options) const {
  const SkylineQueryType want = options.semantics.value_or(semantics_);
  if (want != semantics_ && !options.exact) {
    return Status::InvalidArgument(
        std::string("this engine serves ") + SkylineQueryTypeName(semantics_) +
        " semantics; answering a " + SkylineQueryTypeName(want) +
        " batch needs the oracle path (set QueryOptions::exact)");
  }
  std::vector<std::vector<PointId>> out(queries.size());
  if (want != semantics_) {
    for (size_t i = 0; i < queries.size(); ++i) {
      out[i] = OracleAnswer(want, queries[i]);
    }
    queries_served_.fetch_add(queries.size(), std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  std::vector<SetId> sets;
  AnswerBatch(queries, &sets);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (options.exact && NeedsOracle(semantics_, index_, queries[i])) {
      out[i] = OracleAnswer(semantics_, queries[i]);
    } else {
      const std::span<const PointId> ids = index_.Get(sets[i]);
      out[i].assign(ids.begin(), ids.end());
    }
  }
  return out;
}

StatusOr<RangeSkylineSummary> QueryEngine::AnswerRange(
    const QueryRange& range) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return RangeSkylineSummarize(index_, range);
}

void QueryEngine::AnswerShard(std::span<const Point2D> queries,
                              SetId* out) const {
  SKYDIA_TRACE_SPAN("query.shard");
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool sampled = (i % kLatencySampleStride) == 0;
    const uint64_t start = sampled ? NowNanos() : 0;
    out[i] = index_.LocateSet(queries[i]);
    if (sampled) RecordLatency(NowNanos() - start);
  }
  queries_served_.fetch_add(queries.size(), std::memory_order_relaxed);
}

void QueryEngine::AnswerBatch(std::span<const Point2D> queries,
                              std::vector<SetId>* out) const {
  SKYDIA_TRACE_SPAN("query.batch");
  batches_.fetch_add(1, std::memory_order_relaxed);
  out->resize(queries.size());
  if (pool_ == nullptr || queries.size() < options_.parallel_batch_threshold) {
    AnswerShard(queries, out->data());
    return;
  }
  // One contiguous shard per worker: disjoint output ranges, publication via
  // the pool's WaitIdle handshake.
  const size_t shards = pool_->num_threads();
  const size_t chunk = (queries.size() + shards - 1) / shards;
  SetId* const out_data = out->data();
  // Request context is thread-local; re-establish it on each pool worker so
  // the shard spans carry the calling request's id.
  const uint64_t ctx = trace::CurrentRequestContext();
  pool_->ParallelFor(shards, [&, ctx](size_t shard) {
    const size_t begin = shard * chunk;
    if (begin >= queries.size()) return;
    trace::ScopedRequestContext ctx_scope(ctx);
    const size_t end = std::min(queries.size(), begin + chunk);
    AnswerShard(queries.subspan(begin, end - begin), out_data + begin);
  });
}

std::vector<SetId> QueryEngine::AnswerBatch(
    std::span<const Point2D> queries) const {
  std::vector<SetId> out;
  AnswerBatch(queries, &out);
  return out;
}

void QueryEngine::RecordLatency(uint64_t ns) const {
  const auto bucket = static_cast<size_t>(std::bit_width(ns | 1) - 1);
  latency_buckets_[std::min(bucket, kLatencyBuckets - 1)].fetch_add(
      1, std::memory_order_relaxed);
}

QueryEngineStats QueryEngine::Stats() const {
  QueryEngineStats stats;
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.oracle_fallbacks = oracle_fallbacks_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    const uint64_t count = latency_buckets_[b].load(std::memory_order_relaxed);
    stats.latency_bucket_counts[b] = count;
    stats.latency_samples += count;
    stats.approx_latency_sum_ns +=
        static_cast<double>(count) * 1.5 *
        static_cast<double>(uint64_t{1} << b);
  }
  if (stats.latency_samples == 0) return stats;
  const auto& counts = stats.latency_bucket_counts;
  const auto percentile = [&](double fraction) {
    const auto target = static_cast<uint64_t>(
        fraction * static_cast<double>(stats.latency_samples - 1));
    uint64_t seen = 0;
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      seen += counts[b];
      if (counts[b] > 0 && seen > target) {
        // Midpoint of the power-of-two bucket [2^b, 2^(b+1)).
        return 1.5 * static_cast<double>(uint64_t{1} << b);
      }
    }
    return 0.0;
  };
  stats.p50_latency_ns = percentile(0.50);
  stats.p99_latency_ns = percentile(0.99);
  return stats;
}

StatusOr<ServableDiagram> ServableDiagram::Load(
    const std::string& path, const QueryEngineOptions& options,
    SkylineQueryType cell_semantics) {
  if (cell_semantics == SkylineQueryType::kDynamic) {
    return Status::InvalidArgument(
        "cell_semantics must be kQuadrant or kGlobal; dynamic semantics are "
        "inferred from subcell blobs");
  }
  SKYDIA_TRACE_SPAN("load");
  StatusOr<LoadedDiagram> loaded = [&] {
    SKYDIA_TRACE_SPAN("load.blob");
    return LoadDiagram(path);
  }();
  if (!loaded.ok()) return loaded.status();
  if (auto* cell = std::get_if<LoadedCellDiagram>(&*loaded)) {
    return Wrap(std::make_shared<const Dataset>(std::move(cell->dataset)),
                std::make_shared<const CellDiagram>(std::move(cell->diagram)),
                cell_semantics, options);
  }
  auto& subcell = std::get<LoadedSubcellDiagram>(*loaded);
  return Wrap(std::make_shared<const Dataset>(std::move(subcell.dataset)),
              std::make_shared<const SubcellDiagram>(
                  std::move(subcell.diagram)),
              options);
}

ServableDiagram ServableDiagram::Wrap(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const CellDiagram> diagram,
    SkylineQueryType cell_semantics, const QueryEngineOptions& options) {
  SKYDIA_CHECK(cell_semantics != SkylineQueryType::kDynamic);
  ServableDiagram servable;
  servable.dataset_ = std::move(dataset);
  servable.cell_ = std::move(diagram);
  SKYDIA_TRACE_SPAN("index.build");
  servable.engine_ = std::make_unique<QueryEngine>(
      *servable.dataset_, *servable.cell_, cell_semantics, options);
  return servable;
}

ServableDiagram ServableDiagram::Wrap(
    std::shared_ptr<const Dataset> dataset,
    std::shared_ptr<const SubcellDiagram> diagram,
    const QueryEngineOptions& options) {
  ServableDiagram servable;
  servable.dataset_ = std::move(dataset);
  servable.subcell_ = std::move(diagram);
  SKYDIA_TRACE_SPAN("index.build");
  servable.engine_ = std::make_unique<QueryEngine>(
      *servable.dataset_, *servable.subcell_, options);
  return servable;
}

}  // namespace skydia
