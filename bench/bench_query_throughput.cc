// Experiment tab3-query: the payoff of precomputation. Answering a skyline
// query through the diagram is a point-location lookup; computing it from
// scratch is an O(n log n) scan. This is the paper's core motivation — the
// skyline counterpart of answering kNN via a Voronoi diagram.
//
// Three serving paths over the same query stream:
//   BM_QueryFromScratch       — no precomputation, linear scan per query
//   BM_QueryViaIndex          — PointLocationIndex lookup, O(log s)
//   BM_QueryBatchedParallel   — QueryEngine::AnswerBatch sharded over a pool
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/thread_pool.h"
#include "src/core/diagram.h"
#include "src/core/point_location.h"
#include "src/core/query_engine.h"
#include "src/datagen/workload.h"
#include "src/skyline/query.h"

namespace skydia::bench {
namespace {

constexpr size_t kQueries = 4096;

void QueryArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n = 256; n <= 4096; n *= 4) b->Args({n});
  b->ArgNames({"n"})->Unit(benchmark::kMicrosecond);
}

void BM_QueryViaQuadrantDiagram(benchmark::State& state) {
  const Dataset ds =
      MakeDataset(state.range(0), 1 << 16, Distribution::kIndependent);
  auto diagram = SkylineDiagram::Build(
      MakeDataset(state.range(0), 1 << 16, Distribution::kIndependent),
      SkylineQueryType::kQuadrant);
  SKYDIA_CHECK(diagram.ok());
  const auto queries = GenerateQueries(ds, kQueries, kBenchSeed);
  size_t i = 0;
  for (auto _ : state) {
    const auto result = diagram->Query(queries[i++ % kQueries]);
    benchmark::DoNotOptimize(result.data());
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_QueryViaQuadrantDiagram)->Apply(QueryArgs);

void BM_QueryViaIndex(benchmark::State& state) {
  const Dataset ds =
      MakeDataset(state.range(0), 1 << 16, Distribution::kIndependent);
  auto diagram = SkylineDiagram::Build(ds, SkylineQueryType::kQuadrant);
  SKYDIA_CHECK(diagram.ok());
  const PointLocationIndex index(*diagram->cell_diagram());
  const auto queries = GenerateQueries(ds, kQueries, kBenchSeed);
  size_t i = 0;
  for (auto _ : state) {
    const auto result = index.Query(queries[i++ % kQueries]);
    benchmark::DoNotOptimize(result.data());
    benchmark::DoNotOptimize(result.size());
  }
}
BENCHMARK(BM_QueryViaIndex)->Apply(QueryArgs);

void BM_QueryBatchedParallel(benchmark::State& state) {
  const Dataset ds =
      MakeDataset(state.range(0), 1 << 16, Distribution::kIndependent);
  auto diagram = SkylineDiagram::Build(ds, SkylineQueryType::kQuadrant);
  SKYDIA_CHECK(diagram.ok());
  const QueryEngine& engine = diagram->engine();
  // One thread answers on the calling thread, as the engine does without a
  // pool; kQueries is past the engine's split threshold.
  std::unique_ptr<ThreadPool> pool;
  if (state.range(1) > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(state.range(1)));
  }
  const auto queries = GenerateQueries(ds, kQueries, kBenchSeed);
  std::vector<SetId> out;
  for (auto _ : state) {
    engine.AnswerBatch(queries, &out, pool.get());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kQueries));
}
BENCHMARK(BM_QueryBatchedParallel)
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 4})
    ->ArgNames({"n", "threads"})
    ->Unit(benchmark::kMicrosecond)
    // The batch runs on pool threads while the main thread waits; rates
    // from main-thread CPU time would count only that wait.
    ->UseRealTime();

// The tracing overhead budget: with tracing off, SKYDIA_TRACE_SPAN must cost
// one relaxed load — far below 1% of even the cheapest indexed query above
// (compare ns_per_span against BM_QueryViaIndex rows in the same table). The
// SKYDIA_CHECK is the compiled-in guard that the fast path is actually taken:
// a regression that leaves tracing enabled by default fails the binary.
void BM_TraceSpanDisabled(benchmark::State& state) {
  SKYDIA_CHECK(!trace::Enabled());
  for (auto _ : state) {
    SKYDIA_TRACE_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
  // The Time column (and real_time_ns in the baseline) is ns per span.
  state.SetLabel("trace-disabled-fastpath");
}
BENCHMARK(BM_TraceSpanDisabled)->Unit(benchmark::kNanosecond);

void BM_TraceSpanSampled(benchmark::State& state) {
  // The always-on flight recorder keeps spans in sampled mode: every span
  // pays the countdown decrement, one in sample_period also records. The
  // acceptance gate holds this within 2x the disabled fast path.
  trace::RecorderOptions options;
  options.sample_period = 256;
  trace::EnableFlightRecorder(options);
  SKYDIA_CHECK(!trace::Enabled());
  for (auto _ : state) {
    SKYDIA_TRACE_SPAN("bench.sampled");
    benchmark::ClobberMemory();
  }
  trace::DisableFlightRecorder();
  state.SetLabel("trace-sampled-flightrecorder");
}
BENCHMARK(BM_TraceSpanSampled)->Unit(benchmark::kNanosecond);

void BM_QueryFromScratch(benchmark::State& state) {
  const Dataset ds =
      MakeDataset(state.range(0), 1 << 16, Distribution::kIndependent);
  const auto queries = GenerateQueries(ds, kQueries, kBenchSeed);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FirstQuadrantSkyline(ds, queries[i++ % kQueries]));
  }
}
BENCHMARK(BM_QueryFromScratch)->Apply(QueryArgs);

void BM_DynamicQueryViaDiagram(benchmark::State& state) {
  auto diagram = SkylineDiagram::Build(
      MakeDataset(state.range(0), 512, Distribution::kIndependent),
      SkylineQueryType::kDynamic);
  SKYDIA_CHECK(diagram.ok());
  const auto queries =
      GenerateQueries(diagram->dataset(), kQueries, kBenchSeed);
  size_t i = 0;
  for (auto _ : state) {
    const auto result = diagram->Query(queries[i++ % kQueries]);
    benchmark::DoNotOptimize(result.data());
  }
}
BENCHMARK(BM_DynamicQueryViaDiagram)
    ->Args({64})
    ->Args({128})
    ->ArgNames({"n"})
    ->Unit(benchmark::kMicrosecond);

void BM_DynamicQueryViaIndex(benchmark::State& state) {
  auto diagram = SkylineDiagram::Build(
      MakeDataset(state.range(0), 512, Distribution::kIndependent),
      SkylineQueryType::kDynamic);
  SKYDIA_CHECK(diagram.ok());
  const PointLocationIndex index(*diagram->subcell_diagram());
  const auto queries =
      GenerateQueries(diagram->dataset(), kQueries, kBenchSeed);
  size_t i = 0;
  for (auto _ : state) {
    const auto result = index.Query(queries[i++ % kQueries]);
    benchmark::DoNotOptimize(result.data());
  }
}
BENCHMARK(BM_DynamicQueryViaIndex)
    ->Args({64})
    ->Args({128})
    ->ArgNames({"n"})
    ->Unit(benchmark::kMicrosecond);

void BM_DynamicQueryFromScratch(benchmark::State& state) {
  const Dataset ds =
      MakeDataset(state.range(0), 512, Distribution::kIndependent);
  const auto queries = GenerateQueries(ds, kQueries, kBenchSeed);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DynamicSkyline(ds, queries[i++ % kQueries]));
  }
}
BENCHMARK(BM_DynamicQueryFromScratch)
    ->Args({64})
    ->Args({128})
    ->ArgNames({"n"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace skydia::bench

SKYDIA_BENCH_MAIN(bench_query_throughput);
