// Experiment fig14-highdim: the d-dimensional diagram constructions
// (baseline vs DSG vs scanning) for d = 3 and d = 4 on small cardinalities —
// the O(n^d) hyper-cell grid dominates everything, which is why the paper
// treats high dimensions as an extension rather than a workhorse.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/highdim.h"

namespace skydia::bench {
namespace {

DatasetNd MakeNd(int64_t n, int dims) {
  DataGenOptions options;
  options.n = static_cast<size_t>(n);
  options.domain_size = 256;
  options.seed = kBenchSeed;
  auto nd = GenerateDatasetNd(options, dims);
  SKYDIA_CHECK(nd.ok());
  return std::move(nd).value();
}

void HighDimArgs(benchmark::internal::Benchmark* b) {
  for (const int64_t n : {12, 16, 20, 24}) b->Args({3, n});
  for (const int64_t n : {8, 10, 12}) b->Args({4, n});
  b->ArgNames({"d", "n"})->Unit(benchmark::kMillisecond)->Iterations(1);
}

void BM_NdBaseline(benchmark::State& state) {
  const DatasetNd ds = MakeNd(state.range(1), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const NdCellDiagram diagram = BuildNdBaseline(ds);
    benchmark::DoNotOptimize(diagram.CellSkyline(0).data());
  }
}
BENCHMARK(BM_NdBaseline)->Apply(HighDimArgs);

void BM_NdDsg(benchmark::State& state) {
  const DatasetNd ds = MakeNd(state.range(1), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const NdCellDiagram diagram = BuildNdDsg(ds);
    benchmark::DoNotOptimize(diagram.CellSkyline(0).data());
  }
}
BENCHMARK(BM_NdDsg)->Apply(HighDimArgs);

void BM_NdScanning(benchmark::State& state) {
  const DatasetNd ds = MakeNd(state.range(1), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const NdCellDiagram diagram = BuildNdScanning(ds);
    benchmark::DoNotOptimize(diagram.CellSkyline(0).data());
  }
}
BENCHMARK(BM_NdScanning)->Apply(HighDimArgs);

void BM_NdScanningInclusionExclusion(benchmark::State& state) {
  const DatasetNd ds = MakeNd(state.range(1), static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const NdCellDiagram diagram = BuildNdScanningInclusionExclusion(ds);
    benchmark::DoNotOptimize(diagram.CellSkyline(0).data());
  }
}
BENCHMARK(BM_NdScanningInclusionExclusion)->Apply(HighDimArgs);

}  // namespace
}  // namespace skydia::bench

SKYDIA_BENCH_MAIN(bench_highdim);
