// Experiment fig10-quadrant-n: construction time of the four quadrant
// skyline-diagram algorithms vs dataset cardinality n, one series per data
// distribution (correlated / independent / anti-correlated), plus the kAuto
// staircase scan that builds Algorithm 3's diagram in O(cells) time.
//
// Expected shape (paper §VI): baseline slowest; DSG and scanning close and
// well below baseline (work proportional to DSG links / surviving skyline
// sizes); sweeping fastest by an order of magnitude since it never touches
// per-cell skylines. Absolute numbers are machine-specific.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/quadrant_sweeping.h"

namespace skydia::bench {
namespace {

void ArgsForCellBuilders(benchmark::internal::Benchmark* b, int64_t max_n) {
  for (int64_t dist = 0; dist < 3; ++dist) {
    for (int64_t n = 128; n <= max_n; n *= 2) {
      b->Args({dist, n});
    }
  }
  b->ArgNames({"dist", "n"})->Unit(benchmark::kMillisecond);
}

void BM_QuadrantBaseline(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(1), 1 << 16,
                                 DistributionFromIndex(state.range(0)));
  for (auto _ : state) {
    const SkylineDiagram diagram = BuildDiagram(
        ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kBaseline);
    benchmark::DoNotOptimize(diagram.cell_diagram()->CellSkyline(0, 0).data());
  }
  state.SetLabel(DistributionName(DistributionFromIndex(state.range(0))));
}
BENCHMARK(BM_QuadrantBaseline)->Apply([](auto* b) {
  ArgsForCellBuilders(b, 512);
});

void BM_QuadrantDsg(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(1), 1 << 16,
                                 DistributionFromIndex(state.range(0)));
  for (auto _ : state) {
    const SkylineDiagram diagram =
        BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kDsg);
    benchmark::DoNotOptimize(diagram.cell_diagram()->CellSkyline(0, 0).data());
  }
  state.SetLabel(DistributionName(DistributionFromIndex(state.range(0))));
}
BENCHMARK(BM_QuadrantDsg)->Apply([](auto* b) {
  ArgsForCellBuilders(b, 1024);
});

void BM_QuadrantScanning(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(1), 1 << 16,
                                 DistributionFromIndex(state.range(0)));
  for (auto _ : state) {
    const SkylineDiagram diagram = BuildDiagram(
        ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
    benchmark::DoNotOptimize(diagram.cell_diagram()->CellSkyline(0, 0).data());
  }
  state.SetLabel(DistributionName(DistributionFromIndex(state.range(0))));
}
BENCHMARK(BM_QuadrantScanning)->Apply([](auto* b) {
  ArgsForCellBuilders(b, 1024);
});

// kAuto: the staircase scan, Algorithm 3's diagram in O(cells) time.
void BM_QuadrantAuto(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(1), 1 << 16,
                                 DistributionFromIndex(state.range(0)));
  for (auto _ : state) {
    const SkylineDiagram diagram =
        BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kAuto);
    benchmark::DoNotOptimize(diagram.cell_diagram()->CellSkyline(0, 0).data());
  }
  state.SetLabel(DistributionName(DistributionFromIndex(state.range(0))));
}
BENCHMARK(BM_QuadrantAuto)->Apply([](auto* b) {
  ArgsForCellBuilders(b, 1024);
});

void BM_QuadrantSweeping(benchmark::State& state) {
  const Dataset ds = MakeDistinctDataset(state.range(1), 1 << 16,
                                         DistributionFromIndex(state.range(0)));
  for (auto _ : state) {
    const auto diagram = BuildQuadrantSweeping(ds);
    SKYDIA_CHECK(diagram.ok());
    benchmark::DoNotOptimize(diagram->polyominoes.size());
  }
  state.SetLabel(DistributionName(DistributionFromIndex(state.range(0))));
}
BENCHMARK(BM_QuadrantSweeping)->Apply([](auto* b) {
  ArgsForCellBuilders(b, 4096);
});

}  // namespace
}  // namespace skydia::bench

SKYDIA_BENCH_MAIN(bench_quadrant_scaling);
