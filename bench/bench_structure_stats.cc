// Experiment tab5-structure: diagram structure statistics — cell counts,
// polyomino counts, distinct result sets and memory footprint — across n and
// distributions. Reproduces the space-complexity discussion of §IV/§V
// (output structure is the binding constraint, bounded by min(s^2, n^2) * n).
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/core/merge.h"
#include "src/core/quadrant_sweeping.h"

namespace skydia::bench {
namespace {

void StructureArgs(benchmark::internal::Benchmark* b) {
  for (int64_t dist = 0; dist < 3; ++dist) {
    for (int64_t n = 128; n <= 1024; n *= 2) {
      b->Args({dist, n});
    }
  }
  b->ArgNames({"dist", "n"})->Unit(benchmark::kMillisecond)->Iterations(1);
}

void BM_QuadrantStructure(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(1), 1 << 16,
                                 DistributionFromIndex(state.range(0)));
  DiagramStats stats;
  uint32_t polyominoes = 0;
  for (auto _ : state) {
    const SkylineDiagram built = BuildDiagram(
        ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
    stats = built.ComputeStats();
    polyominoes = MergeCells(*built.cell_diagram()).num_polyominoes();
  }
  state.counters["cells"] = static_cast<double>(stats.num_cells);
  state.counters["polyominoes"] = static_cast<double>(polyominoes);
  state.counters["distinct_sets"] = static_cast<double>(stats.num_distinct_sets);
  state.counters["set_elems"] = static_cast<double>(stats.total_set_elements);
  state.counters["pool_bytes"] = static_cast<double>(stats.pool_bytes);
  state.counters["bytes"] = static_cast<double>(stats.approx_bytes);
  state.SetLabel(DistributionName(DistributionFromIndex(state.range(0))));
}
BENCHMARK(BM_QuadrantStructure)->Apply(StructureArgs);

void BM_SweepingStructure(benchmark::State& state) {
  const Dataset ds = MakeDistinctDataset(state.range(1), 1 << 16,
                                         DistributionFromIndex(state.range(0)));
  uint64_t polyominoes = 0;
  uint64_t intersections = 0;
  int64_t area = 0;
  for (auto _ : state) {
    const auto diagram = BuildQuadrantSweeping(ds);
    SKYDIA_CHECK(diagram.ok());
    polyominoes = diagram->polyominoes.size();
    intersections = diagram->num_intersections;
    area = 0;
    for (const auto& poly : diagram->polyominoes) {
      area += poly.outline.Area();
    }
  }
  state.counters["polyominoes"] = static_cast<double>(polyominoes);
  state.counters["intersections"] = static_cast<double>(intersections);
  state.counters["covered_area"] = static_cast<double>(area);
  state.SetLabel(DistributionName(DistributionFromIndex(state.range(0))));
}
BENCHMARK(BM_SweepingStructure)->Apply(StructureArgs);

void BM_DynamicStructure(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(1), 512,
                                 DistributionFromIndex(state.range(0)));
  DiagramStats stats;
  for (auto _ : state) {
    const SkylineDiagram built =
        BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
    stats = built.ComputeStats();
  }
  state.counters["subcells"] = static_cast<double>(stats.num_cells);
  state.counters["distinct_sets"] = static_cast<double>(stats.num_distinct_sets);
  state.counters["set_elems"] = static_cast<double>(stats.total_set_elements);
  state.counters["pool_bytes"] = static_cast<double>(stats.pool_bytes);
  state.counters["bytes"] = static_cast<double>(stats.approx_bytes);
  state.SetLabel(DistributionName(DistributionFromIndex(state.range(0))));
}
BENCHMARK(BM_DynamicStructure)->Apply([](auto* b) {
  for (int64_t dist = 0; dist < 3; ++dist) {
    for (int64_t n = 32; n <= 128; n *= 2) {
      b->Args({dist, n});
    }
  }
  b->ArgNames({"dist", "n"})->Unit(benchmark::kMillisecond)->Iterations(1);
});

}  // namespace
}  // namespace skydia::bench

SKYDIA_BENCH_MAIN(bench_structure_stats);
