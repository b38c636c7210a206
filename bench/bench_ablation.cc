// Ablation experiments for the design choices DESIGN.md calls out.
//
// abl-candidates: dynamic scanning's candidate pruning (previous skyline +
//   line contributors) vs recomputing each subcell from the containing
//   cell's global skyline (the subset algorithm) vs recomputing from all n
//   points. Quantifies how much of the win comes from incrementality.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/core/incremental.h"

namespace skydia::bench {
namespace {

void CandidateArgs(benchmark::internal::Benchmark* b) {
  b->Arg(32)->Arg(64)->ArgNames({"n"})->Unit(benchmark::kMillisecond)->Iterations(1);
}

void BM_CandidatesScanning(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(0), 512, Distribution::kIndependent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning)
            .subcell_diagram()
            ->SubcellSkyline(0, 0)
            .data());
  }
}
BENCHMARK(BM_CandidatesScanning)->Apply(CandidateArgs);

void BM_CandidatesSubsetRecompute(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(0), 512, Distribution::kIndependent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kSubset)
            .subcell_diagram()
            ->SubcellSkyline(0, 0)
            .data());
  }
}
BENCHMARK(BM_CandidatesSubsetRecompute)->Apply(CandidateArgs);

void BM_CandidatesFullRecompute(benchmark::State& state) {
  const Dataset ds = MakeDataset(state.range(0), 512, Distribution::kIndependent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kBaseline)
            .subcell_diagram()
            ->SubcellSkyline(0, 0)
            .data());
  }
}
BENCHMARK(BM_CandidatesFullRecompute)->Apply(CandidateArgs);

// abl-parallel: stripe-parallel dynamic scanning construction vs
// sequential. Each stripe pays one from-scratch seed skyline and the pool
// merge; the rest of the scan splits across workers.
void BM_ParallelDynamicScanning(benchmark::State& state) {
  const Dataset ds = MakeDataset(96, 512, Distribution::kIndependent);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning,
                     threads)
            .subcell_diagram()
            ->SubcellSkyline(0, 0)
            .data());
  }
}
BENCHMARK(BM_ParallelDynamicScanning)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// abl-incremental: appending one point to an existing diagram vs a full
// rebuild. The affected-rectangle property makes upper-right ("dominated
// newcomer") inserts nearly free.
void BM_IncrementalInsert(benchmark::State& state) {
  const Dataset ds =
      MakeDataset(state.range(0), 1 << 16, Distribution::kIndependent);
  auto incremental = IncrementalQuadrantDiagram::Create(ds);
  SKYDIA_CHECK(incremental.ok());
  Rng rng(kBenchSeed);
  for (auto _ : state) {
    const Point2D p{rng.NextInt(0, (1 << 16) - 1),
                    rng.NextInt(0, (1 << 16) - 1)};
    benchmark::DoNotOptimize(incremental->Insert(p).ok());
  }
  state.counters["recomputed_cells"] =
      static_cast<double>(incremental->last_insert_recomputed_cells());
}
BENCHMARK(BM_IncrementalInsert)
    ->Arg(256)
    ->Arg(512)
    ->ArgNames({"n"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(4);

void BM_IncrementalFullRebuild(benchmark::State& state) {
  Dataset ds = MakeDataset(state.range(0), 1 << 16, Distribution::kIndependent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning)
            .cell_diagram()
            ->CellSkyline(0, 0)
            .data());
  }
}
BENCHMARK(BM_IncrementalFullRebuild)
    ->Arg(256)
    ->Arg(512)
    ->ArgNames({"n"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(4);

}  // namespace
}  // namespace skydia::bench

SKYDIA_BENCH_MAIN(bench_ablation);
