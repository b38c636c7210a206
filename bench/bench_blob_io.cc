// Ledger rows for the blob layer (src/core/serialize.h): the footer
// checksum kernel and the v2 codec, all in memory and off the disk, so each
// row is the CPU cost a save or a load pays on top of its file I/O.
//
//   BM_Sha256/kernel:<name>        — 1 MiB through the SHA-256 kernel this
//                                    CPU picks ("sha-ni" or "portable"; a
//                                    runner without the SHA extensions emits
//                                    a differently named row)
//   BM_SerializeCellDiagram/n:512  — an anticorrelated quadrant diagram to
//                                    its v2 blob, checksum included
//   BM_ParseCellDiagram/n:512      — the same blob back, checksum included
#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "bench/bench_common.h"
#include "src/common/sha256.h"
#include "src/core/serialize.h"

namespace skydia::bench {
namespace {

constexpr int64_t kDomain = 1 << 16;

void BM_Sha256(benchmark::State& state) {
  std::mt19937_64 rng(kBenchSeed);
  std::string data(size_t{1} << 20, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  for (auto _ : state) {
    const Sha256Digest digest = Sha256::Hash(data);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Sha256)
    ->Name(std::string("BM_Sha256/kernel:") + internal::Sha256KernelName())
    ->Unit(benchmark::kMicrosecond);

void BlobArgs(benchmark::internal::Benchmark* b) {
  b->Args({512})->ArgNames({"n"})->Unit(benchmark::kMicrosecond);
}

SkylineDiagram BuildBlobDiagram(int64_t n) {
  return BuildDiagram(MakeDataset(n, kDomain, Distribution::kAnticorrelated),
                      SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
}

void BM_SerializeCellDiagram(benchmark::State& state) {
  const SkylineDiagram built = BuildBlobDiagram(state.range(0));
  size_t blob_bytes = 0;
  for (auto _ : state) {
    const std::string blob =
        SerializeCellDiagram(built.dataset(), *built.cell_diagram());
    blob_bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob_bytes));
  state.counters["blob_bytes"] = static_cast<double>(blob_bytes);
}
BENCHMARK(BM_SerializeCellDiagram)->Apply(BlobArgs);

void BM_ParseCellDiagram(benchmark::State& state) {
  const SkylineDiagram built = BuildBlobDiagram(state.range(0));
  const std::string blob =
      SerializeCellDiagram(built.dataset(), *built.cell_diagram());
  for (auto _ : state) {
    StatusOr<LoadedCellDiagram> loaded = ParseCellDiagram(blob);
    SKYDIA_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->diagram.cell_table().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
  state.counters["blob_bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_ParseCellDiagram)->Apply(BlobArgs);

}  // namespace
}  // namespace skydia::bench

SKYDIA_BENCH_MAIN(bench_blob_io);
