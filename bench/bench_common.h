// Shared helpers for the skydia benchmark harnesses. Every experiment id in
// EXPERIMENTS.md maps to one binary in this directory; binaries print
// google-benchmark tables whose rows mirror the reconstructed figures/tables
// of the paper (see DESIGN.md, "Per-experiment index").
//
// Every binary closes with SKYDIA_BENCH_MAIN(<name>) instead of
// BENCHMARK_MAIN(): besides the usual console table it writes a
// machine-readable baseline `BENCH_<name>.json` (schema checked by
// tools/bench_schema_check.py, consumed by the CI perf-smoke job) into
// $SKYDIA_BENCH_JSON_DIR, or the working directory when unset.
#ifndef SKYDIA_BENCH_BENCH_COMMON_H_
#define SKYDIA_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/trace.h"
#include "src/common/version.h"
#include "src/core/diagram.h"
#include "src/datagen/distributions.h"
#include "src/geometry/dataset.h"

namespace skydia::bench {

inline constexpr uint64_t kBenchSeed = 20180416;  // ICDE'18 week, fixed forever

inline Distribution DistributionFromIndex(int64_t index) {
  switch (index) {
    case 0:
      return Distribution::kCorrelated;
    case 1:
      return Distribution::kIndependent;
    case 2:
      return Distribution::kAnticorrelated;
    default:
      return Distribution::kClustered;
  }
}

inline Dataset MakeDataset(int64_t n, int64_t domain, Distribution dist,
                           uint64_t seed = kBenchSeed) {
  DataGenOptions options;
  options.n = static_cast<size_t>(n);
  options.domain_size = domain;
  options.distribution = dist;
  options.seed = seed;
  auto ds = GenerateDataset(options);
  SKYDIA_CHECK(ds.ok());
  return std::move(ds).value();
}

inline Dataset MakeDistinctDataset(int64_t n, int64_t domain,
                                   Distribution dist,
                                   uint64_t seed = kBenchSeed) {
  DataGenOptions options;
  options.n = static_cast<size_t>(n);
  options.domain_size = domain;
  options.distribution = dist;
  options.seed = seed;
  options.distinct_coordinates = true;
  auto ds = GenerateDataset(options);
  SKYDIA_CHECK(ds.ok());
  return std::move(ds).value();
}

inline Dataset CopyDataset(const Dataset& ds) {
  std::vector<std::string> labels;
  if (ds.has_labels()) {
    labels.reserve(ds.size());
    for (PointId id = 0; id < ds.size(); ++id) labels.push_back(ds.label(id));
  }
  auto copy = Dataset::Create(ds.points(), ds.domain_size(), std::move(labels));
  SKYDIA_CHECK(copy.ok());
  return std::move(copy).value();
}

// Benchmark-side spelling of the public builder facade. The dataset copy is
// O(n) against Ω(n log n) construction, so the measured loop stays dominated
// by the build itself.
inline SkylineDiagram BuildDiagram(
    const Dataset& ds, SkylineQueryType type,
    BuildAlgorithm algorithm = BuildAlgorithm::kAuto, int parallelism = 1) {
  SkylineBuildOptions options;
  options.algorithm = algorithm;
  options.parallelism = parallelism;
  auto built = SkylineDiagram::Build(CopyDataset(ds), type, options);
  SKYDIA_CHECK(built.ok());
  return std::move(built).value();
}

// --- machine-readable baselines ----------------------------------------------

/// A console reporter that additionally records every successful run and can
/// serialize the lot as a `BENCH_<name>.json` baseline. Aggregate rows
/// (mean/median/stddev under --benchmark_repetitions) are recorded alongside
/// iteration rows, tagged by their `aggregate` field.
class JsonBaselineReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonBaselineReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (!run.error_occurred) runs_.push_back(run);
    }
  }

  /// Writes the baseline next to $SKYDIA_BENCH_JSON_DIR (cwd when unset).
  /// Schema: tools/bench_schema_check.py is the executable contract.
  bool WriteBaseline() const {
    std::string out;
    out.reserve(4096);
    out += "{\n  \"schema_version\": 1,\n  \"bench\": ";
    Quoted(bench_name_, &out);
    out += ",\n  \"version\": ";
    Quoted(kVersion, &out);
    out += ",\n  \"commit\": ";
    Quoted(BuildCommit(), &out);
    out += ",\n  \"build_type\": ";
#ifdef NDEBUG
    Quoted("release", &out);
#else
    Quoted("debug", &out);
#endif
    out += ",\n  \"compiler\": ";
    Quoted(__VERSION__, &out);
    out += ",\n  \"hardware_concurrency\": ";
    out += std::to_string(std::thread::hardware_concurrency());
    out += ",\n  \"timestamp_unix\": ";
    out += std::to_string(static_cast<int64_t>(std::time(nullptr)));
    out += ",\n  \"benchmarks\": [";
    for (size_t i = 0; i < runs_.size(); ++i) {
      const Run& run = runs_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"name\": ";
      Quoted(run.benchmark_name(), &out);
      out += ", \"iterations\": ";
      out += std::to_string(run.iterations);
      // Accumulated seconds over all iterations -> ns per iteration.
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      out += ", \"real_time_ns\": ";
      AppendDouble(run.real_accumulated_time * 1e9 / iters, &out);
      out += ", \"cpu_time_ns\": ";
      AppendDouble(run.cpu_accumulated_time * 1e9 / iters, &out);
      if (run.run_type == Run::RT_Aggregate) {
        out += ", \"aggregate\": ";
        Quoted(run.aggregate_name, &out);
      }
      if (!run.report_label.empty()) {
        out += ", \"label\": ";
        Quoted(run.report_label, &out);
      }
      if (!run.counters.empty()) {
        out += ", \"counters\": {";
        bool first = true;
        for (const auto& [name, counter] : run.counters) {
          out += first ? "" : ", ";
          first = false;
          Quoted(name, &out);
          out += ": ";
          AppendDouble(counter.value, &out);
        }
        out += "}";
      }
      out += "}";
    }
    out += "\n  ]\n}\n";

    const char* dir = std::getenv("SKYDIA_BENCH_JSON_DIR");
    std::string path = dir != nullptr && dir[0] != '\0' ? dir : ".";
    path += "/BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    const bool closed = std::fclose(f) == 0;
    if (ok && closed) {
      std::fprintf(stderr, "wrote baseline %s (%zu rows)\n", path.c_str(),
                   runs_.size());
    } else {
      std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    }
    return ok && closed;
  }

 private:
  static void Quoted(const std::string& text, std::string* out) {
    out->push_back('"');
    trace::internal::AppendJsonEscaped(text.c_str(), out);
    out->push_back('"');
  }
  static void AppendDouble(double value, std::string* out) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    out->append(buf);
  }
  std::string bench_name_;
  std::vector<Run> runs_;
};

/// BENCHMARK_MAIN() body plus the JSON baseline side-channel.
inline int BenchMain(int argc, char** argv, const char* bench_name) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonBaselineReporter reporter(bench_name);
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  const bool written = reporter.WriteBaseline();
  ::benchmark::Shutdown();
  return written ? 0 : 1;
}

}  // namespace skydia::bench

/// Drop-in replacement for BENCHMARK_MAIN(): also emits BENCH_<name>.json.
#define SKYDIA_BENCH_MAIN(name)                           \
  int main(int argc, char** argv) {                       \
    return ::skydia::bench::BenchMain(argc, argv, #name); \
  }                                                       \
  static_assert(true, "require a trailing semicolon")

#endif  // SKYDIA_BENCH_BENCH_COMMON_H_
