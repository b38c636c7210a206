// BuildReport: per-phase wall times and structure counts for one
// SkylineDiagram::Build call, the profiling companion of src/common/trace.h.
//
// Builders mark their phases with PhaseScope (grid construction, the DSG /
// scan / sort passes, stripe fan-out, merge, arena freeze). Every PhaseScope
// always emits a trace span; when the thread also has a report installed
// (SkylineBuildOptions::report != nullptr inside Build()), top-level phases
// additionally accumulate into that report. Phases opened on ThreadPool
// workers never touch the report — the installing thread's phases already
// cover the full wall time — so no synchronization is needed.
//
// tests/core/build_report_test.cc pins the contract that the reported phase
// times sum to within 10% of total_seconds on the n=4096 fixture.
#ifndef SKYDIA_SRC_CORE_BUILD_REPORT_H_
#define SKYDIA_SRC_CORE_BUILD_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/trace.h"

namespace skydia {

/// One named build phase: how often it ran and its total wall time on the
/// thread driving the build.
struct BuildPhaseTiming {
  std::string name;
  uint64_t count = 0;
  double seconds = 0.0;
};

/// What one Build() call did and where the time went.
struct BuildReport {
  std::string diagram_type;  // "quadrant" | "global" | "dynamic"
  std::string algorithm;     // resolved spelling, e.g. "scanning"
  int parallelism = 1;       // threads the construction ran on

  /// Top-level phases in first-entry order; their seconds sum to ~total.
  std::vector<BuildPhaseTiming> phases;
  /// Wall time of the construction proper (excludes debug re-validation).
  double total_seconds = 0.0;

  uint64_t dataset_points = 0;
  uint64_t num_cells = 0;  // cells (quadrant/global) or subcells (dynamic)
  uint64_t num_distinct_sets = 0;
  uint64_t total_set_elements = 0;
  /// Whole pool footprint (SkylineSetPool::ApproximateMemoryBytes): the
  /// arena plus the set records, hash chains and dedup index, where built.
  uint64_t arena_bytes = 0;
  uint64_t approx_bytes = 0;  // arena_bytes + cell table footprint

  /// Human-readable multi-line rendering (the `--report` CLI output).
  std::string ToString() const;
};

namespace build_report_internal {
/// Installs `report` as the calling thread's phase sink for the lifetime of
/// the object. Null `report` installs nothing (PhaseScope stays trace-only).
class ReportInstaller {
 public:
  explicit ReportInstaller(BuildReport* report);
  ~ReportInstaller();

  ReportInstaller(const ReportInstaller&) = delete;
  ReportInstaller& operator=(const ReportInstaller&) = delete;

 private:
  BuildReport* prev_;
};
}  // namespace build_report_internal

/// RAII build-phase marker. Emits a trace span under `name` (a string
/// literal) and, when the calling thread has a BuildReport installed and the
/// phase is not nested inside another PhaseScope, adds its wall time to the
/// report. Cheap enough to leave in release builders: with tracing off and
/// no report installed it costs two thread-local reads and a branch.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  trace::Span span_;  // first: the span brackets the report timing
  const char* name_;
  uint64_t start_ns_ = 0;
  bool record_ = false;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_BUILD_REPORT_H_
