// Pins the BuildReport contract of src/core/build_report.h: every builder
// family fills per-phase wall times whose sum covers the measured total (the
// acceptance bound is 10% slack on the n=4096 fixture), plus the structure
// counts the `--report` CLI line prints. Phase timing accumulates only on
// the thread driving the build, so the contract must hold for parallel
// builders too — their stripe work happens inside the driver's "stripes"
// phase.
#include "src/core/build_report.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;

// The family sweep runs at n=512 (a quadrant grid is already (n+1)^2 cells,
// so n=4096 costs tens of seconds per build); the n=4096 acceptance fixture
// is asserted once, in release builds, by PhaseTimesCoverTotalOnAcceptanceN.
constexpr size_t kSweepN = 512;
constexpr int64_t kSweepDomain = 1 << 12;
constexpr size_t kAcceptanceN = 4096;
constexpr int64_t kAcceptanceDomain = 1 << 16;
constexpr uint64_t kFixtureSeed = 20260806;

double PhaseSum(const BuildReport& report) {
  double sum = 0.0;
  for (const BuildPhaseTiming& phase : report.phases) sum += phase.seconds;
  return sum;
}

BuildReport BuildWithReport(SkylineQueryType type, BuildAlgorithm algorithm,
                            int parallelism, size_t n = kSweepN,
                            int64_t domain = kSweepDomain) {
  Dataset dataset = RandomDataset(n, domain, kFixtureSeed);
  BuildReport report;
  SkylineBuildOptions options;
  options.algorithm = algorithm;
  options.parallelism = parallelism;
  options.report = &report;
  auto diagram = SkylineDiagram::Build(std::move(dataset), type, options);
  SKYDIA_CHECK(diagram.ok());
  return report;
}

struct BuilderCase {
  const char* label;
  SkylineQueryType type;
  BuildAlgorithm algorithm;
  int parallelism;
  size_t n;  // dynamic subcell grids are O(n^2), so those cases stay small
};

const BuilderCase kBuilders[] = {
    {"quadrant/scanning", SkylineQueryType::kQuadrant,
     BuildAlgorithm::kScanning, 1, kSweepN},
    {"quadrant/dsg", SkylineQueryType::kQuadrant, BuildAlgorithm::kDsg, 1,
     kSweepN},
    {"quadrant/staircase", SkylineQueryType::kQuadrant, BuildAlgorithm::kAuto,
     1, kSweepN},
    {"global/scanning", SkylineQueryType::kGlobal, BuildAlgorithm::kScanning,
     1, kSweepN},
    {"global/staircase", SkylineQueryType::kGlobal, BuildAlgorithm::kAuto, 1,
     kSweepN},
    {"dynamic/scanning", SkylineQueryType::kDynamic,
     BuildAlgorithm::kScanning, 1, 64},
    {"dynamic/scanning-parallel", SkylineQueryType::kDynamic,
     BuildAlgorithm::kScanning, 4, 64},
};

TEST(BuildReportTest, PhaseTimesCoverTotalWithinTenPercent) {
  for (const BuilderCase& c : kBuilders) {
    const BuildReport report =
        BuildWithReport(c.type, c.algorithm, c.parallelism, c.n);
    ASSERT_FALSE(report.phases.empty()) << c.label;
    ASSERT_GT(report.total_seconds, 0.0) << c.label;
    const double sum = PhaseSum(report);
    // The phases live inside the timed region, so the sum cannot exceed the
    // total; the acceptance bound is that they cover at least 90% of it.
    EXPECT_LE(sum, report.total_seconds * 1.001) << c.label;
    EXPECT_GE(sum, report.total_seconds * 0.9)
        << c.label << ": phases cover only "
        << 100.0 * sum / report.total_seconds << "% of "
        << report.total_seconds * 1e3 << " ms";
  }
}

TEST(BuildReportTest, PhaseTimesCoverTotalOnAcceptanceN4096) {
#ifndef NDEBUG
  GTEST_SKIP() << "n=4096 builds take minutes under debug/sanitizer builds; "
                  "the release CI job runs this";
#endif
  const BuildReport report =
      BuildWithReport(SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning,
                      1, kAcceptanceN, kAcceptanceDomain);
  ASSERT_EQ(report.dataset_points, kAcceptanceN);
  ASSERT_GT(report.total_seconds, 0.0);
  const double sum = PhaseSum(report);
  EXPECT_LE(sum, report.total_seconds * 1.001);
  EXPECT_GE(sum, report.total_seconds * 0.9)
      << "phases cover only " << 100.0 * sum / report.total_seconds
      << "% of " << report.total_seconds * 1e3 << " ms";
}

TEST(BuildReportTest, StructureCountsArePopulated) {
  const BuildReport report = BuildWithReport(SkylineQueryType::kQuadrant,
                                             BuildAlgorithm::kScanning, 1);
  EXPECT_EQ(report.dataset_points, kSweepN);
  EXPECT_GT(report.num_cells, 0u);
  EXPECT_GT(report.num_distinct_sets, 0u);
  EXPECT_GT(report.total_set_elements, 0u);
  EXPECT_GT(report.arena_bytes, 0u);
  EXPECT_GE(report.approx_bytes, report.arena_bytes);
  EXPECT_EQ(report.diagram_type, "quadrant");
  EXPECT_EQ(report.algorithm, "scanning");
  EXPECT_EQ(report.parallelism, 1);
}

TEST(BuildReportTest, ParallelBuildRecordsStripeAndMergePhases) {
  const BuildReport report = BuildWithReport(
      SkylineQueryType::kDynamic, BuildAlgorithm::kScanning, 4, 64);
  const auto has_phase = [&](const std::string& name) {
    for (const BuildPhaseTiming& phase : report.phases) {
      if (phase.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_phase("grid"));
  EXPECT_TRUE(has_phase("stripes"));
  EXPECT_TRUE(has_phase("merge"));
  EXPECT_TRUE(has_phase("freeze"));
  EXPECT_EQ(report.algorithm, "scanning");
  EXPECT_EQ(report.parallelism, 4);
}

TEST(BuildReportTest, AutoAlgorithmIsReportedResolved) {
  // kAuto runs the staircase scan for quadrant and global diagrams and
  // Algorithm 7 for dynamic ones; the report names what ran.
  const BuildReport sequential =
      BuildWithReport(SkylineQueryType::kQuadrant, BuildAlgorithm::kAuto, 1);
  EXPECT_EQ(sequential.algorithm, "staircase");
  std::vector<std::string> phases;
  for (const BuildPhaseTiming& phase : sequential.phases) {
    phases.push_back(phase.name);
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"grid", "scan", "fill"}));
  // Quadrant diagrams have no parallel construction: the report names the
  // sequential build that ran, not the requested thread count.
  const BuildReport parallel =
      BuildWithReport(SkylineQueryType::kQuadrant, BuildAlgorithm::kAuto, 2);
  EXPECT_EQ(parallel.algorithm, "staircase");
  EXPECT_EQ(parallel.parallelism, 1);
  const BuildReport global =
      BuildWithReport(SkylineQueryType::kGlobal, BuildAlgorithm::kAuto, 2);
  EXPECT_EQ(global.algorithm, "staircase");
  EXPECT_EQ(global.parallelism, 1);
  const BuildReport dynamic = BuildWithReport(
      SkylineQueryType::kDynamic, BuildAlgorithm::kAuto, 2, /*n=*/32);
  EXPECT_EQ(dynamic.algorithm, "scanning");
  EXPECT_EQ(dynamic.parallelism, 2);
}

TEST(BuildReportTest, ReportIsOverwrittenNotAppended) {
  Dataset first = RandomDataset(256, 1 << 12, 1);
  Dataset second = RandomDataset(256, 1 << 12, 2);
  BuildReport report;
  SkylineBuildOptions options;
  options.report = &report;
  SKYDIA_CHECK(SkylineDiagram::Build(std::move(first),
                                     SkylineQueryType::kQuadrant, options)
                   .ok());
  const size_t phases_after_first = report.phases.size();
  const auto counts = [&] {
    std::vector<uint64_t> out;
    for (const BuildPhaseTiming& phase : report.phases) {
      out.push_back(phase.count);
    }
    return out;
  };
  const std::vector<uint64_t> first_counts = counts();
  SKYDIA_CHECK(SkylineDiagram::Build(std::move(second),
                                     SkylineQueryType::kQuadrant, options)
                   .ok());
  EXPECT_EQ(report.phases.size(), phases_after_first);
  EXPECT_EQ(counts(), first_counts);
}

TEST(BuildReportTest, ToStringRendersPhasesAndCounts) {
  const BuildReport report = BuildWithReport(SkylineQueryType::kQuadrant,
                                             BuildAlgorithm::kScanning, 1);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("build report: quadrant/scanning"), std::string::npos);
  EXPECT_NE(text.find("phase grid"), std::string::npos);
  EXPECT_NE(text.find("phase scan"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
  EXPECT_NE(text.find("cells="), std::string::npos);
  EXPECT_NE(text.find("arena_bytes="), std::string::npos);
}

TEST(BuildReportTest, NestedPhaseScopesAccumulateOnlyAtTopLevel) {
  BuildReport report;
  {
    build_report_internal::ReportInstaller installer(&report);
    PhaseScope outer("outer");
    {
      // Nested scopes trace but never double-count into the report.
      PhaseScope inner("inner");
    }
  }
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].name, "outer");
  EXPECT_EQ(report.phases[0].count, 1u);
}

TEST(BuildReportTest, PhaseScopeWithoutInstalledReportIsInert) {
  {
    PhaseScope phase("orphan");
  }
  SUCCEED();
}

}  // namespace
}  // namespace skydia
