// ValidateDiagram parity: every builder of every family must produce a
// diagram that passes the full invariant suite (structural + sampled
// ground-truth) on every distribution, and deliberate corruption of the
// interned pool or the cell table must be detected.
#include "src/core/validate.h"

#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/core/dynamic_scanning.h"
#include "src/core/merge.h"
#include "src/core/quadrant_scanning.h"
#include "src/core/quadrant_sweeping.h"
#include "src/core/serialize.h"
#include "src/datagen/distributions.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::BuildDiagram;
using skydia::testing::RandomDataset;

Dataset MakeDataset(Distribution distribution, uint64_t seed) {
  return testing::GeneratedDataset(24, 48, distribution, seed);
}

constexpr Distribution kDistributions[] = {Distribution::kIndependent,
                                           Distribution::kCorrelated,
                                           Distribution::kAnticorrelated};

ValidateOptions Sampled(size_t samples, CellSemantics semantics) {
  ValidateOptions options;
  options.sample_queries = samples;
  options.semantics = semantics;
  return options;
}

TEST(ValidateParityTest, QuadrantBuildersPassOnEveryDistribution) {
  for (const Distribution distribution : kDistributions) {
    const Dataset ds = MakeDataset(distribution, 7);
    for (const BuildAlgorithm algorithm :
         {BuildAlgorithm::kBaseline, BuildAlgorithm::kDsg,
          BuildAlgorithm::kScanning}) {
      const SkylineDiagram built =
          BuildDiagram(ds, SkylineQueryType::kQuadrant, algorithm);
      const Status status = ValidateDiagram(
          ds, *built.cell_diagram(), Sampled(32, CellSemantics::kQuadrant));
      EXPECT_TRUE(status.ok())
          << DistributionName(distribution) << "/"
          << BuildAlgorithmName(algorithm) << ": " << status;
    }
  }
}

TEST(ValidateParityTest, GlobalBuildersPassOnEveryDistribution) {
  for (const Distribution distribution : kDistributions) {
    const Dataset ds = MakeDataset(distribution, 11);
    for (const BuildAlgorithm algorithm :
         {BuildAlgorithm::kBaseline, BuildAlgorithm::kDsg,
          BuildAlgorithm::kScanning}) {
      const SkylineDiagram built =
          BuildDiagram(ds, SkylineQueryType::kGlobal, algorithm);
      const Status status = ValidateDiagram(
          ds, *built.cell_diagram(), Sampled(32, CellSemantics::kGlobal));
      EXPECT_TRUE(status.ok())
          << DistributionName(distribution) << "/"
          << BuildAlgorithmName(algorithm) << ": " << status;
    }
  }
}

TEST(ValidateParityTest, DynamicBuildersPassOnEveryDistribution) {
  for (const Distribution distribution : kDistributions) {
    const Dataset ds = MakeDataset(distribution, 13);
    for (const BuildAlgorithm algorithm :
         {BuildAlgorithm::kBaseline, BuildAlgorithm::kSubset,
          BuildAlgorithm::kScanning}) {
      const SkylineDiagram built =
          BuildDiagram(ds, SkylineQueryType::kDynamic, algorithm);
      const Status status = ValidateDiagram(
          ds, *built.subcell_diagram(), Sampled(32, CellSemantics::kAuto));
      EXPECT_TRUE(status.ok())
          << DistributionName(distribution) << "/"
          << BuildAlgorithmName(algorithm) << ": " << status;
    }
  }
}

TEST(ValidateParityTest, ParallelBuildersPass) {
  for (const Distribution distribution : kDistributions) {
    const Dataset ds = MakeDataset(distribution, 17);
    for (const int threads : {2, 5}) {
      const SkylineDiagram cells =
          BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kAuto,
                       threads);
      const Status cell_status = ValidateDiagram(
          ds, *cells.cell_diagram(), Sampled(16, CellSemantics::kQuadrant));
      EXPECT_TRUE(cell_status.ok()) << cell_status;

      const SkylineDiagram subcells =
          BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kAuto,
                       threads);
      const Status subcell_status = ValidateDiagram(
          ds, *subcells.subcell_diagram(), Sampled(16, CellSemantics::kAuto));
      EXPECT_TRUE(subcell_status.ok()) << subcell_status;
    }
  }
}

TEST(ValidateParityTest, SweepingPartitionMatchesValidatedDiagram) {
  // The sweeping construction emits polyomino outlines, not a cell table, so
  // it is cross-validated against a validated scanning diagram: the vertex
  // walk must find exactly the polyominoes that MergeCells extracts.
  // Positive coordinates: coordinate-0 points would pin degenerate cell
  // strips the geometric vertex walk cannot see (see sweeping_test.cc).
  const Dataset ds = skydia::testing::RandomDistinctPositiveDataset(18, 48, 19);
  const SkylineDiagram built =
      BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  ASSERT_TRUE(
      ValidateDiagram(ds, diagram, Sampled(32, CellSemantics::kQuadrant)).ok());
  const auto swept = BuildQuadrantSweeping(ds);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept->polyominoes.size(), MergeCells(diagram).num_polyominoes());
}

TEST(ValidateParityTest, AutoSemanticsAcceptsBothCellFamilies) {
  const Dataset ds = RandomDataset(20, 24, 3);
  const SkylineDiagram quadrant =
      BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const SkylineDiagram global =
      BuildDiagram(ds, SkylineQueryType::kGlobal, BuildAlgorithm::kScanning);
  EXPECT_TRUE(ValidateDiagram(ds, *quadrant.cell_diagram(),
                              Sampled(48, CellSemantics::kAuto))
                  .ok());
  EXPECT_TRUE(ValidateDiagram(ds, *global.cell_diagram(),
                              Sampled(48, CellSemantics::kAuto))
                  .ok());
  // And the wrong fixed oracle is rejected (the sampled cells of a 20-point
  // dataset inevitably include one where quadrant != global).
  EXPECT_FALSE(ValidateDiagram(ds, *global.cell_diagram(),
                               Sampled(48, CellSemantics::kQuadrant))
                   .ok());
}

// The corruption tests below construct through the direct builder entry
// points on purpose: they mutate diagram internals (set_cell, pool Append),
// and the SkylineDiagram facade only hands out const views.
TEST(ValidateCorruptionTest, DetectsOverwrittenCellResults) {
  const Dataset ds = RandomDataset(16, 24, 5);
  CellDiagram diagram = internal::BuildQuadrantScanning(ds);
  // Cross-wire every cell that disagrees with cell (0, 0) to its result. The
  // structural checks still pass (the ids are valid and the pool untouched);
  // only the sampled ground-truth check can catch it.
  const CellGrid& grid = diagram.grid();
  const SetId first = diagram.cell_set(0, 0);
  size_t corrupted = 0;
  for (uint32_t cy = 0; cy < grid.num_rows(); ++cy) {
    for (uint32_t cx = 0; cx < grid.num_columns(); ++cx) {
      if (diagram.cell_set(cx, cy) != first) {
        diagram.set_cell(cx, cy, first);
        ++corrupted;
      }
    }
  }
  ASSERT_GT(corrupted, grid.num_cells() / 2)
      << "dataset too degenerate for the corruption to be observable";
  ValidateOptions options;
  options.sample_queries = 64;
  options.semantics = CellSemantics::kQuadrant;
  EXPECT_FALSE(ValidateDiagram(ds, diagram, options).ok());
}

TEST(ValidateCorruptionTest, DetectsDuplicatePoolEntry) {
  const Dataset ds = RandomDataset(16, 24, 7);
  CellDiagram diagram = internal::BuildQuadrantScanning(ds);
  ASSERT_GE(diagram.pool().size(), 2u);
  // Append a verbatim copy of an existing set: hash-consing is broken.
  const auto existing = diagram.pool().Get(1);
  diagram.pool().Append(
      std::vector<PointId>(existing.begin(), existing.end()));
  const Status status = ValidateDiagram(ds, diagram);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // The same diagram passes when canonicality is waived (the duplicate is
  // unreferenced and structurally sound).
  ValidateOptions relaxed;
  relaxed.require_canonical_pool = false;
  EXPECT_TRUE(ValidateDiagram(ds, diagram, relaxed).ok());
}

TEST(ValidateCorruptionTest, DetectsCorruptedSubcellPool) {
  const Dataset ds = RandomDataset(10, 16, 9);
  SubcellDiagram diagram = internal::BuildDynamicScanning(ds);
  const auto existing = diagram.pool().Get(1);
  diagram.pool().Append(
      std::vector<PointId>(existing.begin(), existing.end()));
  EXPECT_FALSE(ValidateDiagram(ds, diagram).ok());
}

TEST(ValidateCorruptionTest, MutatedDiagramNeedsRelaxedOptions) {
  // A write leaves duplicate contents in the adopted pool: not canonical,
  // yet every cell still answers correctly.
  const Dataset ds = RandomDataset(14, 20, 11);
  const IncrementalQuadrantDiagram mutated =
      testing::InsertedAndDeleted(ds, {10, 10});
  const CellDiagram& diagram = mutated.diagram();
  const Status canonical = ValidateDiagram(ds, diagram);
  EXPECT_EQ(canonical.code(), StatusCode::kCorruption);
  EXPECT_NE(canonical.message().find("not canonical"), std::string::npos)
      << canonical;
  ValidateOptions relaxed = Sampled(16, CellSemantics::kQuadrant);
  relaxed.require_canonical_pool = false;
  const Status status = ValidateDiagram(ds, diagram, relaxed);
  EXPECT_TRUE(status.ok()) << status;
}

TEST(ValidateOnLoadTest, RoundTrippedDiagramsPassAllFamilies) {
  const Dataset ds = RandomDataset(18, 24, 13);
  ParseOptions parse;
  parse.validate_structure = true;
  parse.validate.sample_queries = 16;

  const SkylineDiagram quadrant =
      BuildDiagram(ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  auto loaded_q = ParseCellDiagram(
      SerializeCellDiagram(ds, *quadrant.cell_diagram()), parse);
  ASSERT_TRUE(loaded_q.ok()) << loaded_q.status();

  const SkylineDiagram global =
      BuildDiagram(ds, SkylineQueryType::kGlobal, BuildAlgorithm::kScanning);
  auto loaded_g =
      ParseCellDiagram(SerializeCellDiagram(ds, *global.cell_diagram()), parse);
  ASSERT_TRUE(loaded_g.ok()) << loaded_g.status();

  const SkylineDiagram dynamic =
      BuildDiagram(ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  auto loaded_d = ParseSubcellDiagram(
      SerializeSubcellDiagram(ds, *dynamic.subcell_diagram()), parse);
  ASSERT_TRUE(loaded_d.ok()) << loaded_d.status();
}

}  // namespace
}  // namespace skydia
