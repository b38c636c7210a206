#include "src/core/quadrant_sweeping.h"

#include <map>

#include <gtest/gtest.h>

#include "src/core/merge.h"
#include "src/core/quadrant_scanning.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;
using skydia::testing::RandomDistinctDataset;

TEST(SweepingTest, RejectsTiedCoordinates) {
  auto ds = Dataset::Create({{3, 1}, {3, 2}}, 10);
  ASSERT_TRUE(ds.ok());
  const auto result = BuildQuadrantSweeping(*ds);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SweepingTest, TwoPointWorkedExample) {
  // The example from the design discussion: a = (2, 8), b = (6, 4), s = 10.
  auto ds = Dataset::Create({{2, 8}, {6, 4}}, 10);
  ASSERT_TRUE(ds.ok());
  const auto result = BuildQuadrantSweeping(*ds);
  ASSERT_TRUE(result.ok());
  // Faces: {a}, {a,b}, {b}, empty region.
  EXPECT_EQ(result->polyominoes.size(), 4u);
  int64_t total_area = 0;
  for (const auto& poly : result->polyominoes) {
    EXPECT_TRUE(poly.outline.IsRectilinear()) << ToString(poly.corner);
    total_area += poly.outline.Area();
  }
  EXPECT_EQ(total_area, 100);
}

TEST(SweepingTest, PolyominoesTileTheDomain) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset ds = RandomDistinctDataset(24, 64, seed);
    const auto result = BuildQuadrantSweeping(ds);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    int64_t total_area = 0;
    for (const auto& poly : result->polyominoes) {
      EXPECT_TRUE(poly.outline.IsRectilinear());
      EXPECT_GT(poly.outline.Area(), 0);
      total_area += poly.outline.Area();
    }
    const int64_t s = ds.domain_size();
    EXPECT_EQ(total_area, s * s) << "seed " << seed;
  }
}

TEST(SweepingTest, PolyominoCountMatchesCellLabelPartition) {
  // With all coordinates >= 1 every rank-space cell has positive area, so
  // the geometric face count and the cell-label component count coincide.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset ds =
        skydia::testing::RandomDistinctPositiveDataset(20, 48, seed);
    const auto swept = BuildQuadrantSweeping(ds);
    ASSERT_TRUE(swept.ok());
    const CellGrid grid(ds);
    const SweepingCellLabels labels = BuildSweepingCellLabels(ds, grid);
    EXPECT_EQ(swept->polyominoes.size(), labels.num_polyominoes)
        << "seed " << seed;
  }
}

TEST(SweepingTest, ZeroCoordinatesOnlyAddDegenerateStrips) {
  // Points with coordinate 0 pin measure-zero cell strips to the domain
  // boundary: the label partition counts them, the geometric walk cannot.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset ds = RandomDistinctDataset(20, 48, seed);
    const auto swept = BuildQuadrantSweeping(ds);
    ASSERT_TRUE(swept.ok());
    const CellGrid grid(ds);
    const SweepingCellLabels labels = BuildSweepingCellLabels(ds, grid);
    EXPECT_LE(swept->polyominoes.size(), labels.num_polyominoes);
  }
}

TEST(SweepingTest, CellLabelsMatchMergedScanningDiagram) {
  // Theorem 2 + the merge phase: for distinct coordinates, the sweeping
  // partition equals the merged equal-result partition exactly.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset ds = RandomDistinctDataset(22, 64, seed);
    const CellGrid grid(ds);
    const SweepingCellLabels sweep_labels = BuildSweepingCellLabels(ds, grid);
    const CellDiagram diagram = internal::BuildQuadrantScanning(ds);
    const MergedPolyominoes merged = MergeCells(diagram);
    ASSERT_EQ(sweep_labels.labels.size(), merged.cell_to_polyomino.size());
    EXPECT_EQ(sweep_labels.num_polyominoes, merged.num_polyominoes());
    // Same partition up to relabeling: the label pair mapping is a bijection.
    std::map<uint32_t, uint32_t> fwd;
    std::map<uint32_t, uint32_t> bwd;
    for (size_t i = 0; i < sweep_labels.labels.size(); ++i) {
      const uint32_t a = sweep_labels.labels[i];
      const uint32_t b = merged.cell_to_polyomino[i];
      auto [fit, finserted] = fwd.emplace(a, b);
      EXPECT_EQ(fit->second, b) << "seed " << seed << " cell " << i;
      auto [bit, binserted] = bwd.emplace(b, a);
      EXPECT_EQ(bit->second, a) << "seed " << seed << " cell " << i;
    }
  }
}

TEST(SweepingTest, InteriorSamplesHaveCornerSkyline) {
  // Every query point strictly inside a polyomino must share the quadrant
  // skyline of the polyomino's upper-right corner region.
  const Dataset ds = RandomDistinctDataset(16, 40, 11);
  const auto swept = BuildQuadrantSweeping(ds);
  ASSERT_TRUE(swept.ok());
  for (const auto& poly : swept->polyominoes) {
    // Sample just inside the upper-right corner: corner - (eps, eps) in 4x
    // coordinates.
    const int64_t qx4 = 4 * poly.corner.x - 1;
    const int64_t qy4 = 4 * poly.corner.y - 1;
    const auto corner_sky = QuadrantSkylineAt4(ds, qx4, qy4, 0);
    // And sample other interior integer points when they exist.
    for (const Point2D& v : poly.outline.vertices) {
      const Point2D candidate{v.x + 1, v.y + 1};
      if (candidate.x >= ds.domain_size() || candidate.y >= ds.domain_size()) {
        continue;
      }
      if (!poly.outline.ContainsInterior(candidate)) continue;
      // Integer points can sit on grid lines; sample at +0.25 offsets.
      const auto sample =
          QuadrantSkylineAt4(ds, 4 * candidate.x + 1, 4 * candidate.y + 1, 0);
      EXPECT_EQ(sample, corner_sky)
          << "corner " << ToString(poly.corner) << " sample "
          << ToString(candidate);
    }
  }
}

TEST(SweepingTest, IntersectionCountAccounting) {
  const Dataset ds = RandomDistinctDataset(12, 32, 17);
  const auto swept = BuildQuadrantSweeping(ds);
  ASSERT_TRUE(swept.ok());
  // Interior nodes are exactly the polyominoes; boundary nodes on the two
  // axes are excluded.
  EXPECT_GT(swept->num_intersections, swept->polyominoes.size());
}

TEST(SweepingTest, CellLabelsWorkWithTies) {
  // The tie-tolerant labelling must still partition the grid when the
  // vertex-walk refuses the dataset.
  const Dataset ds = RandomDataset(40, 8, 19);
  const CellGrid grid(ds);
  const SweepingCellLabels labels = BuildSweepingCellLabels(ds, grid);
  EXPECT_EQ(labels.labels.size(), grid.num_cells());
  EXPECT_GT(labels.num_polyominoes, 0u);
  for (uint32_t label : labels.labels) {
    EXPECT_LT(label, labels.num_polyominoes);
  }
}

}  // namespace
}  // namespace skydia
