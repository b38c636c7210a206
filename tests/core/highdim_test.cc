#include "src/core/highdim.h"

#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/datagen/distributions.h"
#include "src/skyline/dominance.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

DatasetNd RandomNd(size_t n, int dims, int64_t domain, uint64_t seed) {
  DataGenOptions options;
  options.n = n;
  options.domain_size = domain;
  options.seed = seed;
  auto nd = GenerateDatasetNd(options, dims);
  EXPECT_TRUE(nd.ok());
  return std::move(nd).value();
}

// Oracle: first-orthant skyline for the cell's candidate set.
std::vector<PointId> OracleCell(const DatasetNd& ds, const NdGrid& grid,
                                const std::vector<uint32_t>& idx) {
  std::vector<PointId> candidates;
  for (PointId id = 0; id < ds.size(); ++id) {
    bool ok = true;
    for (int d = 0; d < grid.dims(); ++d) {
      if (grid.rank(id, d) < idx[d]) {
        ok = false;
        break;
      }
    }
    if (ok) candidates.push_back(id);
  }
  std::vector<PointId> result;
  for (PointId a : candidates) {
    bool dominated = false;
    for (PointId b : candidates) {
      if (b != a && DominatesNd(ds.row(b), ds.row(a), ds.dims())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.push_back(a);
  }
  return result;
}

TEST(NdGridTest, FlattenRoundTrip) {
  const DatasetNd ds = RandomNd(10, 3, 8, 1);
  const NdGrid grid(ds);
  std::vector<uint32_t> idx;
  for (uint64_t flat = 0; flat < grid.num_cells(); ++flat) {
    grid.Unflatten(flat, &idx);
    EXPECT_EQ(grid.Flatten(idx), flat);
  }
}

TEST(NdGridTest, IndexOfHalfOpen) {
  auto ds = DatasetNd::Create({2, 0, 5, 0}, 2, 8);
  ASSERT_TRUE(ds.ok());
  const NdGrid grid(*ds);
  EXPECT_EQ(grid.IndexOf(0, 1), 0u);
  EXPECT_EQ(grid.IndexOf(0, 2), 0u);
  EXPECT_EQ(grid.IndexOf(0, 3), 1u);
  EXPECT_EQ(grid.IndexOf(0, 5), 1u);
  EXPECT_EQ(grid.IndexOf(0, 6), 2u);
}

struct NdBuilderParam {
  NdCellDiagram (*builder)(const DatasetNd&);
  const char* name;
};

class NdDiagramTest : public ::testing::TestWithParam<NdBuilderParam> {};

TEST_P(NdDiagramTest, ThreeDimsMatchOracle) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const DatasetNd ds = RandomNd(12, 3, 10, seed);
    const NdCellDiagram diagram = GetParam().builder(ds);
    const NdGrid& grid = diagram.grid();
    std::vector<uint32_t> idx;
    for (uint64_t flat = 0; flat < grid.num_cells(); ++flat) {
      grid.Unflatten(flat, &idx);
      const auto actual = diagram.CellSkyline(flat);
      ASSERT_EQ(std::vector<PointId>(actual.begin(), actual.end()),
                OracleCell(ds, grid, idx))
          << "seed " << seed << " flat " << flat;
    }
  }
}

TEST_P(NdDiagramTest, ThreeDimsWithTies) {
  const DatasetNd ds = RandomNd(16, 3, 4, 5);  // heavy ties
  const NdCellDiagram diagram = GetParam().builder(ds);
  const NdGrid& grid = diagram.grid();
  std::vector<uint32_t> idx;
  for (uint64_t flat = 0; flat < grid.num_cells(); ++flat) {
    grid.Unflatten(flat, &idx);
    const auto actual = diagram.CellSkyline(flat);
    ASSERT_EQ(std::vector<PointId>(actual.begin(), actual.end()),
              OracleCell(ds, grid, idx))
        << "flat " << flat;
  }
}

TEST_P(NdDiagramTest, FourDims) {
  const DatasetNd ds = RandomNd(8, 4, 8, 7);
  const NdCellDiagram diagram = GetParam().builder(ds);
  const NdGrid& grid = diagram.grid();
  std::vector<uint32_t> idx;
  for (uint64_t flat = 0; flat < grid.num_cells(); ++flat) {
    grid.Unflatten(flat, &idx);
    const auto actual = diagram.CellSkyline(flat);
    ASSERT_EQ(std::vector<PointId>(actual.begin(), actual.end()),
              OracleCell(ds, grid, idx));
  }
}

TEST_P(NdDiagramTest, TwoDimsMatchesQuadrantDiagram) {
  // d = 2 must reproduce the 2-D quadrant diagram exactly.
  const Dataset ds2 = skydia::testing::RandomDataset(20, 16, 9);
  const DatasetNd ds = DatasetNd::FromDataset2d(ds2);
  const NdCellDiagram nd = GetParam().builder(ds);
  const SkylineDiagram built = skydia::testing::BuildDiagram(
      ds2, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& quad = *built.cell_diagram();
  const CellGrid& grid2 = quad.grid();
  for (uint32_t cy = 0; cy < grid2.num_rows(); ++cy) {
    for (uint32_t cx = 0; cx < grid2.num_columns(); ++cx) {
      const auto expected = quad.CellSkyline(cx, cy);
      const auto actual = nd.CellSkyline(nd.grid().Flatten({cx, cy}));
      ASSERT_TRUE(expected.size() == actual.size() &&
                  std::equal(expected.begin(), expected.end(), actual.begin()))
          << "cell (" << cx << ", " << cy << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, NdDiagramTest,
    ::testing::Values(
        NdBuilderParam{&BuildNdBaseline, "baseline"},
        NdBuilderParam{&BuildNdDsg, "dsg"},
        NdBuilderParam{&BuildNdScanning, "scanning"},
        NdBuilderParam{&BuildNdScanningInclusionExclusion, "inclusionexclusion"}),
    [](const auto& info) { return info.param.name; });

TEST(NdDiagramTest, QueryPointLocation) {
  const DatasetNd ds = RandomNd(10, 3, 12, 11);
  const NdCellDiagram diagram = BuildNdScanning(ds);
  const NdGrid& grid = diagram.grid();
  // All-zero query sees the full-dataset skyline.
  const auto at_origin = diagram.Query({0, 0, 0});
  std::vector<uint32_t> zero(3, 0);
  const auto cell0 = diagram.CellSkyline(grid.Flatten(zero));
  EXPECT_TRUE(at_origin.size() == cell0.size() &&
              std::equal(at_origin.begin(), at_origin.end(), cell0.begin()));
}

TEST(NdDiagramTest, BuildersAgreeOnAnticorrelated) {
  DataGenOptions options;
  options.n = 14;
  options.domain_size = 10;
  options.seed = 13;
  options.distribution = Distribution::kAnticorrelated;
  auto nd = GenerateDatasetNd(options, 3);
  ASSERT_TRUE(nd.ok());
  const NdCellDiagram a = BuildNdBaseline(*nd);
  const NdCellDiagram b = BuildNdDsg(*nd);
  const NdCellDiagram c = BuildNdScanning(*nd);
  const NdCellDiagram d = BuildNdScanningInclusionExclusion(*nd);
  EXPECT_TRUE(a.SameResults(b));
  EXPECT_TRUE(a.SameResults(c));
  EXPECT_TRUE(a.SameResults(d));
}

}  // namespace
}  // namespace skydia
