// The staircase construction (src/core/quadrant_staircase.h) must be
// Algorithm 3 in another shape: the same cell table and the same pool, id
// for id, so a kAuto build saves the bytes a kScanning build saves.
#include "src/core/quadrant_staircase.h"

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/quadrant_scanning.h"
#include "src/core/validate.h"
#include "src/datagen/distributions.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

void ExpectSameDiagram(const Dataset& ds) {
  const CellDiagram staircase = internal::BuildQuadrantStaircase(ds);
  const CellDiagram scanning = internal::BuildQuadrantScanning(ds);
  const auto stair_cells = staircase.cell_table();
  const auto scan_cells = scanning.cell_table();
  ASSERT_EQ(std::vector<SetId>(stair_cells.begin(), stair_cells.end()),
            std::vector<SetId>(scan_cells.begin(), scan_cells.end()));
  ASSERT_EQ(staircase.pool().size(), scanning.pool().size());
  for (SetId id = 0; id < staircase.pool().size(); ++id) {
    const auto a = staircase.pool().Get(id);
    const auto b = scanning.pool().Get(id);
    ASSERT_EQ(std::vector<PointId>(a.begin(), a.end()),
              std::vector<PointId>(b.begin(), b.end()))
        << "set " << id;
  }
  ValidateOptions options;
  options.require_canonical_pool = true;
  options.sample_queries = 8;
  EXPECT_TRUE(ValidateDiagram(ds, staircase, options).ok());
}

using StaircaseCase = std::tuple<Distribution, int64_t>;

class QuadrantStaircaseTest : public ::testing::TestWithParam<StaircaseCase> {
};

TEST_P(QuadrantStaircaseTest, SameCellsAndPoolAsScanning) {
  const auto [distribution, domain] = GetParam();
  for (const size_t n : {1, 2, 7, 50, 300}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    ExpectSameDiagram(
        testing::GeneratedDataset(n, domain, distribution, /*seed=*/n + 5));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndDomains, QuadrantStaircaseTest,
    ::testing::Combine(
        ::testing::Values(Distribution::kCorrelated, Distribution::kIndependent,
                          Distribution::kAnticorrelated,
                          Distribution::kClustered),
        ::testing::Values(int64_t{4}, int64_t{16}, int64_t{64}, int64_t{256},
                          int64_t{1} << 16)),
    [](const auto& info) {
      return std::string(DistributionName(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(QuadrantStaircaseTest, ExactDuplicateCornersEnterAsOneHead) {
  // Three copies of (3, 3), two of (1, 5), and points sharing only an x or
  // a y value with them.
  auto ds = Dataset::Create({{3, 3},
                             {1, 5},
                             {3, 3},
                             {5, 1},
                             {3, 6},
                             {1, 5},
                             {6, 3},
                             {3, 3},
                             {0, 7}},
                            8);
  ASSERT_TRUE(ds.ok());
  ExpectSameDiagram(*ds);
  const CellDiagram diagram = internal::BuildQuadrantStaircase(*ds);
  const auto at_corner = diagram.CellSkyline(diagram.grid().ColumnOf(3),
                                             diagram.grid().RowOf(3));
  EXPECT_EQ(std::vector<PointId>(at_corner.begin(), at_corner.end()),
            (std::vector<PointId>{0, 2, 7}));
  const auto origin = diagram.CellSkyline(0, 0);
  EXPECT_EQ(std::vector<PointId>(origin.begin(), origin.end()),
            (std::vector<PointId>{0, 1, 2, 3, 5, 7, 8}));
}

}  // namespace
}  // namespace skydia
