// Boundary-semantics tests for PointLocationIndex: queries exactly on grid
// lines, on vertices (data points), at domain corners, and outside the
// bounding grid. These pin the half-open convention documented in
// src/core/point_location.h — if a builder ever disagrees with the index
// about who owns a boundary, these tests name the position.
#include "src/core/point_location.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/diagram.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

// Three points in general position: x lines {2, 4, 5}, y lines {1, 3, 6}.
Dataset ThreePoints() {
  auto ds = Dataset::Create({{2, 3}, {5, 1}, {4, 6}}, 8);
  return std::move(ds).value();
}

SkylineDiagram BuildOrDie(const Dataset& dataset, SkylineQueryType type) {
  auto diagram = SkylineDiagram::Build(dataset, type);
  EXPECT_TRUE(diagram.ok()) << diagram.status();
  return std::move(diagram).value();
}

TEST(PointLocationTest, GridLinesBelongToTheColumnOnTheirLeft) {
  const Dataset ds = ThreePoints();
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const PointLocationIndex index(*diagram.cell_diagram());

  // Column cx covers (line[cx-1], line[cx]]: a query ON a line lands in the
  // column that ends at the line.
  EXPECT_EQ(index.Locate({1, 0}).cx, 0u);
  EXPECT_EQ(index.Locate({2, 0}).cx, 0u);  // on line x=2
  EXPECT_EQ(index.Locate({3, 0}).cx, 1u);
  EXPECT_EQ(index.Locate({4, 0}).cx, 1u);  // on line x=4
  EXPECT_EQ(index.Locate({5, 0}).cx, 2u);  // on line x=5
  EXPECT_EQ(index.Locate({6, 0}).cx, 3u);

  EXPECT_EQ(index.Locate({0, 1}).cy, 0u);  // on line y=1
  EXPECT_EQ(index.Locate({0, 2}).cy, 1u);
  EXPECT_EQ(index.Locate({0, 3}).cy, 1u);  // on line y=3
  EXPECT_EQ(index.Locate({0, 6}).cy, 2u);  // on line y=6
  EXPECT_EQ(index.Locate({0, 7}).cy, 3u);
}

TEST(PointLocationTest, VerticesLocateToTheirRankCell) {
  const Dataset ds = ThreePoints();
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const CellGrid& grid = diagram.cell_diagram()->grid();
  const PointLocationIndex index(*diagram.cell_diagram());
  for (PointId id = 0; id < ds.size(); ++id) {
    const auto cell = index.Locate(ds.point(id));
    EXPECT_EQ(cell.cx, grid.xrank(id)) << "point " << id;
    EXPECT_EQ(cell.cy, grid.yrank(id)) << "point " << id;
  }
}

TEST(PointLocationTest, QueriesOutsideTheBoundingGridLocate) {
  const Dataset ds = ThreePoints();
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const PointLocationIndex index(*diagram.cell_diagram());

  // Column 0 extends to -inf, the last column to +inf.
  EXPECT_EQ(index.Locate({-100, -100}).cx, 0u);
  EXPECT_EQ(index.Locate({-100, -100}).cy, 0u);
  EXPECT_EQ(index.Locate({100, 100}).cx, index.num_columns() - 1);
  EXPECT_EQ(index.Locate({100, 100}).cy, index.num_rows() - 1);
  EXPECT_FALSE(index.OnBoundary({-100, -100}));

  // Outside queries still answer: below/left of everything, every point is
  // a first-quadrant candidate.
  EXPECT_EQ(index.Query({-100, -100}).size(),
            FirstQuadrantSkyline(ds, {-100, -100}).size());
  // Above/right of everything the candidate set is empty.
  EXPECT_TRUE(index.Query({100, 100}).empty());
}

TEST(PointLocationTest, QuadrantAnswersAreExactEverywhereExhaustively) {
  const Dataset ds = ThreePoints();
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kQuadrant);
  const PointLocationIndex index(*diagram.cell_diagram());
  for (int64_t qx = -1; qx <= 8; ++qx) {
    for (int64_t qy = -1; qy <= 8; ++qy) {
      const Point2D q{qx, qy};
      const std::vector<PointId> expected = FirstQuadrantSkyline(ds, q);
      const auto got = index.Query(q);
      ASSERT_TRUE(got.size() == expected.size() &&
                  std::equal(got.begin(), got.end(), expected.begin()))
          << "quadrant mismatch at q = " << q;
    }
  }
}

TEST(PointLocationTest, GlobalBoundaryQueriesAnswerWithTheLeftBelowCell) {
  const Dataset ds = ThreePoints();
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kGlobal);
  const PointLocationIndex index(*diagram.cell_diagram());

  // q on the vertical line x=2, interior in y: the stored answer must be
  // the global skyline just LEFT of the line (the half-open convention's
  // adjacent interior cell), i.e. at the 4x representative x4 = 4*2 - 2.
  // Each quadrant's candidate set is the same on the line as just left of
  // it, so that answer is also the exact one at q.
  const Point2D q{2, 2};
  ASSERT_TRUE(index.OnBoundary(q));
  const std::vector<PointId> left = GlobalSkylineAt4(ds, 4 * 2 - 2, 4 * 2);
  const auto got = index.Query(q);
  EXPECT_TRUE(got.size() == left.size() &&
              std::equal(got.begin(), got.end(), left.begin()))
      << "global boundary answer is not the left-adjacent interior result";
  EXPECT_EQ(left, GlobalSkyline(ds, q));
}

TEST(PointLocationTest, DynamicBisectorsAreBoundariesAndAnswerLeftBelow) {
  // x values {2, 4, 5} put a bisector at x=3 (between 2 and 4): an integer
  // position that is NOT a data coordinate but still a subcell boundary.
  const Dataset ds = ThreePoints();
  const SkylineDiagram diagram = BuildOrDie(ds, SkylineQueryType::kDynamic);
  const SubcellDiagram& subcell = *diagram.subcell_diagram();
  const PointLocationIndex index(subcell);

  const Point2D q{3, 2};
  EXPECT_TRUE(index.OnBoundary(q));

  // The located subcell's representative answer is the stored one: the
  // convention assigns boundary queries the interior subcell to the
  // left/below.
  const auto cell = index.Locate(q);
  const std::vector<PointId> expected = DynamicSkylineAt4(
      ds, subcell.grid().x_axis().Representative4(cell.cx),
      subcell.grid().y_axis().Representative4(cell.cy));
  const auto got = index.Query(q);
  EXPECT_TRUE(got.size() == expected.size() &&
              std::equal(got.begin(), got.end(), expected.begin()))
      << "dynamic boundary answer is not the left/below interior result";
}

}  // namespace
}  // namespace skydia
