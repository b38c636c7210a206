#include "src/core/render_svg.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/datagen/real_data.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;
using skydia::testing::RandomDistinctDataset;

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(RenderSvgTest, CellDiagramProducesWellFormedSvg) {
  const Dataset ds = RandomDataset(15, 20, 3);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const std::string svg = RenderDiagramSvg(built);
  EXPECT_NE(svg.find("<svg xmlns"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One circle per seed.
  EXPECT_EQ(CountOccurrences(svg, "<circle"), ds.size());
  // At least one rectangle per distinct x-column with positive width.
  EXPECT_GT(CountOccurrences(svg, "<rect"), ds.size());
  // One grid line per distinct coordinate of either axis.
  const CellGrid& grid = built.cell_diagram()->grid();
  EXPECT_EQ(CountOccurrences(svg, "<line"),
            grid.num_distinct_x() + grid.num_distinct_y());
}

TEST(RenderSvgTest, LabelsToggle) {
  const Dataset hotels = HotelExample();
  const SkylineDiagram built = testing::BuildDiagram(
      hotels, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  SvgOptions with_labels;
  with_labels.draw_labels = true;
  const std::string svg = RenderDiagramSvg(built, with_labels);
  EXPECT_NE(svg.find(">p11</text>"), std::string::npos);
  const std::string plain = RenderDiagramSvg(built);
  EXPECT_EQ(plain.find("<text"), std::string::npos);
}

TEST(RenderSvgTest, EqualResultsShareColors) {
  const Dataset ds = RandomDataset(10, 16, 5);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const std::string svg = RenderDiagramSvg(built);
  // Distinct fill colors cannot exceed distinct result sets + background
  // tones; sanity-check by counting unique hsl() strings.
  const size_t distinct_sets = built.ComputeStats().num_distinct_sets;
  size_t unique_hsl = 0;
  std::string marker = "fill=\"hsl(";
  std::vector<std::string> seen;
  for (size_t pos = svg.find(marker); pos != std::string::npos;
       pos = svg.find(marker, pos + 1)) {
    const size_t end = svg.find(')', pos);
    const std::string color = svg.substr(pos, end - pos);
    if (std::find(seen.begin(), seen.end(), color) == seen.end()) {
      seen.push_back(color);
      ++unique_hsl;
    }
  }
  EXPECT_LE(unique_hsl, distinct_sets);
}

TEST(RenderSvgTest, SubcellDiagramRenders) {
  const Dataset ds = RandomDataset(8, 12, 7);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kDynamic, BuildAlgorithm::kScanning);
  const std::string svg = RenderDiagramSvg(built);
  EXPECT_NE(svg.find("<svg xmlns"), std::string::npos);
  EXPECT_EQ(CountOccurrences(svg, "<circle"), ds.size());
  // The subcell grid is too dense for grid lines; only cells carry them.
  EXPECT_EQ(CountOccurrences(svg, "<line"), 0u);
}

// A loaded blob renders byte for byte like the built diagram it was saved
// from: the renderer reads only what the blob stores.
TEST(RenderSvgTest, LoadedBlobRendersLikeTheBuiltDiagram) {
  const Dataset ds = RandomDataset(12, 24, 13);
  for (const SkylineQueryType type :
       {SkylineQueryType::kQuadrant, SkylineQueryType::kGlobal,
        SkylineQueryType::kDynamic}) {
    SCOPED_TRACE(SkylineQueryTypeName(type));
    const SkylineDiagram built =
        testing::BuildDiagram(ds, type, BuildAlgorithm::kAuto);
    const std::string path = ::testing::TempDir() + "/skydia_render_" +
                             SkylineQueryTypeName(type) + ".skd";
    ASSERT_TRUE(built.Save(path).ok());
    StatusOr<SkylineDiagram> loaded = SkylineDiagram::Load(path);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    SvgOptions with_labels;
    with_labels.draw_labels = true;
    EXPECT_EQ(RenderDiagramSvg(*loaded), RenderDiagramSvg(built));
    EXPECT_EQ(RenderDiagramSvg(*loaded, with_labels),
              RenderDiagramSvg(built, with_labels));
  }
}

TEST(RenderSvgTest, SweepingDiagramRendersEveryPolyomino) {
  const Dataset ds = RandomDistinctDataset(12, 32, 9);
  const auto swept = BuildQuadrantSweeping(ds);
  ASSERT_TRUE(swept.ok());
  const std::string svg = RenderSweepingDiagramSvg(ds, *swept);
  EXPECT_EQ(CountOccurrences(svg, "<polygon"), swept->polyominoes.size());
}

TEST(RenderSvgTest, WriteSvgFileRoundTrip) {
  const Dataset ds = RandomDataset(5, 8, 11);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const std::string path = ::testing::TempDir() + "/skydia_render.svg";
  ASSERT_TRUE(WriteSvgFile(path, RenderDiagramSvg(built)).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("<svg"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skydia
