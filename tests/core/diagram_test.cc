#include "src/core/diagram.h"

#include <gtest/gtest.h>

#include "src/core/build_report.h"
#include "src/core/serialize.h"
#include "src/datagen/real_data.h"
#include "src/datagen/workload.h"
#include "src/skyline/query.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;

TEST(SkylineDiagramTest, RejectsEmptyDataset) {
  auto ds = Dataset::Create({}, 16);
  ASSERT_TRUE(ds.ok());
  auto diagram =
      SkylineDiagram::Build(std::move(ds).value(), SkylineQueryType::kQuadrant);
  EXPECT_FALSE(diagram.ok());
  EXPECT_EQ(diagram.status().code(), StatusCode::kInvalidArgument);
}

TEST(SkylineDiagramTest, QuadrantQueryExactEverywhere) {
  const Dataset ds = RandomDataset(20, 12, 3);
  auto built = SkylineDiagram::Build(RandomDataset(20, 12, 3),
                                     SkylineQueryType::kQuadrant);
  ASSERT_TRUE(built.ok());
  for (int64_t x = 0; x < 12; ++x) {
    for (int64_t y = 0; y < 12; ++y) {
      EXPECT_EQ(built->QueryExact({x, y}), FirstQuadrantSkyline(ds, {x, y}))
          << "(" << x << ", " << y << ")";
    }
  }
}

TEST(SkylineDiagramTest, GlobalQueryExactEverywhere) {
  const Dataset ds = RandomDataset(18, 12, 5);
  auto built = SkylineDiagram::Build(RandomDataset(18, 12, 5),
                                     SkylineQueryType::kGlobal);
  ASSERT_TRUE(built.ok());
  for (int64_t x = 0; x < 12; ++x) {
    for (int64_t y = 0; y < 12; ++y) {
      EXPECT_EQ(built->QueryExact({x, y}), GlobalSkyline(ds, {x, y}))
          << "(" << x << ", " << y << ")";
    }
  }
}

TEST(SkylineDiagramTest, DynamicQueryExactEverywhere) {
  const Dataset ds = RandomDataset(10, 10, 7);
  auto built = SkylineDiagram::Build(RandomDataset(10, 10, 7),
                                     SkylineQueryType::kDynamic);
  ASSERT_TRUE(built.ok());
  for (int64_t x = 0; x < 10; ++x) {
    for (int64_t y = 0; y < 10; ++y) {
      EXPECT_EQ(built->QueryExact({x, y}), DynamicSkyline(ds, {x, y}))
          << "(" << x << ", " << y << ")";
    }
  }
}

TEST(SkylineDiagramTest, AllCellAlgorithmsAgreeThroughFacade) {
  for (const BuildAlgorithm algo :
       {BuildAlgorithm::kAuto, BuildAlgorithm::kBaseline, BuildAlgorithm::kDsg,
        BuildAlgorithm::kScanning}) {
    SkylineBuildOptions options;
    options.algorithm = algo;
    auto built = SkylineDiagram::Build(RandomDataset(15, 16, 9),
                                       SkylineQueryType::kQuadrant, options);
    ASSERT_TRUE(built.ok()) << BuildAlgorithmName(algo);
    const Dataset ds = RandomDataset(15, 16, 9);
    const auto result = built->Query({4, 4});
    EXPECT_EQ(std::vector<PointId>(result.begin(), result.end()),
              FirstQuadrantSkyline(ds, {4, 4}));
  }
}

TEST(SkylineDiagramTest, AllDynamicBuildAlgorithmsAgreeThroughFacade) {
  const Dataset reference = RandomDataset(8, 12, 11);
  for (const BuildAlgorithm algo :
       {BuildAlgorithm::kAuto, BuildAlgorithm::kBaseline,
        BuildAlgorithm::kSubset, BuildAlgorithm::kDsg,
        BuildAlgorithm::kScanning}) {
    SkylineBuildOptions options;
    options.algorithm = algo;
    auto built = SkylineDiagram::Build(RandomDataset(8, 12, 11),
                                       SkylineQueryType::kDynamic, options);
    ASSERT_TRUE(built.ok()) << BuildAlgorithmName(algo);
    EXPECT_EQ(built->QueryExact({5, 5}), DynamicSkyline(reference, {5, 5}))
        << BuildAlgorithmName(algo);
  }
}

TEST(SkylineDiagramTest, RejectsAlgorithmSemanticsMismatch) {
  // kSubset names a dynamic-only construction; the facade must reject it for
  // cell diagrams instead of silently picking something else.
  SkylineBuildOptions options;
  options.algorithm = BuildAlgorithm::kSubset;
  auto built = SkylineDiagram::Build(RandomDataset(10, 16, 13),
                                     SkylineQueryType::kQuadrant, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(SkylineDiagramTest, RejectsParallelismBelowOne) {
  for (const SkylineQueryType type :
       {SkylineQueryType::kQuadrant, SkylineQueryType::kGlobal,
        SkylineQueryType::kDynamic}) {
    for (const int parallelism : {0, -1}) {
      SkylineBuildOptions options;
      options.parallelism = parallelism;
      auto built =
          SkylineDiagram::Build(RandomDataset(10, 16, 13), type, options);
      ASSERT_FALSE(built.ok()) << SkylineQueryTypeName(type);
      EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

struct BuildRequest {
  SkylineQueryType type;
  BuildAlgorithm algorithm;
};

class ParallelismRuleTest : public ::testing::TestWithParam<BuildRequest> {};

// Only the dynamic scanning construction (kAuto or kScanning) has a
// parallel form. Every other request at parallelism 4 builds sequentially.
// Either way the saved blob is byte-identical to the one-thread build's, and
// the report names the algorithm and the thread count that ran.
TEST_P(ParallelismRuleTest, FourThreadsSaveWhatOneThreadSaves) {
  const auto [type, algorithm] = GetParam();
  const auto build = [&](int parallelism, BuildReport* report) {
    SkylineBuildOptions options;
    options.algorithm = algorithm;
    options.parallelism = parallelism;
    options.report = report;
    auto built =
        SkylineDiagram::Build(RandomDataset(12, 16, 13), type, options);
    EXPECT_TRUE(built.ok()) << built.status();
    if (!built.ok()) return std::string();
    return type == SkylineQueryType::kDynamic
               ? SerializeSubcellDiagram(built->dataset(),
                                         *built->subcell_diagram())
               : SerializeCellDiagram(built->dataset(),
                                      *built->cell_diagram());
  };
  BuildReport one;
  BuildReport four;
  const std::string sequential = build(1, &one);
  const std::string parallel = build(4, &four);
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(parallel, sequential);

  // kAuto runs the staircase scan for quadrant and global diagrams and
  // Algorithm 7 (scanning) for dynamic ones.
  const char* ran = algorithm != BuildAlgorithm::kAuto
                        ? BuildAlgorithmName(algorithm)
                    : type == SkylineQueryType::kDynamic ? "scanning"
                                                         : "staircase";
  EXPECT_EQ(one.algorithm, ran);
  EXPECT_EQ(four.algorithm, ran);
  EXPECT_EQ(one.parallelism, 1);
  const bool striped = type == SkylineQueryType::kDynamic &&
                       std::string(ran) == "scanning";
  EXPECT_EQ(four.parallelism, striped ? 4 : 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllRequests, ParallelismRuleTest,
    ::testing::Values(
        BuildRequest{SkylineQueryType::kQuadrant, BuildAlgorithm::kAuto},
        BuildRequest{SkylineQueryType::kQuadrant, BuildAlgorithm::kBaseline},
        BuildRequest{SkylineQueryType::kQuadrant, BuildAlgorithm::kDsg},
        BuildRequest{SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning},
        BuildRequest{SkylineQueryType::kGlobal, BuildAlgorithm::kAuto},
        BuildRequest{SkylineQueryType::kGlobal, BuildAlgorithm::kBaseline},
        BuildRequest{SkylineQueryType::kGlobal, BuildAlgorithm::kDsg},
        BuildRequest{SkylineQueryType::kGlobal, BuildAlgorithm::kScanning},
        BuildRequest{SkylineQueryType::kDynamic, BuildAlgorithm::kAuto},
        BuildRequest{SkylineQueryType::kDynamic, BuildAlgorithm::kBaseline},
        BuildRequest{SkylineQueryType::kDynamic, BuildAlgorithm::kSubset},
        BuildRequest{SkylineQueryType::kDynamic, BuildAlgorithm::kDsg},
        BuildRequest{SkylineQueryType::kDynamic, BuildAlgorithm::kScanning}),
    [](const ::testing::TestParamInfo<BuildRequest>& info) {
      return std::string(SkylineQueryTypeName(info.param.type)) + "_" +
             BuildAlgorithmName(info.param.algorithm);
    });

TEST(SkylineDiagramTest, HotelExampleAllThreeSemantics) {
  const Point2D q = HotelExampleQuery();

  auto quadrant =
      SkylineDiagram::Build(HotelExample(), SkylineQueryType::kQuadrant);
  ASSERT_TRUE(quadrant.ok());
  EXPECT_EQ(quadrant->QueryLabels(q),
            (std::vector<std::string>{"p3", "p8", "p10"}));

  auto global =
      SkylineDiagram::Build(HotelExample(), SkylineQueryType::kGlobal);
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global->QueryLabels(q),
            (std::vector<std::string>{"p3", "p6", "p8", "p10", "p11"}));

  auto dynamic =
      SkylineDiagram::Build(HotelExample(), SkylineQueryType::kDynamic);
  ASSERT_TRUE(dynamic.ok());
  EXPECT_EQ(dynamic->QueryLabels(q), (std::vector<std::string>{"p6", "p11"}));
}

TEST(SkylineDiagramTest, AccessorsExposeUnderlyingDiagrams) {
  auto quadrant =
      SkylineDiagram::Build(HotelExample(), SkylineQueryType::kQuadrant);
  ASSERT_TRUE(quadrant.ok());
  EXPECT_NE(quadrant->cell_diagram(), nullptr);
  EXPECT_EQ(quadrant->subcell_diagram(), nullptr);
  EXPECT_EQ(quadrant->type(), SkylineQueryType::kQuadrant);

  auto dynamic =
      SkylineDiagram::Build(HotelExample(), SkylineQueryType::kDynamic);
  ASSERT_TRUE(dynamic.ok());
  EXPECT_EQ(dynamic->cell_diagram(), nullptr);
  EXPECT_NE(dynamic->subcell_diagram(), nullptr);
}

// Build() makes the point-location index last, as a view of the cell table
// and result pool on the heap. Moving the diagram (construction, vector
// growth, assignment over a live diagram) must keep every answer in place.
TEST(SkylineDiagramTest, MovedDiagramKeepsAnsweringThroughItsIndex) {
  for (const SkylineQueryType type :
       {SkylineQueryType::kQuadrant, SkylineQueryType::kGlobal,
        SkylineQueryType::kDynamic}) {
    const Dataset ds = RandomDataset(16, 12, 13);
    std::vector<SkylineDiagram> diagrams;
    diagrams.push_back(testing::BuildDiagram(ds, type));
    std::vector<std::vector<PointId>> before;
    for (int64_t x = 0; x < 12; ++x) {
      for (int64_t y = 0; y < 12; ++y) {
        const auto ids = diagrams.front().Query({x, y});
        before.emplace_back(ids.begin(), ids.end());
      }
    }
    for (int i = 0; i < 8; ++i) {
      diagrams.push_back(testing::BuildDiagram(ds, type));  // reallocates
    }
    diagrams.push_back(testing::BuildDiagram(RandomDataset(4, 12, 1), type));
    // Move-construct out of the vector, then move-assign over a live diagram
    // of other points, which the assignment destroys.
    SkylineDiagram moved = std::move(diagrams.front());
    diagrams.back() = std::move(moved);
    const SkylineDiagram& assigned = diagrams.back();

    size_t at = 0;
    for (int64_t x = 0; x < 12; ++x) {
      for (int64_t y = 0; y < 12; ++y) {
        const auto ids = assigned.Query({x, y});
        EXPECT_EQ(std::vector<PointId>(ids.begin(), ids.end()), before[at++])
            << SkylineQueryTypeName(type) << " (" << x << ", " << y << ")";
        EXPECT_EQ(assigned.QueryExact({x, y}), OracleSkyline(ds, type, {x, y}))
            << SkylineQueryTypeName(type) << " (" << x << ", " << y << ")";
      }
    }
  }
}

// The semantics rule reads back the built type from every construction of a
// cell table: each builder and both semantics, on tie-heavy domains (2, 4,
// 16) and a wide one, from n = 1 up. Wrap, which Load ends in, serves what
// the rule reads; a subcell table is dynamic.
TEST(DiagramSemanticsTest, ReadsTheBuiltTypeFromEveryConstruction) {
  for (const BuildAlgorithm algorithm :
       {BuildAlgorithm::kAuto, BuildAlgorithm::kBaseline, BuildAlgorithm::kDsg,
        BuildAlgorithm::kScanning}) {
    for (const SkylineQueryType type :
         {SkylineQueryType::kQuadrant, SkylineQueryType::kGlobal}) {
      for (const int64_t domain : {2, 4, 16, 1024}) {
        for (const size_t n : {1, 2, 5, 40}) {
          for (uint64_t seed = 1; seed <= 3; ++seed) {
            const SkylineDiagram built = testing::BuildDiagram(
                RandomDataset(n, domain, seed), type, algorithm);
            const std::string where =
                std::string(BuildAlgorithmName(algorithm)) + " " +
                SkylineQueryTypeName(type) + " n=" + std::to_string(n) +
                " domain=" + std::to_string(domain) +
                " seed=" + std::to_string(seed);
            EXPECT_EQ(DiagramSemantics(*built.cell_diagram()), type) << where;
            const SkylineDiagram wrapped = SkylineDiagram::Wrap(
                built.shared_dataset(), built.shared_cell_diagram());
            EXPECT_EQ(wrapped.type(), type) << where;
          }
        }
      }
    }
  }
  const SkylineDiagram dynamic =
      testing::BuildDiagram(RandomDataset(6, 4, 1), SkylineQueryType::kDynamic);
  EXPECT_EQ(DiagramSemantics(*dynamic.subcell_diagram()),
            SkylineQueryType::kDynamic);
  EXPECT_EQ(SkylineDiagram::Wrap(dynamic.shared_dataset(),
                                 dynamic.shared_subcell_diagram())
                .type(),
            SkylineQueryType::kDynamic);
}

// Inserts and deletes keep a quadrant table quadrant. A delete empties the
// dropped point's sets in the adopted pool, so the rule reads the corner's
// content rather than testing for SetId 0.
TEST(DiagramSemanticsTest, QuadrantTablesStayQuadrantUnderMutations) {
  for (const int64_t domain : {2, 4, 16, 1024}) {
    auto diagram =
        IncrementalQuadrantDiagram::Create(RandomDataset(12, domain, 7));
    ASSERT_TRUE(diagram.ok()) << diagram.status();
    Rng rng(static_cast<uint64_t>(domain));
    for (int step = 0; step < 40; ++step) {
      const size_t size = diagram->dataset().size();
      if (size <= 2 || rng.NextBounded(2) == 0) {
        ASSERT_TRUE(diagram
                        ->Insert({rng.NextInt(0, domain - 1),
                                  rng.NextInt(0, domain - 1)})
                        .ok());
      } else {
        ASSERT_TRUE(
            diagram->Delete(static_cast<PointId>(rng.NextBounded(size))).ok());
      }
      ASSERT_EQ(DiagramSemantics(diagram->diagram()),
                SkylineQueryType::kQuadrant)
          << "domain " << domain << ", step " << step;
      EXPECT_EQ(SkylineDiagram::Wrap(diagram->shared_dataset(),
                                     diagram->shared_diagram())
                    .type(),
                SkylineQueryType::kQuadrant);
    }
  }
}

// Adopt checks what it adopts: a table the rule calls global is refused, so
// no caller can start quadrant maintenance on it.
TEST(DiagramSemanticsTest, AdoptRefusesATableThatStatesGlobal) {
  const Dataset ds = RandomDataset(16, 64, 9);
  const SkylineDiagram global =
      testing::BuildDiagram(ds, SkylineQueryType::kGlobal);
  auto refused = IncrementalQuadrantDiagram::Adopt(
      global.shared_dataset(), global.shared_cell_diagram());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  const SkylineDiagram quadrant =
      testing::BuildDiagram(ds, SkylineQueryType::kQuadrant);
  EXPECT_TRUE(IncrementalQuadrantDiagram::Adopt(quadrant.shared_dataset(),
                                                quadrant.shared_cell_diagram())
                  .ok());
}

TEST(SkylineDiagramTest, EnumNames) {
  EXPECT_STREQ(SkylineQueryTypeName(SkylineQueryType::kQuadrant), "quadrant");
  EXPECT_STREQ(SkylineQueryTypeName(SkylineQueryType::kGlobal), "global");
  EXPECT_STREQ(SkylineQueryTypeName(SkylineQueryType::kDynamic), "dynamic");
  EXPECT_STREQ(BuildAlgorithmName(BuildAlgorithm::kAuto), "auto");
  EXPECT_STREQ(BuildAlgorithmName(BuildAlgorithm::kScanning), "scanning");
}

TEST(SkylineDiagramTest, ParseRoundTrips) {
  for (const BuildAlgorithm algo :
       {BuildAlgorithm::kAuto, BuildAlgorithm::kBaseline, BuildAlgorithm::kDsg,
        BuildAlgorithm::kSubset, BuildAlgorithm::kScanning}) {
    auto parsed = ParseBuildAlgorithm(BuildAlgorithmName(algo));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, algo);
  }
  EXPECT_FALSE(ParseBuildAlgorithm("fastest").ok());
  for (const SkylineQueryType type :
       {SkylineQueryType::kQuadrant, SkylineQueryType::kGlobal,
        SkylineQueryType::kDynamic}) {
    auto parsed = ParseSkylineQueryType(SkylineQueryTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(ParseSkylineQueryType("voronoi").ok());
}

}  // namespace
}  // namespace skydia
