#include "src/apps/pir.h"

#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/datagen/workload.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;

TEST(PirTest, DatabaseEncodesEveryCell) {
  const Dataset ds = RandomDataset(15, 20, 3);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const PirDatabase db = BuildPirDatabase(diagram);
  EXPECT_EQ(db.num_records, diagram.grid().num_cells());
  const CellGrid& grid = diagram.grid();
  for (uint32_t cy = 0; cy < grid.num_rows(); ++cy) {
    for (uint32_t cx = 0; cx < grid.num_columns(); ++cx) {
      const auto decoded =
          DecodePirRecord(db.record(grid.CellIndex(cx, cy)), db.record_bytes);
      const auto expected = diagram.CellSkyline(cx, cy);
      EXPECT_EQ(decoded,
                std::vector<PointId>(expected.begin(), expected.end()));
    }
  }
}

TEST(PirTest, EndToEndPrivateQueriesAreCorrect) {
  const Dataset ds = RandomDataset(20, 24, 5);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const PirDatabase db = BuildPirDatabase(diagram);
  const PirServer server1(&db);
  const PirServer server2(&db);
  Rng rng(11);
  for (const Point2D& q : GenerateQueries(ds, 30, 13)) {
    auto result =
        PrivateSkylineQuery(diagram, db, server1, server2, q, &rng);
    ASSERT_TRUE(result.ok());
    const auto expected = built.Query(q);
    EXPECT_EQ(*result,
              std::vector<PointId>(expected.begin(), expected.end()));
  }
}

TEST(PirTest, SelectionVectorsDifferInExactlyTheTarget) {
  PirClient client(/*num_records=*/64, /*record_bytes=*/8);
  Rng rng(7);
  for (uint64_t target = 0; target < 64; target += 13) {
    const auto queries = client.CreateQueries(target, &rng);
    ASSERT_EQ(queries.to_server1.size(), 64u);
    for (uint64_t i = 0; i < 64; ++i) {
      if (i == target) {
        EXPECT_NE(queries.to_server1[i], queries.to_server2[i]);
      } else {
        EXPECT_EQ(queries.to_server1[i], queries.to_server2[i]);
      }
    }
  }
}

TEST(PirTest, SingleServerViewIsUnbiased) {
  // Each individual selection vector must look uniformly random regardless
  // of the target index: bit frequencies near 1/2.
  PirClient client(128, 8);
  Rng rng(17);
  std::vector<int> counts(128, 0);
  const int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    const auto queries = client.CreateQueries(/*index=*/5, &rng);
    for (size_t i = 0; i < 128; ++i) counts[i] += queries.to_server1[i];
  }
  for (size_t i = 0; i < 128; ++i) {
    EXPECT_GT(counts[i], kTrials / 4) << "bit " << i;
    EXPECT_LT(counts[i], 3 * kTrials / 4) << "bit " << i;
  }
}

TEST(PirTest, DecodeRejectsWrongSizes) {
  PirClient client(16, 8);
  const auto bad = client.Decode(std::vector<uint8_t>(8, 0),
                                 std::vector<uint8_t>(7, 0));
  EXPECT_FALSE(bad.ok());
}

TEST(PirTest, XorReconstructionIdentity) {
  // Answer(S1) xor Answer(S2) equals the target record by linearity.
  const Dataset ds = RandomDataset(10, 16, 9);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const PirDatabase db = BuildPirDatabase(diagram);
  const PirServer server(&db);
  PirClient client(db.num_records, db.record_bytes);
  Rng rng(23);
  const uint64_t target = db.num_records / 2;
  const auto queries = client.CreateQueries(target, &rng);
  auto record = client.Decode(server.Answer(queries.to_server1),
                              server.Answer(queries.to_server2));
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(*record, std::vector<uint8_t>(db.record(target),
                                          db.record(target) + db.record_bytes));
}

}  // namespace
}  // namespace skydia
