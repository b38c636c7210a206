#include "src/apps/authentication.h"

#include <gtest/gtest.h>

#include "src/core/diagram.h"
#include "src/datagen/workload.h"
#include "tests/testing/util.h"

namespace skydia {
namespace {

using skydia::testing::RandomDataset;

TEST(AuthenticationTest, HonestProofsVerify) {
  const Dataset ds = RandomDataset(25, 32, 3);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const AuthenticatedDiagram auth(diagram);
  for (const Point2D& q : GenerateQueries(ds, 50, 7)) {
    const SkylineProof proof = auth.Prove(q);
    EXPECT_TRUE(
        AuthenticatedDiagram::Verify(auth.root(), auth.num_leaves(), proof));
  }
}

TEST(AuthenticationTest, ProofResultMatchesDiagram) {
  const Dataset ds = RandomDataset(20, 24, 5);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const AuthenticatedDiagram auth(diagram);
  const Point2D q{7, 9};
  const SkylineProof proof = auth.Prove(q);
  const auto direct = built.Query(q);
  EXPECT_EQ(proof.result,
            std::vector<PointId>(direct.begin(), direct.end()));
}

TEST(AuthenticationTest, TamperedResultFailsVerification) {
  const Dataset ds = RandomDataset(20, 24, 9);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const AuthenticatedDiagram auth(diagram);
  SkylineProof proof = auth.Prove({5, 5});

  SkylineProof dropped = proof;
  if (!dropped.result.empty()) {
    dropped.result.pop_back();  // server truncates the answer
    EXPECT_FALSE(AuthenticatedDiagram::Verify(auth.root(), auth.num_leaves(),
                                              dropped));
  }

  SkylineProof forged = proof;
  forged.result.push_back(999);  // server injects a bogus point
  EXPECT_FALSE(
      AuthenticatedDiagram::Verify(auth.root(), auth.num_leaves(), forged));
}

TEST(AuthenticationTest, WrongCellIndexFails) {
  const Dataset ds = RandomDataset(20, 24, 11);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const AuthenticatedDiagram auth(diagram);
  SkylineProof proof = auth.Prove({5, 5});
  proof.cell_index = (proof.cell_index + 1) % auth.num_leaves();
  EXPECT_FALSE(
      AuthenticatedDiagram::Verify(auth.root(), auth.num_leaves(), proof));
}

TEST(AuthenticationTest, TamperedPathFails) {
  const Dataset ds = RandomDataset(20, 24, 13);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const AuthenticatedDiagram auth(diagram);
  SkylineProof proof = auth.Prove({3, 3});
  ASSERT_FALSE(proof.path.empty());
  proof.path[0][0] ^= 0x01;
  EXPECT_FALSE(
      AuthenticatedDiagram::Verify(auth.root(), auth.num_leaves(), proof));
}

TEST(AuthenticationTest, WrongRootFails) {
  const Dataset ds_a = RandomDataset(20, 24, 15);
  const Dataset ds_b = RandomDataset(20, 24, 16);
  const SkylineDiagram built_a = testing::BuildDiagram(
      ds_a, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const SkylineDiagram built_b = testing::BuildDiagram(
      ds_b, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const AuthenticatedDiagram auth_a(*built_a.cell_diagram());
  const AuthenticatedDiagram auth_b(*built_b.cell_diagram());
  const SkylineProof proof = auth_a.Prove({5, 5});
  if (auth_a.num_leaves() == auth_b.num_leaves()) {
    EXPECT_FALSE(AuthenticatedDiagram::Verify(auth_b.root(),
                                              auth_b.num_leaves(), proof));
  }
}

TEST(AuthenticationTest, PathLengthMustMatchTreeHeight) {
  const Dataset ds = RandomDataset(20, 24, 17);
  const SkylineDiagram built = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const CellDiagram& diagram = *built.cell_diagram();
  const AuthenticatedDiagram auth(diagram);
  SkylineProof proof = auth.Prove({5, 5});
  proof.path.pop_back();
  EXPECT_FALSE(
      AuthenticatedDiagram::Verify(auth.root(), auth.num_leaves(), proof));
}

TEST(AuthenticationTest, RootIsDeterministic) {
  const Dataset ds = RandomDataset(15, 20, 19);
  const SkylineDiagram d1 = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const SkylineDiagram d2 = testing::BuildDiagram(
      ds, SkylineQueryType::kQuadrant, BuildAlgorithm::kScanning);
  const AuthenticatedDiagram a1(*d1.cell_diagram());
  const AuthenticatedDiagram a2(*d2.cell_diagram());
  EXPECT_EQ(DigestToHex(a1.root()), DigestToHex(a2.root()));
}

}  // namespace
}  // namespace skydia
