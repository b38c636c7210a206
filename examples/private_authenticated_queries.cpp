// Outsourced skyline queries, secured two ways (§I applications 2 and 3):
//
//  * Authentication: the data owner publishes a Merkle root over the
//    diagram; an untrusted server must accompany every answer with a proof,
//    and tampered answers fail verification.
//  * Privacy: the client retrieves the answer cell from two non-colluding
//    replicas with XOR-PIR, so neither server learns the query location.
//
//   $ ./private_authenticated_queries
#include <iostream>
#include <utility>

#include "src/apps/authentication.h"
#include "src/apps/pir.h"
#include "src/core/diagram.h"
#include "src/datagen/distributions.h"
#include "src/datagen/workload.h"

using namespace skydia;

int main() {
  DataGenOptions gen;
  gen.n = 128;
  gen.domain_size = 512;
  gen.seed = 23;
  auto dataset = GenerateDataset(gen);
  if (!dataset.ok()) {
    std::cerr << "datagen failed: " << dataset.status() << "\n";
    return 1;
  }
  auto built = SkylineDiagram::Build(std::move(dataset).value(),
                                     SkylineQueryType::kQuadrant);
  if (!built.ok()) {
    std::cerr << "diagram construction failed: " << built.status() << "\n";
    return 1;
  }
  const Dataset& data = built->dataset();
  const CellDiagram& diagram = *built->cell_diagram();
  std::cout << "diagram: " << diagram.grid().num_cells() << " cells over "
            << data.size() << " points\n\n";

  // --- Authentication ------------------------------------------------------
  const AuthenticatedDiagram auth(diagram);
  std::cout << "[auth] Merkle root: " << DigestToHex(auth.root()) << "\n";

  const Point2D q{200, 300};
  SkylineProof proof = auth.Prove(q);
  std::cout << "[auth] query " << q << " -> " << proof.result.size()
            << " skyline points, proof depth " << proof.path.size() << "\n";
  std::cout << "[auth] honest proof verifies: "
            << (AuthenticatedDiagram::Verify(auth.root(), auth.num_leaves(),
                                             proof)
                    ? "yes"
                    : "NO!")
            << "\n";
  SkylineProof tampered = proof;
  tampered.result.push_back(9999);
  std::cout << "[auth] tampered proof rejected: "
            << (!AuthenticatedDiagram::Verify(auth.root(), auth.num_leaves(),
                                              tampered)
                    ? "yes"
                    : "NO!")
            << "\n\n";

  // --- Private retrieval ---------------------------------------------------
  const PirDatabase db = BuildPirDatabase(diagram);
  const PirServer replica1(&db);
  const PirServer replica2(&db);
  std::cout << "[pir] database: " << db.num_records << " records x "
            << db.record_bytes << " bytes\n";
  Rng rng(31);
  int correct = 0;
  const auto queries = GenerateQueries(data, 20, 41);
  for (const Point2D& query : queries) {
    auto result =
        PrivateSkylineQuery(diagram, db, replica1, replica2, query, &rng);
    if (!result.ok()) continue;
    const auto expected = built->Query(query);
    if (result->size() == expected.size() &&
        std::equal(result->begin(), result->end(), expected.begin())) {
      ++correct;
    }
  }
  std::cout << "[pir] " << correct << "/" << queries.size()
            << " private queries reconstructed correctly; each server saw "
               "only a uniformly random record subset\n";
  return correct == static_cast<int>(queries.size()) ? 0 : 1;
}
