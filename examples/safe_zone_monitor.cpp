// Continuous skyline monitoring for a moving query — the scenario of the
// paper's related work (Huang et al., Lee et al.), solved with the diagram:
// while the query stays inside its current skyline polyomino (its safe
// zone), the result provably cannot change, so the monitor only recomputes
// when a region boundary is crossed.
//
//   $ ./safe_zone_monitor
#include <iostream>

#include "src/core/diagram.h"
#include "src/core/range_query.h"
#include "src/datagen/distributions.h"
#include "src/skyline/query.h"

using namespace skydia;

int main() {
  DataGenOptions gen;
  gen.n = 200;
  gen.domain_size = 512;
  gen.distribution = Distribution::kClustered;
  gen.seed = 5;
  auto dataset = GenerateDataset(gen);
  if (!dataset.ok()) {
    std::cerr << "datagen failed: " << dataset.status() << "\n";
    return 1;
  }
  auto built = SkylineDiagram::Build(*dataset, SkylineQueryType::kQuadrant);
  if (!built.ok()) {
    std::cerr << "build failed: " << built.status() << "\n";
    return 1;
  }
  const PointLocationIndex& index = built->index();

  // A query walking diagonally across the domain, one unit per tick.
  std::cout << "tick  position    result-changed?  skyline-size\n";
  int changes = 0;
  int evaluations = 0;
  SetId last = kEmptySetId;
  bool first = true;
  for (int64_t t = 0; t < 512; t += 8) {
    const Point2D q{t, 511 - t};
    // The diagram makes "did the result change?" a SetId comparison — no
    // skyline is ever recomputed while the walker stays inside a polyomino.
    const SetId current = index.LocateSet(q);
    ++evaluations;
    const bool changed = first || current != last;
    if (changed && !first) ++changes;
    if (changed) {
      std::cout << "  " << t / 8 << "\t" << q << "\tyes\t\t "
                << index.Get(current).size() << "\n";
    }
    last = current;
    first = false;
  }
  std::cout << "\n" << evaluations << " ticks, " << changes
            << " result changes; every no-change tick cost one grid lookup\n";

  // Safe-zone check for an uncertain position: a delivery drone knows its
  // location only within +-8 units. Is its result still unambiguous?
  const QueryRange uncertainty{200, 216, 200, 216};
  auto summary = RangeSkylineSummarize(index, uncertainty);
  if (!summary.ok()) {
    std::cerr << "range query failed\n";
    return 1;
  }
  std::cout << "\nuncertainty box [200,216]^2: " << summary->distinct_results
            << " distinct results; " << summary->intersection_ids.size()
            << " points are in the skyline everywhere in the box, "
            << summary->union_ids.size() << " somewhere in it\n";
  return 0;
}
