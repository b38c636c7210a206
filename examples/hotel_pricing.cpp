// The paper's running example (Figure 1): a hotel manager compares their
// hotel against the market using the three skyline query semantics.
//
//   $ ./hotel_pricing [distance] [price]
//
// Defaults to the paper's query q = (10, 80). Prints the diagram-backed
// results plus the polyomino structure of the quadrant diagram.
#include <cstdlib>
#include <iostream>

#include "src/core/diagram.h"
#include "src/core/merge.h"
#include "src/datagen/real_data.h"

using namespace skydia;

int main(int argc, char** argv) {
  Point2D q = HotelExampleQuery();
  if (argc == 3) {
    q.x = std::atoll(argv[1]);
    q.y = std::atoll(argv[2]);
  }
  const Dataset hotels = HotelExample();
  std::cout << "Market: " << hotels.size()
            << " hotels (x = distance to downtown, y = price)\n";
  for (PointId id = 0; id < hotels.size(); ++id) {
    std::cout << "  " << hotels.label(id) << " = " << hotels.point(id) << "\n";
  }
  std::cout << "\nYour hotel: q = " << q << "\n\n";

  const auto print = [](const char* what,
                        const std::vector<std::string>& labels) {
    std::cout << what << ": {";
    for (size_t i = 0; i < labels.size(); ++i) {
      std::cout << (i ? ", " : "") << labels[i];
    }
    std::cout << "}\n";
  };

  auto quadrant = SkylineDiagram::Build(hotels, SkylineQueryType::kQuadrant);
  auto global = SkylineDiagram::Build(hotels, SkylineQueryType::kGlobal);
  auto dynamic = SkylineDiagram::Build(hotels, SkylineQueryType::kDynamic);
  if (!quadrant.ok() || !global.ok() || !dynamic.ok()) {
    std::cerr << "diagram construction failed\n";
    return 1;
  }
  print("Quadrant skyline (worse in both dims)", quadrant->QueryLabels(q));
  print("Global skyline  (competitors per quadrant)", global->QueryLabels(q));
  print("Dynamic skyline (closest overall)", dynamic->QueryLabels(q));

  // Show the precomputed structure the queries run against.
  const MergedPolyominoes merged = MergeCells(*quadrant->cell_diagram());
  const DiagramStats stats = quadrant->ComputeStats();
  std::cout << "\nQuadrant diagram structure: " << stats.num_cells
            << " skyline cells merged into " << merged.num_polyominoes()
            << " skyline polyominoes (" << stats.num_distinct_sets
            << " distinct results, ~" << stats.approx_bytes << " bytes)\n";
  return 0;
}
