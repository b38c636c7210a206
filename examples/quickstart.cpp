// Quickstart: build a skyline diagram over a synthetic dataset and answer
// skyline queries by point location.
//
//   $ ./quickstart
//
// Walks through the three query semantics (quadrant, global, dynamic) on a
// small generated dataset and prints what each query returns.
#include <iostream>

#include "src/core/diagram.h"
#include "src/datagen/distributions.h"

using namespace skydia;

namespace {

void PrintResult(const char* title, const std::vector<std::string>& labels) {
  std::cout << "  " << title << ": {";
  for (size_t i = 0; i < labels.size(); ++i) {
    std::cout << (i ? ", " : "") << labels[i];
  }
  std::cout << "}\n";
}

}  // namespace

int main() {
  // 1. Generate a small 2-D dataset (64 independent points on a 256 domain).
  DataGenOptions gen;
  gen.n = 64;
  gen.domain_size = 256;
  gen.distribution = Distribution::kIndependent;
  gen.seed = 7;
  auto dataset = GenerateDataset(gen);
  if (!dataset.ok()) {
    std::cerr << "datagen failed: " << dataset.status() << "\n";
    return 1;
  }
  std::cout << "dataset: " << dataset->size() << " points on [0, "
            << dataset->domain_size() << ")^2\n\n";

  // 2. Build one diagram per query semantics. Building is the expensive
  //    part; afterwards every query is a grid lookup.
  const Point2D q{100, 100};
  for (const SkylineQueryType type :
       {SkylineQueryType::kQuadrant, SkylineQueryType::kGlobal,
        SkylineQueryType::kDynamic}) {
    // Build takes the dataset by value; pass a copy to keep ours.
    auto built = SkylineDiagram::Build(*dataset, type);
    if (!built.ok()) {
      std::cerr << "build failed: " << built.status() << "\n";
      return 1;
    }
    std::cout << "query " << q << " against the "
              << SkylineQueryTypeName(type) << " diagram\n";
    PrintResult("result", built->QueryLabels(q));
    std::cout << "\n";
  }

  std::cout << "Tip: SkylineDiagram::Query is exact for quadrant and global\n"
               "semantics everywhere and for dynamic semantics at subcell\n"
               "interiors; QueryExact adds a reference fallback on grid and\n"
               "bisector lines.\n";
  return 0;
}
