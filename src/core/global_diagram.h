// Global skyline diagram: the global skyline is the union of the four
// per-quadrant skylines (§III), so the diagram is assembled from four runs of
// a quadrant builder on reflected copies of the dataset — reflection turns
// each quadrant's dominance into first-quadrant dominance, and cell indices
// map back by reversing the reflected axes.
//
// Exactness: cell results are exact at every query position, grid lines
// included. For q in column cx the reflected quadrants' strict candidate
// test p.x < q.x selects exactly the points with p.x <= line[cx-1], so each
// quadrant's candidate set — and with it the union — is constant on the
// half-open cell (see src/core/point_location.h). Dynamic diagrams
// (src/core/dynamic_*.h) are exact only off their grid and bisector lines.
#ifndef SKYDIA_SRC_CORE_GLOBAL_DIAGRAM_H_
#define SKYDIA_SRC_CORE_GLOBAL_DIAGRAM_H_

#include "src/core/options.h"
#include "src/core/skyline_cell.h"
#include "src/geometry/dataset.h"

namespace skydia {

/// Which cell-based construction runs underneath.
enum class QuadrantAlgorithm {
  kBaseline,  // Algorithm 1
  kDsg,       // Algorithm 2
  kScanning,  // Algorithm 3
};

const char* QuadrantAlgorithmName(QuadrantAlgorithm algorithm);

/// Deprecated direct entry point — new code should go through
/// SkylineDiagram::Build (src/core/diagram.h), which dispatches here.
/// Dispatches to the chosen first-quadrant builder.
CellDiagram BuildQuadrantDiagram(const Dataset& dataset,
                                 QuadrantAlgorithm algorithm,
                                 const DiagramOptions& options = {});

/// Deprecated direct entry point — new code should go through
/// SkylineDiagram::Build (src/core/diagram.h), which dispatches here.
/// Builds the global skyline diagram (union of the four quadrant skylines per
/// cell) using `algorithm` for each of the four reflected constructions.
CellDiagram BuildGlobalDiagram(const Dataset& dataset,
                               QuadrantAlgorithm algorithm,
                               const DiagramOptions& options = {});

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_GLOBAL_DIAGRAM_H_
