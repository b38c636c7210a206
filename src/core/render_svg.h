// SVG rendering of skyline diagrams — the library's version of the paper's
// Figure 3 (quadrant diagram) and Figure 9 (subcell structure). Regions are
// colored by their result set (same result = same color), seeds drawn on
// top, so the polyomino structure is visible at a glance.
#ifndef SKYDIA_SRC_CORE_RENDER_SVG_H_
#define SKYDIA_SRC_CORE_RENDER_SVG_H_

#include <string>

#include "src/common/status.h"
#include "src/core/quadrant_sweeping.h"
#include "src/geometry/dataset.h"

namespace skydia {

class SkylineDiagram;

/// Rendering options. Every SVG is 640 pixels wide and tall.
struct SvgOptions {
  bool draw_labels = false;  // point labels next to the seeds
};

/// Renders a quadrant, global or dynamic diagram: each cell (subcell for
/// dynamic) is a rectangle filled with a color derived from its result set.
/// Cell diagrams also draw their grid lines; the denser subcell grid does
/// not.
std::string RenderDiagramSvg(const SkylineDiagram& diagram,
                             const SvgOptions& options = {});

/// Renders the sweeping diagram's polyomino outlines directly (distinct
/// coordinates only — the outlines come from BuildQuadrantSweeping).
std::string RenderSweepingDiagramSvg(const Dataset& dataset,
                                     const SweepingDiagram& diagram,
                                     const SvgOptions& options = {});

/// Writes SVG text to a file.
Status WriteSvgFile(const std::string& path, const std::string& svg);

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_RENDER_SVG_H_
