#include "src/core/render_svg.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/common/hash.h"
#include "src/core/diagram.h"

namespace skydia {

namespace {

constexpr int kWidthPx = 640;

// Stable pastel color for a result set id: hash -> hue, fixed
// saturation/lightness, so equal results share a color across renders.
std::string ColorForSet(const SkylineSetPool& pool, SetId id) {
  if (pool.Get(id).empty()) return "#f2f2f2";
  const uint64_t h = HashIds(
      std::vector<PointId>(pool.Get(id).begin(), pool.Get(id).end()));
  const int hue = static_cast<int>(h % 360);
  std::ostringstream os;
  os << "hsl(" << hue << ", 55%, 78%)";
  return os.str();
}

struct Mapper {
  double scale;
  int height_px;

  double X(double x) const { return x * scale; }
  // SVG y grows downward; flip so the diagram reads like the paper's plots.
  double Y(double y) const { return height_px - y * scale; }
};

void EmitHeader(std::ostringstream* svg, int width, int height) {
  *svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width
       << "\" height=\"" << height << "\" viewBox=\"0 0 " << width << " "
       << height << "\">\n";
  *svg << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
}

void EmitSeeds(std::ostringstream* svg, const Dataset& dataset,
               const Mapper& m, bool labels) {
  for (PointId id = 0; id < dataset.size(); ++id) {
    const Point2D& p = dataset.point(id);
    *svg << "<circle cx=\"" << m.X(static_cast<double>(p.x)) << "\" cy=\""
         << m.Y(static_cast<double>(p.y))
         << "\" r=\"3\" fill=\"#222\" stroke=\"white\" stroke-width=\"1\"/>\n";
    if (labels) {
      *svg << "<text x=\"" << m.X(static_cast<double>(p.x)) + 5 << "\" y=\""
           << m.Y(static_cast<double>(p.y)) - 5
           << "\" font-size=\"10\" font-family=\"sans-serif\">"
           << dataset.label(id) << "</text>\n";
    }
  }
}

// The slab bounds of a diagram in data coordinates: column cx spans
// [x[cx], x[cx + 1]] and row cy spans [y[cy], y[cy + 1]], the outer bounds
// clamped to the domain box [0, s]. The kind supplies these and whether its
// grid lines are drawn; everything else is drawn the same for both kinds.
struct Slabs {
  std::vector<double> x;
  std::vector<double> y;
  bool grid_lines = false;
};

// A cell diagram's slabs end on the distinct point coordinates.
Slabs CellSlabs(const CellGrid& grid, double s) {
  Slabs slabs;
  slabs.grid_lines = true;
  slabs.x.push_back(0.0);
  for (uint32_t i = 0; i < grid.num_distinct_x(); ++i) {
    slabs.x.push_back(static_cast<double>(grid.x_value(i)));
  }
  slabs.x.push_back(s);
  slabs.y.push_back(0.0);
  for (uint32_t i = 0; i < grid.num_distinct_y(); ++i) {
    slabs.y.push_back(static_cast<double>(grid.y_value(i)));
  }
  slabs.y.push_back(s);
  return slabs;
}

// A subcell diagram's slabs end on its grid and bisector lines, which the
// axes store doubled (half-integer coordinates).
Slabs SubcellSlabs(const SubcellGrid& grid, double s) {
  const auto bounds = [s](const SubcellAxis& axis) {
    std::vector<double> out{0.0};
    for (uint32_t i = 0; i < axis.num_lines(); ++i) {
      out.push_back(axis.line(i) / 2.0);
    }
    out.push_back(s);
    return out;
  };
  Slabs slabs;
  slabs.x = bounds(grid.x_axis());
  slabs.y = bounds(grid.y_axis());
  return slabs;
}

}  // namespace

std::string RenderDiagramSvg(const SkylineDiagram& diagram,
                             const SvgOptions& options) {
  const Dataset& dataset = diagram.dataset();
  const auto s = static_cast<double>(dataset.domain_size());
  const Mapper m{kWidthPx / s, kWidthPx};
  const Slabs slabs = diagram.cell_diagram() != nullptr
                          ? CellSlabs(diagram.cell_diagram()->grid(), s)
                          : SubcellSlabs(diagram.subcell_diagram()->grid(), s);
  const PointLocationIndex& index = diagram.index();

  std::ostringstream svg;
  EmitHeader(&svg, kWidthPx, kWidthPx);
  for (uint32_t cy = 0; cy < index.num_rows(); ++cy) {
    const double ylo = slabs.y[cy];
    const double yhi = slabs.y[cy + 1];
    if (yhi <= ylo) continue;
    for (uint32_t cx = 0; cx < index.num_columns(); ++cx) {
      const double xlo = slabs.x[cx];
      const double xhi = slabs.x[cx + 1];
      if (xhi <= xlo) continue;
      svg << "<rect x=\"" << m.X(xlo) << "\" y=\"" << m.Y(yhi) << "\" width=\""
          << (xhi - xlo) * m.scale << "\" height=\"" << (yhi - ylo) * m.scale
          << "\" fill=\"" << ColorForSet(index.pool(), index.cell_set(cx, cy))
          << "\"/>\n";
    }
  }
  if (slabs.grid_lines) {
    // The interior bounds are the grid lines: one per distinct coordinate.
    for (size_t i = 1; i + 1 < slabs.x.size(); ++i) {
      const double x = m.X(slabs.x[i]);
      svg << "<line x1=\"" << x << "\" y1=\"0\" x2=\"" << x << "\" y2=\""
          << kWidthPx << "\" stroke=\"#999\" stroke-width=\"0.5\"/>\n";
    }
    for (size_t i = 1; i + 1 < slabs.y.size(); ++i) {
      const double y = m.Y(slabs.y[i]);
      svg << "<line x1=\"0\" y1=\"" << y << "\" x2=\"" << kWidthPx
          << "\" y2=\"" << y << "\" stroke=\"#999\" stroke-width=\"0.5\"/>\n";
    }
  }
  EmitSeeds(&svg, dataset, m, options.draw_labels);
  svg << "</svg>\n";
  return svg.str();
}

std::string RenderSweepingDiagramSvg(const Dataset& dataset,
                                     const SweepingDiagram& diagram,
                                     const SvgOptions& options) {
  const auto s = static_cast<double>(dataset.domain_size());
  const Mapper m{kWidthPx / s, kWidthPx};

  std::ostringstream svg;
  EmitHeader(&svg, kWidthPx, kWidthPx);
  for (size_t i = 0; i < diagram.polyominoes.size(); ++i) {
    const SweepingPolyomino& poly = diagram.polyominoes[i];
    const int hue = static_cast<int>(
        HashCombine(static_cast<uint64_t>(poly.corner.x),
                    static_cast<uint64_t>(poly.corner.y)) %
        360);
    svg << "<polygon points=\"";
    for (const Point2D& v : poly.outline.vertices) {
      svg << m.X(static_cast<double>(v.x)) << ","
          << m.Y(static_cast<double>(v.y)) << " ";
    }
    svg << "\" fill=\"hsl(" << hue
        << ", 55%, 80%)\" stroke=\"#666\" stroke-width=\"0.6\"/>\n";
  }
  EmitSeeds(&svg, dataset, m, options.draw_labels);
  svg << "</svg>\n";
  return svg.str();
}

Status WriteSvgFile(const std::string& path, const std::string& svg) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open for writing: " + path);
  out << svg;
  if (!out) return Status::Internal("short write: " + path);
  return Status::OK();
}

}  // namespace skydia
