#include "src/core/validate.h"

#include <algorithm>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/core/diagram.h"
#include "src/core/merge.h"
#include "src/skyline/query.h"

namespace skydia {

namespace {

bool SameContents(std::span<const PointId> a, std::span<const PointId> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// Invariant 1: the records partition the arena back to back in id order and
// every member list is a sorted, duplicate-free subset of the point ids.
Status ValidatePool(const SkylineSetPool& pool, size_t num_points,
                    bool require_canonical) {
  if (pool.size() == 0) {
    return Status::Corruption("pool is empty (set 0 must be the empty set)");
  }
  if (pool.record_offset(kEmptySetId) != 0 || !pool.Get(kEmptySetId).empty()) {
    return Status::Corruption("set 0 is not the empty set");
  }
  uint64_t expected_offset = 0;
  for (SetId id = 0; id < pool.size(); ++id) {
    const std::span<const PointId> ids = pool.Get(id);
    if (pool.record_offset(id) != expected_offset) {
      return Status::Corruption(
          "arena record " + std::to_string(id) +
          " does not start where the previous record ends (offset " +
          std::to_string(pool.record_offset(id)) + ", expected " +
          std::to_string(expected_offset) + ")");
    }
    if (ids.size() > num_points) {
      return Status::Corruption("set " + std::to_string(id) +
                                " is larger than the dataset");
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= num_points) {
        return Status::Corruption("set " + std::to_string(id) +
                                  " references unknown point " +
                                  std::to_string(ids[i]));
      }
      if (i > 0 && ids[i] <= ids[i - 1]) {
        return Status::Corruption("set " + std::to_string(id) +
                                  " is not sorted/unique");
      }
    }
    expected_offset += ids.size();
  }
  if (expected_offset != pool.total_elements()) {
    return Status::Corruption(
        "arena has trailing members past the last record (" +
        std::to_string(pool.total_elements() - expected_offset) +
        " elements)");
  }
  if (require_canonical) {
    // Hash-consing must have held: no two ids with identical contents.
    // Otherwise the polyomino decomposition by SetId splits regions that
    // Definition 6 merges.
    std::unordered_map<uint64_t, std::vector<SetId>> by_hash;
    by_hash.reserve(pool.size());
    for (SetId id = 0; id < pool.size(); ++id) {
      const std::span<const PointId> ids = pool.Get(id);
      std::vector<SetId>& bucket =
          by_hash[Fnv1a64(ids.data(), ids.size() * sizeof(PointId))];
      for (const SetId other : bucket) {
        if (SameContents(pool.Get(other), ids)) {
          return Status::Corruption(
              "pool is not canonical: sets " + std::to_string(other) +
              " and " + std::to_string(id) + " have identical contents");
        }
      }
      bucket.push_back(id);
    }
  }
  return Status::OK();
}

// Invariant 2 for cell diagrams: strictly increasing compressed axes whose
// lines are exactly the point coordinates, and a full rows x columns cell
// table. The compressed grid is the rank-space image of the paper's
// (s+1) x (s+1) tiling: covering every (cx, cy) with no gaps is exactly the
// statement that the polyominoes tile the domain.
Status ValidateCellGrid(const Dataset& dataset, const CellDiagram& diagram) {
  const CellGrid& grid = diagram.grid();
  for (uint32_t i = 1; i < grid.num_distinct_x(); ++i) {
    if (grid.x_value(i - 1) >= grid.x_value(i)) {
      return Status::Corruption("x grid lines are not strictly increasing");
    }
  }
  for (uint32_t i = 1; i < grid.num_distinct_y(); ++i) {
    if (grid.y_value(i - 1) >= grid.y_value(i)) {
      return Status::Corruption("y grid lines are not strictly increasing");
    }
  }
  if (grid.num_columns() != grid.num_distinct_x() + 1 ||
      grid.num_rows() != grid.num_distinct_y() + 1 ||
      grid.num_cells() !=
          static_cast<uint64_t>(grid.num_columns()) * grid.num_rows()) {
    return Status::Corruption("cell grid shape is inconsistent");
  }
  for (PointId id = 0; id < dataset.size(); ++id) {
    const Point2D& p = dataset.point(id);
    if (grid.xrank(id) >= grid.num_distinct_x() ||
        grid.x_value(grid.xrank(id)) != p.x ||
        grid.yrank(id) >= grid.num_distinct_y() ||
        grid.y_value(grid.yrank(id)) != p.y) {
      return Status::Corruption("point " + std::to_string(id) +
                                " does not sit on its grid lines");
    }
  }
  const size_t pool_size = diagram.pool().size();
  for (uint32_t cy = 0; cy < grid.num_rows(); ++cy) {
    for (uint32_t cx = 0; cx < grid.num_columns(); ++cx) {
      if (diagram.cell_set(cx, cy) >= pool_size) {
        return Status::Corruption(
            "cell (" + std::to_string(cx) + ", " + std::to_string(cy) +
            ") references unknown result set " +
            std::to_string(diagram.cell_set(cx, cy)));
      }
    }
  }
  return Status::OK();
}

// Invariant 3 for cell diagrams: every cell of a polyomino carries the
// polyomino's result set, content-identically (Definition 6: a polyomino is
// a maximal region of constant skyline).
Status ValidatePolyominoes(const CellDiagram& diagram) {
  const CellGrid& grid = diagram.grid();
  const MergedPolyominoes merged = MergeCells(diagram);
  if (merged.cell_to_polyomino.size() != grid.num_cells()) {
    return Status::Corruption("polyomino labelling does not cover the grid");
  }
  uint64_t labelled_cells = 0;
  for (const uint32_t cells : merged.polyomino_cells) labelled_cells += cells;
  if (labelled_cells != grid.num_cells()) {
    return Status::Corruption("polyomino cell counts do not tile the grid");
  }
  for (uint32_t cy = 0; cy < grid.num_rows(); ++cy) {
    for (uint32_t cx = 0; cx < grid.num_columns(); ++cx) {
      const uint32_t poly =
          merged.cell_to_polyomino[grid.CellIndex(cx, cy)];
      if (poly >= merged.num_polyominoes()) {
        return Status::Corruption("cell labelled with unknown polyomino");
      }
      const SetId cell_set = diagram.cell_set(cx, cy);
      const SetId poly_set = merged.polyomino_set[poly];
      if (cell_set != poly_set &&
          !SameContents(diagram.pool().Get(cell_set),
                        diagram.pool().Get(poly_set))) {
        return Status::Corruption(
            "cell (" + std::to_string(cx) + ", " + std::to_string(cy) +
            ") disagrees with its polyomino's result set");
      }
    }
  }
  return Status::OK();
}

// Interior representative of cell column `cx` in 4x coordinates: a quarter
// left of line cx (or a quarter right of the last line for the outermost
// column). Never collides with a grid line, and — because coordinates are
// integers — selects exactly the candidate set {p : xrank(p) >= cx}.
int64_t ColumnRepresentative4(const CellGrid& grid, uint32_t cx) {
  return cx < grid.num_distinct_x()
             ? 4 * grid.x_value(cx) - 2
             : 4 * grid.x_value(grid.num_distinct_x() - 1) + 2;
}

int64_t RowRepresentative4(const CellGrid& grid, uint32_t cy) {
  return cy < grid.num_distinct_y()
             ? 4 * grid.y_value(cy) - 2
             : 4 * grid.y_value(grid.num_distinct_y() - 1) + 2;
}

std::string SampleError(const char* oracle, uint32_t cx, uint32_t cy) {
  return std::string("stored result of cell (") + std::to_string(cx) + ", " +
         std::to_string(cy) + ") does not match the " + oracle +
         " skyline at an interior point";
}

// Invariant 4 for cell diagrams: sampled cells match the brute-force oracle
// at an interior representative (Theorem 1 / Definition 4 ground truth).
Status SampleCellDiagram(const Dataset& dataset, const CellDiagram& diagram,
                         const ValidateOptions& options) {
  const CellGrid& grid = diagram.grid();
  const bool quadrant = DiagramSemantics(diagram) == SkylineQueryType::kQuadrant;
  Rng rng(options.seed);
  for (size_t i = 0; i < options.sample_queries; ++i) {
    const auto cx = static_cast<uint32_t>(rng.NextBounded(grid.num_columns()));
    const auto cy = static_cast<uint32_t>(rng.NextBounded(grid.num_rows()));
    const int64_t qx4 = ColumnRepresentative4(grid, cx);
    const int64_t qy4 = RowRepresentative4(grid, cy);
    const std::vector<PointId> expected =
        quadrant ? QuadrantSkylineAt4(dataset, qx4, qy4, 0)
                 : GlobalSkylineAt4(dataset, qx4, qy4);
    if (!SameContents(diagram.CellSkyline(cx, cy), expected)) {
      return Status::Corruption(
          SampleError(quadrant ? "quadrant" : "global", cx, cy));
    }
  }
  return Status::OK();
}

// Invariant 2 for subcell diagrams. The bisector arrangement itself is
// rebuilt deterministically from the dataset (SubcellGrid's constructor), so
// the checks here cover the axis ordering, the point-on-line property, and
// the subcell table, not the O(n^2) pairwise bisector enumeration.
Status ValidateSubcellGrid(const Dataset& dataset,
                           const SubcellDiagram& diagram) {
  const SubcellGrid& grid = diagram.grid();
  const SubcellAxis& x = grid.x_axis();
  const SubcellAxis& y = grid.y_axis();
  for (uint32_t i = 1; i < x.num_lines(); ++i) {
    if (x.line(i - 1) >= x.line(i)) {
      return Status::Corruption("x subcell lines are not strictly increasing");
    }
  }
  for (uint32_t i = 1; i < y.num_lines(); ++i) {
    if (y.line(i - 1) >= y.line(i)) {
      return Status::Corruption("y subcell lines are not strictly increasing");
    }
  }
  if (grid.num_columns() != x.num_slabs() || grid.num_rows() != y.num_slabs() ||
      grid.num_subcells() !=
          static_cast<uint64_t>(grid.num_columns()) * grid.num_rows()) {
    return Status::Corruption("subcell grid shape is inconsistent");
  }
  for (PointId id = 0; id < dataset.size(); ++id) {
    const Point2D& p = dataset.point(id);
    if (!x.IsOnLine(2 * p.x) || !y.IsOnLine(2 * p.y)) {
      return Status::Corruption("point " + std::to_string(id) +
                                " does not sit on its subcell lines");
    }
  }
  const size_t pool_size = diagram.pool().size();
  for (uint32_t sy = 0; sy < grid.num_rows(); ++sy) {
    for (uint32_t sx = 0; sx < grid.num_columns(); ++sx) {
      if (diagram.subcell_set(sx, sy) >= pool_size) {
        return Status::Corruption(
            "subcell (" + std::to_string(sx) + ", " + std::to_string(sy) +
            ") references unknown result set " +
            std::to_string(diagram.subcell_set(sx, sy)));
      }
    }
  }
  return Status::OK();
}

Status SampleSubcellDiagram(const Dataset& dataset,
                            const SubcellDiagram& diagram,
                            const ValidateOptions& options) {
  const SubcellGrid& grid = diagram.grid();
  Rng rng(options.seed);
  for (size_t i = 0; i < options.sample_queries; ++i) {
    const auto sx = static_cast<uint32_t>(rng.NextBounded(grid.num_columns()));
    const auto sy = static_cast<uint32_t>(rng.NextBounded(grid.num_rows()));
    const std::vector<PointId> expected =
        DynamicSkylineAt4(dataset, grid.x_axis().Representative4(sx),
                          grid.y_axis().Representative4(sy));
    if (!SameContents(diagram.SubcellSkyline(sx, sy), expected)) {
      return Status::Corruption(
          "stored result of subcell (" + std::to_string(sx) + ", " +
          std::to_string(sy) +
          ") does not match the dynamic skyline at its representative");
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateDiagram(const SkylineDiagram& diagram,
                       const ValidateOptions& options) {
  if (const CellDiagram* cells = diagram.cell_diagram()) {
    return ValidateDiagram(diagram.dataset(), *cells, options);
  }
  return ValidateDiagram(diagram.dataset(), *diagram.subcell_diagram(),
                         options);
}

Status ValidateDiagram(const Dataset& dataset, const CellDiagram& diagram,
                       const ValidateOptions& options) {
  if (dataset.empty()) {
    return Status::Corruption("cell diagram over an empty dataset");
  }
  if (Status s = ValidatePool(diagram.pool(), dataset.size(),
                              options.require_canonical_pool);
      !s.ok()) {
    return s;
  }
  if (Status s = ValidateCellGrid(dataset, diagram); !s.ok()) return s;
  if (Status s = ValidatePolyominoes(diagram); !s.ok()) return s;
  if (options.sample_queries > 0) {
    return SampleCellDiagram(dataset, diagram, options);
  }
  return Status::OK();
}

Status ValidateDiagram(const Dataset& dataset, const SubcellDiagram& diagram,
                       const ValidateOptions& options) {
  if (dataset.empty()) {
    return Status::Corruption("subcell diagram over an empty dataset");
  }
  if (Status s = ValidatePool(diagram.pool(), dataset.size(),
                              options.require_canonical_pool);
      !s.ok()) {
    return s;
  }
  if (Status s = ValidateSubcellGrid(dataset, diagram); !s.ok()) return s;
  if (options.sample_queries > 0) {
    return SampleSubcellDiagram(dataset, diagram, options);
  }
  return Status::OK();
}

}  // namespace skydia
