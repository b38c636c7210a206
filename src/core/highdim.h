// High-dimensional skyline diagrams (§IV.E): the baseline, DSG and scanning
// constructions generalized to d >= 2 over the O(n^d) hyper-cell grid.
//
// Cell space is the product of per-dimension coordinate ranks with the same
// half-open convention as the 2-D CellGrid; candidates of cell I are the
// points with rank_k >= I_k in every dimension, and the result is the
// first-orthant skyline.
//
// Two scanning variants are provided:
//  * BuildNdScanning — candidate-union form (provably exact, including under
//    ties): Sky(C_I) ⊆ ∪_k Sky(C_{I+e_k}) ∪ corner(I), and skyline-of-
//    candidates equals the true skyline by transitivity.
//  * BuildNdScanningInclusionExclusion — the paper's alternating-sum formula
//    over the 2^d - 1 upper neighbours followed by an outer Skyline() call,
//    kept for fidelity and cross-checked against the exact variants in the
//    test suite.
//
// These builders target the small instances the complexity O(n^{d+1}) allows;
// they exist to reproduce the paper's extension section, not for scale.
#ifndef SKYDIA_SRC_CORE_HIGHDIM_H_
#define SKYDIA_SRC_CORE_HIGHDIM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/geometry/dataset.h"
#include "src/skyline/interning.h"

namespace skydia {

/// Coordinate-compressed hyper-cell grid for a d-dimensional dataset.
class NdGrid {
 public:
  explicit NdGrid(const DatasetNd& dataset);

  int dims() const { return static_cast<int>(values_.size()); }
  /// Cells along dimension `d` (= distinct values + 1).
  uint32_t cells_in_dim(int d) const {
    return static_cast<uint32_t>(values_[d].size()) + 1;
  }
  uint64_t num_cells() const { return num_cells_; }

  uint32_t rank(PointId id, int d) const { return ranks_[d][id]; }

  /// Mixed-radix flat index of a cell index vector.
  uint64_t Flatten(const std::vector<uint32_t>& idx) const;
  /// Inverse of Flatten.
  void Unflatten(uint64_t flat, std::vector<uint32_t>* idx) const;

  /// Cell index of a query coordinate along dimension d (count of distinct
  /// values strictly below; half-open convention).
  uint32_t IndexOf(int d, int64_t q) const;

  /// Points whose rank vector equals `idx` exactly (the cell's upper corner),
  /// or empty.
  const std::vector<PointId>& PointsAtCorner(uint64_t flat_idx) const;

 private:
  std::vector<std::vector<int64_t>> values_;   // [dim] sorted distinct
  std::vector<std::vector<uint32_t>> ranks_;   // [dim][point]
  std::unordered_map<uint64_t, std::vector<PointId>> corners_;
  std::vector<PointId> empty_;
  uint64_t num_cells_ = 1;
};

/// Result container for d-dimensional diagrams.
class NdCellDiagram {
 public:
  explicit NdCellDiagram(const DatasetNd& dataset)
      : grid_(dataset),
        pool_(std::make_unique<SkylineSetPool>()),
        cells_(grid_.num_cells(), kEmptySetId) {}

  NdCellDiagram(NdCellDiagram&&) = default;
  NdCellDiagram& operator=(NdCellDiagram&&) = default;

  const NdGrid& grid() const { return grid_; }
  SkylineSetPool& pool() { return *pool_; }
  const SkylineSetPool& pool() const { return *pool_; }

  SetId cell_set(uint64_t flat) const { return cells_[flat]; }
  void set_cell(uint64_t flat, SetId id) { cells_[flat] = id; }

  std::span<const PointId> CellSkyline(uint64_t flat) const {
    return pool_->Get(cells_[flat]);
  }

  /// Point-location for a d-dimensional query (first-orthant semantics,
  /// exact everywhere like the 2-D quadrant diagram).
  std::span<const PointId> Query(const std::vector<int64_t>& q) const;

  bool SameResults(const NdCellDiagram& other) const;

 private:
  NdGrid grid_;
  std::unique_ptr<SkylineSetPool> pool_;
  std::vector<SetId> cells_;
};

/// Algorithm 1 generalized: per-cell skyline from scratch. O(n^d * n log n).
NdCellDiagram BuildNdBaseline(const DatasetNd& dataset);

/// Algorithm 2 generalized: per row-prefix DSG sweep along the last
/// dimension. O(n^{d-1} * links).
NdCellDiagram BuildNdDsg(const DatasetNd& dataset);

/// Exact scanning via candidate union over the d upper neighbours.
NdCellDiagram BuildNdScanning(const DatasetNd& dataset);

/// The paper's inclusion-exclusion scanning formula (§IV.E.3).
NdCellDiagram BuildNdScanningInclusionExclusion(const DatasetNd& dataset);

}  // namespace skydia

#endif  // SKYDIA_SRC_CORE_HIGHDIM_H_
