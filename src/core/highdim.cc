#include "src/core/highdim.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "src/common/logging.h"
#include "src/skyline/algorithms.h"
#include "src/skyline/dsg.h"

namespace skydia {

NdGrid::NdGrid(const DatasetNd& dataset) {
  const int dims = dataset.dims();
  const size_t n = dataset.size();
  values_.resize(dims);
  ranks_.resize(dims);
  for (int d = 0; d < dims; ++d) {
    std::vector<int64_t>& vals = values_[d];
    vals.reserve(n);
    for (PointId id = 0; id < n; ++id) vals.push_back(dataset.coord(id, d));
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    ranks_[d].resize(n);
    for (PointId id = 0; id < n; ++id) {
      ranks_[d][id] = static_cast<uint32_t>(
          std::lower_bound(vals.begin(), vals.end(), dataset.coord(id, d)) -
          vals.begin());
    }
    num_cells_ *= cells_in_dim(d);
  }
  std::vector<uint32_t> idx(dims);
  for (PointId id = 0; id < n; ++id) {
    for (int d = 0; d < dims; ++d) idx[d] = ranks_[d][id];
    corners_[Flatten(idx)].push_back(id);
  }
}

uint64_t NdGrid::Flatten(const std::vector<uint32_t>& idx) const {
  uint64_t flat = 0;
  for (int d = 0; d < dims(); ++d) {
    flat = flat * cells_in_dim(d) + idx[d];
  }
  return flat;
}

void NdGrid::Unflatten(uint64_t flat, std::vector<uint32_t>* idx) const {
  idx->resize(dims());
  for (int d = dims() - 1; d >= 0; --d) {
    (*idx)[d] = static_cast<uint32_t>(flat % cells_in_dim(d));
    flat /= cells_in_dim(d);
  }
}

uint32_t NdGrid::IndexOf(int d, int64_t q) const {
  return static_cast<uint32_t>(
      std::lower_bound(values_[d].begin(), values_[d].end(), q) -
      values_[d].begin());
}

const std::vector<PointId>& NdGrid::PointsAtCorner(uint64_t flat_idx) const {
  const auto it = corners_.find(flat_idx);
  if (it == corners_.end()) return empty_;
  return it->second;
}

std::span<const PointId> NdCellDiagram::Query(
    const std::vector<int64_t>& q) const {
  SKYDIA_CHECK_EQ(static_cast<int>(q.size()), grid_.dims());
  std::vector<uint32_t> idx(q.size());
  for (int d = 0; d < grid_.dims(); ++d) idx[d] = grid_.IndexOf(d, q[d]);
  return CellSkyline(grid_.Flatten(idx));
}

bool NdCellDiagram::SameResults(const NdCellDiagram& other) const {
  if (grid_.num_cells() != other.grid_.num_cells()) return false;
  for (uint64_t i = 0; i < grid_.num_cells(); ++i) {
    const auto a = CellSkyline(i);
    const auto b = other.CellSkyline(i);
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
      return false;
    }
  }
  return true;
}

namespace {

bool IsCandidate(const NdGrid& grid, PointId id,
                 const std::vector<uint32_t>& idx) {
  for (int d = 0; d < grid.dims(); ++d) {
    if (grid.rank(id, d) < idx[d]) return false;
  }
  return true;
}

// Advances a mixed-radix counter; returns false after the last combination.
bool NextIndex(const NdGrid& grid, std::vector<uint32_t>* idx, int upto_dim) {
  for (int d = upto_dim - 1; d >= 0; --d) {
    if (++(*idx)[d] < grid.cells_in_dim(d)) return true;
    (*idx)[d] = 0;
  }
  return false;
}

}  // namespace

NdCellDiagram BuildNdBaseline(const DatasetNd& dataset) {
  NdCellDiagram diagram(dataset);
  const NdGrid& grid = diagram.grid();
  const size_t n = dataset.size();

  std::vector<uint32_t> idx(grid.dims(), 0);
  std::vector<PointId> candidates;
  do {
    candidates.clear();
    for (PointId id = 0; id < n; ++id) {
      if (IsCandidate(grid, id, idx)) candidates.push_back(id);
    }
    std::vector<PointId> sky = SkylineOfSubsetNd(dataset, candidates);
    diagram.set_cell(grid.Flatten(idx), diagram.pool().Intern(std::move(sky)));
  } while (NextIndex(grid, &idx, grid.dims()));
  diagram.pool().Freeze();
  return diagram;
}

NdCellDiagram BuildNdDsg(const DatasetNd& dataset) {
  NdCellDiagram diagram(dataset);
  const NdGrid& grid = diagram.grid();
  const DirectedSkylineGraph dsg(dataset);
  const size_t n = dataset.size();
  const int dims = grid.dims();
  const int last = dims - 1;

  // Iterate every row prefix over dims 0..d-2; sweep the last dimension.
  std::vector<uint32_t> prefix(dims, 0);  // last entry stays 0
  std::vector<uint8_t> alive(n);
  std::vector<uint32_t> parents_left(n);
  std::vector<std::vector<PointId>> last_dim_points(grid.cells_in_dim(last));
  for (auto& v : last_dim_points) v.clear();
  for (PointId id = 0; id < n; ++id) {
    last_dim_points[grid.rank(id, last)].push_back(id);
  }

  std::vector<uint32_t> idx(dims);
  std::vector<PointId> scratch;
  do {
    // Reset sweep state for this prefix.
    std::set<PointId> skyline;
    for (PointId id = 0; id < n; ++id) {
      bool ok = true;
      for (int d = 0; d < last; ++d) {
        if (grid.rank(id, d) < prefix[d]) {
          ok = false;
          break;
        }
      }
      alive[id] = ok ? 1 : 0;
    }
    for (PointId id = 0; id < n; ++id) {
      if (!alive[id]) continue;
      uint32_t left = 0;
      for (PointId parent : dsg.parents(id)) {
        if (alive[parent]) ++left;
      }
      parents_left[id] = left;
      if (left == 0) skyline.insert(id);
    }

    idx = prefix;
    for (uint32_t step = 0; step < grid.cells_in_dim(last); ++step) {
      if (step > 0) {
        // Cross the grid hyperplane of last-dim rank step-1. Only points
        // that were still alive participate: the batch can contain points
        // the row prefix already excluded, whose children were never
        // counted against them.
        const std::vector<PointId>& batch = last_dim_points[step - 1];
        std::vector<PointId> newly_removed;
        for (PointId id : batch) {
          if (!alive[id]) continue;
          alive[id] = 0;
          skyline.erase(id);
          newly_removed.push_back(id);
        }
        for (PointId id : newly_removed) {
          for (PointId child : dsg.children(id)) {
            if (!alive[child]) continue;
            if (--parents_left[child] == 0) skyline.insert(child);
          }
        }
      }
      idx[last] = step;
      scratch.assign(skyline.begin(), skyline.end());
      diagram.set_cell(grid.Flatten(idx),
                       diagram.pool().InternCopy(scratch));
    }
  } while (NextIndex(grid, &prefix, last));
  diagram.pool().Freeze();
  return diagram;
}

namespace {

// Shared driver for both scanning variants: visits cells in an order where
// all upper neighbours are final, applies the corner special case, and
// delegates the neighbour combination to `combine`.
template <typename Combine>
NdCellDiagram ScanNd(const DatasetNd& dataset, Combine combine) {
  NdCellDiagram diagram(dataset);
  const NdGrid& grid = diagram.grid();
  const int dims = grid.dims();

  // Descending mixed-radix enumeration: start from the all-max index.
  std::vector<uint32_t> idx(dims);
  for (int d = 0; d < dims; ++d) idx[d] = grid.cells_in_dim(d) - 1;

  std::vector<uint32_t> nbr(dims);
  for (;;) {
    const uint64_t flat = grid.Flatten(idx);
    // Any index at its maximum -> no candidates in that dimension.
    bool empty = false;
    for (int d = 0; d < dims; ++d) {
      if (idx[d] == grid.cells_in_dim(d) - 1) {
        empty = true;
        break;
      }
    }
    if (empty) {
      diagram.set_cell(flat, kEmptySetId);
    } else {
      const std::vector<PointId>& corner = grid.PointsAtCorner(flat);
      if (!corner.empty()) {
        std::vector<PointId> ids = corner;
        std::sort(ids.begin(), ids.end());
        diagram.set_cell(flat, diagram.pool().Intern(std::move(ids)));
      } else {
        diagram.set_cell(flat, combine(diagram, idx, &nbr));
      }
    }
    // Decrement the mixed-radix counter.
    int d = dims - 1;
    for (; d >= 0; --d) {
      if (idx[d] > 0) {
        --idx[d];
        break;
      }
      idx[d] = grid.cells_in_dim(d) - 1;
    }
    if (d < 0) break;
  }
  diagram.pool().Freeze();
  return diagram;
}

}  // namespace

NdCellDiagram BuildNdScanning(const DatasetNd& dataset) {
  return ScanNd(
      dataset,
      [&dataset](NdCellDiagram& diagram, const std::vector<uint32_t>& idx,
                 std::vector<uint32_t>* nbr) -> SetId {
        const NdGrid& grid = diagram.grid();
        std::vector<PointId> candidates;
        for (int d = 0; d < grid.dims(); ++d) {
          *nbr = idx;
          ++(*nbr)[d];
          const auto part = diagram.CellSkyline(grid.Flatten(*nbr));
          candidates.insert(candidates.end(), part.begin(), part.end());
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
        std::vector<PointId> sky = SkylineOfSubsetNd(dataset, candidates);
        return diagram.pool().Intern(std::move(sky));
      });
}

NdCellDiagram BuildNdScanningInclusionExclusion(const DatasetNd& dataset) {
  return ScanNd(
      dataset,
      [&dataset](NdCellDiagram& diagram, const std::vector<uint32_t>& idx,
                 std::vector<uint32_t>* nbr) -> SetId {
        const NdGrid& grid = diagram.grid();
        const int dims = grid.dims();
        // Signed multiset count over the 2^d - 1 upper neighbours: +1 for an
        // odd number of +1 offsets, -1 for an even (non-zero) number.
        std::map<PointId, int> count;
        for (uint32_t mask = 1; mask < (1u << dims); ++mask) {
          *nbr = idx;
          int bits = 0;
          for (int d = 0; d < dims; ++d) {
            if (mask & (1u << d)) {
              ++(*nbr)[d];
              ++bits;
            }
          }
          const int sign = (bits % 2 == 1) ? 1 : -1;
          for (PointId id : diagram.CellSkyline(grid.Flatten(*nbr))) {
            count[id] += sign;
          }
        }
        std::vector<PointId> support;
        for (const auto& [id, c] : count) {
          if (c > 0) support.push_back(id);
        }
        std::vector<PointId> sky = SkylineOfSubsetNd(dataset, support);
        return diagram.pool().Intern(std::move(sky));
      });
}

}  // namespace skydia
