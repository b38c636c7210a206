#include "src/skyline/interning.h"

#include <algorithm>
#include <cassert>

#include "src/common/hash.h"
#include "src/common/trace.h"

namespace skydia {

namespace {

uint64_t HashSpan(std::span<const PointId> ids) {
  return Fnv1a64(ids.data(), ids.size() * sizeof(PointId));
}

[[maybe_unused]] bool SortedUnique(std::span<const PointId> ids) {
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i - 1] >= ids[i]) return false;
  }
  return true;
}

/// Replaces `to` with a copy of `from`, in storage that keeps as much room
/// again for appends (see SkylineSetPool::AdoptFrom).
template <typename T>
void CopyWithRoom(const std::vector<T>& from, std::vector<T>* to) {
  to->reserve(2 * from.size());
  to->assign(from.begin(), from.end());
}

}  // namespace

SkylineSetPool::SkylineSetPool() {
  // Reserve id 0 for the empty set so diagram code can use kEmptySetId.
  records_.push_back(SetRecord{0, 0});
  chain_.push_back(kNoSet);
  index_.emplace(HashSpan({}), kEmptySetId);
}

SetId SkylineSetPool::PushSet(std::span<const PointId> ids, uint64_t hash) {
  const auto id = static_cast<SetId>(records_.size());
  const uint64_t offset = arena_.size();
  // `ids` may point into the arena itself; growing can reallocate, so append
  // via a stable index rather than through the (possibly dangling) span.
  const bool aliases = !ids.empty() && ids.data() >= arena_.data() &&
                       ids.data() < arena_.data() + arena_.size();
  if (aliases) {
    const size_t src = static_cast<size_t>(ids.data() - arena_.data());
    arena_.resize(arena_.size() + ids.size());
    std::copy_n(arena_.begin() + static_cast<ptrdiff_t>(src), ids.size(),
                arena_.begin() + static_cast<ptrdiff_t>(offset));
  } else {
    arena_.insert(arena_.end(), ids.begin(), ids.end());
  }
  records_.push_back(SetRecord{offset, static_cast<uint32_t>(ids.size())});
  IndexSet(id, hash);
  return id;
}

void SkylineSetPool::IndexSet(SetId id, uint64_t hash) {
  // Head insertion into the hash chain.
  const auto [it, inserted] = index_.emplace(hash, id);
  if (inserted) {
    chain_.push_back(kNoSet);
  } else {
    chain_.push_back(it->second);
    it->second = id;
  }
}

void SkylineSetPool::EnsureIndexed() {
  if (!index_pending_) return;
  SKYDIA_TRACE_SPAN("pool.index");
  index_pending_ = false;
  chain_.reserve(records_.size());
  for (SetId id = 0; id < static_cast<SetId>(records_.size()); ++id) {
    IndexSet(id, HashSpan(Get(id)));
  }
}

SetId SkylineSetPool::LookupOrInsert(std::span<const PointId> ids) {
  assert(SortedUnique(ids));
  EnsureIndexed();
  const uint64_t h = HashSpan(ids);
  const auto it = index_.find(h);
  if (it != index_.end()) {
    for (SetId candidate = it->second; candidate != kNoSet;
         candidate = chain_[candidate]) {
      const auto existing = Get(candidate);
      if (existing.size() == ids.size() &&
          std::equal(existing.begin(), existing.end(), ids.begin())) {
        return candidate;
      }
    }
  }
  return PushSet(ids, h);
}

SetId SkylineSetPool::Intern(std::vector<PointId> ids) {
  return LookupOrInsert(ids);
}

SetId SkylineSetPool::InternCopy(std::span<const PointId> ids) {
  return LookupOrInsert(ids);
}

SetId SkylineSetPool::Append(std::vector<PointId> ids) {
  assert(SortedUnique(std::span<const PointId>(ids)));
  EnsureIndexed();
  return PushSet(ids, HashSpan(ids));
}

void SkylineSetPool::AdoptArena(std::vector<PointId> buffer,
                                const std::vector<uint32_t>& lengths) {
  assert(records_.size() == 1 && arena_.empty());
  assert(!lengths.empty() && lengths[0] == 0);
  arena_ = std::move(buffer);
  records_.clear();
  chain_.clear();
  index_.clear();
  records_.reserve(lengths.size());
  uint64_t offset = 0;
  for (const uint32_t length : lengths) {
    records_.push_back(SetRecord{offset, length});
    offset += length;
  }
  assert(offset == arena_.size());
  index_pending_ = true;
}

void SkylineSetPool::AdoptFrom(const SkylineSetPool& base,
                               std::optional<PointId> shift_above) {
  assert(records_.size() == 1 && arena_.empty());
  CopyWithRoom(base.records_, &records_);
  // No dedup index for the adopted sets: chains stay empty except the empty
  // set, which keeps id 0 findable so kEmptySetId stays canonical.
  chain_.reserve(2 * records_.size());
  chain_.assign(records_.size(), kNoSet);
  index_.clear();
  index_.emplace(HashSpan({}), kEmptySetId);
  if (!shift_above.has_value()) {
    CopyWithRoom(base.arena_, &arena_);
    return;
  }
  // Deletion renumbering: members above the pivot shift down by one. Sets
  // still containing the pivot itself are by contract no longer referenced
  // by any cell (every cell whose result held the deleted point is
  // recomputed); shifted they would stop being sorted/unique, so they are
  // emptied in place — ids and record count stay stable, offsets rebuild.
  const PointId pivot = *shift_above;
  arena_.reserve(2 * base.arena_.size());
  for (SetId id = 0; id < static_cast<SetId>(records_.size()); ++id) {
    const std::span<const PointId> members = base.Get(id);
    const uint64_t offset = arena_.size();
    const bool contains_pivot =
        std::binary_search(members.begin(), members.end(), pivot);
    if (!contains_pivot) {
      for (const PointId member : members) {
        arena_.push_back(member > pivot ? member - 1 : member);
      }
    }
    records_[id].offset = offset;
    records_[id].length =
        contains_pivot ? 0 : static_cast<uint32_t>(members.size());
  }
}

void SkylineSetPool::Freeze() {
  SKYDIA_TRACE_SPAN("pool.freeze");
  arena_.shrink_to_fit();
  records_.shrink_to_fit();
  chain_.shrink_to_fit();
}

uint64_t SkylineSetPool::ApproximateMemoryBytes() const {
  uint64_t bytes = arena_.capacity() * sizeof(PointId);
  bytes += records_.capacity() * sizeof(SetRecord);
  bytes += chain_.capacity() * sizeof(SetId);
  // Closed-addressing hash map: one node per entry plus the bucket array.
  bytes += index_.size() *
           (sizeof(std::pair<const uint64_t, SetId>) + sizeof(void*));
  bytes += index_.bucket_count() * sizeof(void*);
  return bytes;
}

}  // namespace skydia
