// Hash-consing pool for skyline result sets.
//
// The cell maps store one result per cell — up to O(n^2) cells for
// quadrant/global and O(n^4) subcells for dynamic diagrams — but neighbouring
// cells overwhelmingly share results (that is exactly why polyominoes exist).
// Interning stores every distinct result once and lets cells carry a 32-bit
// id, turning the O(n^3)/O(n^5) worst-case output space into
// O(#polyominoes * avg skyline size) in practice.
//
// Storage layout: the pool is an arena. All set members live back to back in
// one contiguous buffer; each SetId maps to an {offset, length} record into
// it. Point-location therefore touches exactly two cache lines (record +
// members) instead of chasing a per-set heap vector, and the per-set overhead
// is a 16-byte record rather than a 24-byte std::vector header plus its
// allocation. SetIds are assigned densely in insertion order and are stable
// for the lifetime of the pool (Freeze() never renumbers).
//
// Span validity: spans returned by Get() point into the arena and are
// invalidated by any subsequent Intern/InternCopy/Append that grows the
// buffer — consume them before interning again, or copy. (Freeze() also
// reallocates; existing SetIds stay valid, outstanding spans do not.)
//
// The dedup index is only paid for where interning happens: a pool that
// adopts a loaded arena (AdoptArena) hashes its sets on its first
// Intern/InternCopy/Append, not on load, and a pool that adopts another pool
// (AdoptFrom) never indexes the sets it adopted.
//
// Every Intern/InternCopy hash-conses, but a pool can still hold duplicate
// contents: AdoptFrom carries a mutated diagram's sets across unindexed, so
// later interning can store a second copy of an adopted set, and Append and
// AdoptArena reproduce a serialized pool verbatim, duplicates included.
#ifndef SKYDIA_SRC_SKYLINE_INTERNING_H_
#define SKYDIA_SRC_SKYLINE_INTERNING_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/geometry/point.h"

namespace skydia {

/// Identifier of an interned skyline result set.
using SetId = uint32_t;

/// The id every pool assigns to the empty set (always interned first).
inline constexpr SetId kEmptySetId = 0;

/// Deduplicating arena store of point-id sets. Sets are canonicalized as
/// ascending id vectors. Not thread-safe.
class SkylineSetPool {
 public:
  SkylineSetPool();

  /// Interns `ids`, which must be sorted ascending and duplicate-free
  /// (checked in debug builds). Returns the id of the canonical copy.
  SetId Intern(std::vector<PointId> ids);

  /// Interns without taking ownership (copies only on first sight).
  SetId InternCopy(std::span<const PointId> ids);

  /// Appends `ids` as a new set without deduplication lookup, returning its
  /// id. Used by deserialization to reproduce a stored pool verbatim
  /// (including the duplicate contents a mutated diagram's adopted pool can
  /// hold). `ids` must be sorted ascending and duplicate-free.
  SetId Append(std::vector<PointId> ids);

  /// Replaces the contents of a freshly constructed pool with a whole arena
  /// at once: `buffer` holds every set's members back to back, partitioned by
  /// `lengths` (one entry per set; entry 0 must be 0 for the empty set). The
  /// v2 deserialization path uses this to adopt the on-disk arena block
  /// without per-set copies. The dedup index over the adopted sets is built
  /// lazily, by the first Intern/InternCopy/Append: a served pool is only
  /// read, so loading never pays for hashing every set.
  void AdoptArena(std::vector<PointId> buffer,
                  const std::vector<uint32_t>& lengths);

  /// Replaces the contents of a freshly constructed pool with a verbatim
  /// copy of `base`: every SetId of `base` stays valid here with identical
  /// members. Unlike AdoptArena the adopted sets are never indexed (only the
  /// empty set is), so later Intern calls deduplicate against post-adoption
  /// sets only — the incremental mutation path uses this to carry a
  /// multi-million-set pool across a mutation in one memcpy instead of
  /// re-hashing every set. The copy lands in storage with as much room
  /// again reserved, so the interning that follows appends in place (no
  /// regrowth copy) and the owner need not Freeze(); reserved room that is
  /// never written stays virtual memory. When `shift_above` is set, every
  /// stored member id strictly greater than `*shift_above` is decremented
  /// by one (the renumbering a point deletion induces), and sets containing
  /// `*shift_above` itself — by contract no longer referenced by any cell —
  /// are emptied in place, keeping every record sorted/unique and in range.
  /// An adopted pool may hold duplicate contents (hash-consing resumes only
  /// for sets interned after adoption), so it is not canonical in the
  /// ValidateOptions::require_canonical_pool sense until the owner's next
  /// compacting mutation re-interns it.
  void AdoptFrom(const SkylineSetPool& base,
                 std::optional<PointId> shift_above = std::nullopt);

  /// The canonical members of set `id`, ascending. Invalidated by the next
  /// mutating call (see file comment).
  std::span<const PointId> Get(SetId id) const {
    const SetRecord& r = records_[id];
    return std::span<const PointId>(arena_.data() + r.offset, r.length);
  }

  /// Number of distinct sets (including the empty set).
  size_t size() const { return records_.size(); }

  /// Arena offset of set `id`'s members (record introspection for the
  /// structural validator; see src/core/validate.h). Together with
  /// `Get(id).size()` this exposes the full {offset, length} record.
  uint64_t record_offset(SetId id) const { return records_[id].offset; }

  /// Total stored elements across all distinct sets (== arena length).
  uint64_t total_elements() const { return arena_.size(); }

  /// Releases growth slack: shrinks the arena and record tables to their
  /// exact sizes. Builders call it once construction finishes; the pool
  /// stays fully usable (later Intern calls simply regrow). Not for pools
  /// adopted with AdoptArena/AdoptFrom: they are sized on adoption, and the
  /// shrink would copy the whole arena once more.
  void Freeze();

  /// Heap footprint of the pool in bytes. Exact for the arena, record and
  /// chain storage (capacities, not sizes, so AdoptFrom's reserved room
  /// counts even where it is not resident); the hash index is estimated
  /// from node and bucket counts.
  uint64_t ApproximateMemoryBytes() const;

 private:
  struct SetRecord {
    uint64_t offset;
    uint32_t length;
  };
  static constexpr SetId kNoSet = ~SetId{0};

  SetId LookupOrInsert(std::span<const PointId> ids);
  /// Appends the members to the arena and registers the new set in the index
  /// chain. `ids` may alias the arena itself.
  SetId PushSet(std::span<const PointId> ids, uint64_t hash);
  /// Indexes every set when AdoptArena left the index to build (no-op
  /// otherwise). Called before anything reads or extends the index.
  void EnsureIndexed();
  /// Registers set `id` at the head of `hash`'s chain and appends its
  /// chain_ entry (chain_ must hold exactly `id` entries).
  void IndexSet(SetId id, uint64_t hash);

  std::vector<PointId> arena_;     // all members, back to back
  std::vector<SetRecord> records_; // SetId -> slice of arena_
  // hash -> first SetId with that hash; collisions chain through chain_.
  std::unordered_map<uint64_t, SetId> index_;
  std::vector<SetId> chain_;       // SetId -> next SetId with the same hash
  /// True from AdoptArena until EnsureIndexed runs; index_ and chain_ are
  /// empty meanwhile.
  bool index_pending_ = false;
};

}  // namespace skydia

#endif  // SKYDIA_SRC_SKYLINE_INTERNING_H_
