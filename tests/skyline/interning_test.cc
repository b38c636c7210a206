#include "src/skyline/interning.h"

#include <gtest/gtest.h>

#include <vector>

namespace skydia {
namespace {

TEST(InterningTest, EmptySetIsPreInterned) {
  SkylineSetPool pool;
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Get(kEmptySetId).empty());
  EXPECT_EQ(pool.Intern({}), kEmptySetId);
}

TEST(InterningTest, DeduplicatesEqualSets) {
  SkylineSetPool pool;
  const SetId a = pool.Intern({1, 2, 3});
  const SetId b = pool.Intern({1, 2, 3});
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(InterningTest, DistinguishesDifferentSets) {
  SkylineSetPool pool;
  const SetId a = pool.Intern({1, 2, 3});
  const SetId b = pool.Intern({1, 2});
  const SetId c = pool.Intern({1, 2, 4});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(InterningTest, GetReturnsCanonicalContents) {
  SkylineSetPool pool;
  const SetId a = pool.Intern({5, 9, 11});
  const auto span = pool.Get(a);
  EXPECT_EQ(std::vector<PointId>(span.begin(), span.end()),
            (std::vector<PointId>{5, 9, 11}));
}

TEST(InterningTest, InternCopyMatchesIntern) {
  SkylineSetPool pool;
  const std::vector<PointId> ids = {4, 8};
  const SetId a = pool.InternCopy(ids);
  const SetId b = pool.Intern({4, 8});
  EXPECT_EQ(a, b);
}

TEST(InterningTest, TotalElementsCountsDistinctOnly) {
  SkylineSetPool pool;
  pool.Intern({1, 2, 3});
  pool.Intern({1, 2, 3});
  pool.Intern({7});
  EXPECT_EQ(pool.total_elements(), 4u);
}

TEST(InterningTest, ManySetsStressAndMemoryAccounting) {
  SkylineSetPool pool;
  for (uint32_t i = 0; i < 1000; ++i) {
    pool.Intern({i, i + 1, i + 2});
  }
  EXPECT_EQ(pool.size(), 1001u);
  EXPECT_EQ(pool.total_elements(), 3000u);
  EXPECT_GT(pool.ApproximateMemoryBytes(), 3000u * sizeof(PointId));
}

TEST(InterningTest, ArenaStorageIsContiguous) {
  SkylineSetPool pool;
  const SetId a = pool.Intern({1, 2, 3});
  const SetId b = pool.Intern({4, 5});
  // Sets live back-to-back in one buffer, in intern order.
  const auto sa = pool.Get(a);
  const auto sb = pool.Get(b);
  EXPECT_EQ(sa.data() + sa.size(), sb.data());
}

TEST(InterningTest, AppendSkipsDeduplication) {
  SkylineSetPool pool;
  const SetId a = pool.Intern({1, 2, 3});
  const SetId b = pool.Append({1, 2, 3});
  EXPECT_NE(a, b);  // verbatim reload: a duplicate stays a separate set
  const auto span = pool.Get(b);
  EXPECT_EQ(std::vector<PointId>(span.begin(), span.end()),
            (std::vector<PointId>{1, 2, 3}));
}

TEST(InterningTest, InternCopyOfOwnSpanIsSafe) {
  // The source span aliases the arena; growth during insertion must not
  // read freed memory or corrupt the copy. AdoptFrom leaves the adopted set
  // unindexed, so interning it again stores a second copy read from the
  // pool's own arena.
  SkylineSetPool base;
  const SetId first = base.Intern({10, 20, 30});
  SkylineSetPool pool;
  pool.AdoptFrom(base);
  // Drop the room AdoptFrom reserved, so the copy must regrow the arena.
  pool.Freeze();
  const PointId* before = pool.Get(first).data();
  const SetId copy = pool.InternCopy(pool.Get(first));
  ASSERT_NE(copy, first);
  ASSERT_NE(pool.Get(first).data(), before)
      << "the arena did not reallocate during the copy";
  const auto span = pool.Get(copy);
  EXPECT_EQ(std::vector<PointId>(span.begin(), span.end()),
            (std::vector<PointId>{10, 20, 30}));
}

TEST(InterningTest, FreezePreservesIdsAndContents) {
  SkylineSetPool pool;
  std::vector<SetId> ids;
  for (uint32_t i = 0; i < 100; ++i) ids.push_back(pool.Intern({i, i + 7}));
  pool.Freeze();
  for (uint32_t i = 0; i < 100; ++i) {
    const auto span = pool.Get(ids[i]);
    EXPECT_EQ(std::vector<PointId>(span.begin(), span.end()),
              (std::vector<PointId>{i, i + 7}));
  }
  // The pool stays usable after Freeze: interning an existing set still
  // dedups, and new sets can still be added.
  EXPECT_EQ(pool.Intern({3, 10}), ids[3]);
  EXPECT_EQ(pool.Intern({999, 1000}), ids.size() + 1);
}

TEST(InterningTest, FreezeMakesAccountingExact) {
  SkylineSetPool pool;
  for (uint32_t i = 0; i < 500; ++i) pool.Intern({i, i + 1, i + 2, i + 3});
  pool.Freeze();
  // After shrinking, the arena term of the estimate equals the live data:
  // everything beyond elements + records is index overhead, bounded well
  // below the old per-set vector-header cost (24 bytes/set).
  const size_t floor =
      pool.total_elements() * sizeof(PointId) + pool.size() * 12;
  EXPECT_GE(pool.ApproximateMemoryBytes(), floor);
}

TEST(InterningTest, AdoptArenaRebuildsPool) {
  SkylineSetPool pool;
  // 3 sets: {}, {2, 4}, {9}; buffer laid out back-to-back.
  pool.AdoptArena({2, 4, 9}, {0, 2, 1});
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_TRUE(pool.Get(0).empty());
  const auto s1 = pool.Get(1);
  EXPECT_EQ(std::vector<PointId>(s1.begin(), s1.end()),
            (std::vector<PointId>{2, 4}));
  const auto s2 = pool.Get(2);
  EXPECT_EQ(std::vector<PointId>(s2.begin(), s2.end()),
            (std::vector<PointId>{9}));
  EXPECT_EQ(pool.total_elements(), 3u);
  // The rebuilt index dedups future interns against adopted content.
  EXPECT_EQ(pool.Intern({9}), 2u);
}

TEST(InterningTest, AdoptArenaIndexesOnFirstIntern) {
  SkylineSetPool pool;
  // {}, {1, 3}, {5}, {1, 3}: a loaded pool may hold duplicate contents.
  pool.AdoptArena({1, 3, 5, 1, 3}, {0, 2, 1, 2});
  // Loading hashes nothing: the pool costs its arena and records alone.
  const uint64_t loaded_bytes = pool.ApproximateMemoryBytes();
  // The first intern indexes every loaded set and dedups against them; of
  // two equal loaded sets it finds one of them.
  const SetId found = pool.InternCopy(std::vector<PointId>{1, 3});
  EXPECT_TRUE(found == 1u || found == 3u) << found;
  EXPECT_GT(pool.ApproximateMemoryBytes(), loaded_bytes);
  EXPECT_EQ(pool.Intern({5}), 2u);
  EXPECT_EQ(pool.Intern({}), kEmptySetId);
  EXPECT_EQ(pool.size(), 4u);
  // New sets index too, and are found again.
  const SetId fresh = pool.Intern({2, 7});
  EXPECT_EQ(fresh, 4u);
  EXPECT_EQ(pool.Intern({2, 7}), fresh);
}

TEST(InterningTest, AdoptFromNeverIndexesAdoptedSets) {
  SkylineSetPool base;
  const SetId a = base.Intern({1, 2});
  const SetId b = base.Intern({4});
  SkylineSetPool pool;
  pool.AdoptFrom(base);
  ASSERT_EQ(pool.size(), base.size());
  const auto adopted = pool.Get(a);
  EXPECT_EQ(std::vector<PointId>(adopted.begin(), adopted.end()),
            (std::vector<PointId>{1, 2}));
  // Interning an adopted set's contents stores a new copy instead of
  // finding the adopted one, on the first intern and every later one ...
  const SetId copy = pool.Intern({1, 2});
  EXPECT_NE(copy, a);
  EXPECT_EQ(copy, base.size());
  EXPECT_NE(pool.Intern({4}), b);
  // ... while sets interned after the adoption dedup as usual, and the
  // empty set stays canonical.
  EXPECT_EQ(pool.Intern({1, 2}), copy);
  EXPECT_EQ(pool.Intern({}), kEmptySetId);
  EXPECT_EQ(pool.size(), base.size() + 2);
}

TEST(InterningTest, AdoptFromShiftRenumbersAndEmptiesPivotSets) {
  SkylineSetPool base;
  const SetId low = base.Intern({0, 1});
  const SetId high = base.Intern({1, 5, 9});
  const SetId pivot = base.Intern({3, 5});
  SkylineSetPool pool;
  pool.AdoptFrom(base, /*shift_above=*/3);
  const auto get = [&](SetId id) {
    const auto span = pool.Get(id);
    return std::vector<PointId>(span.begin(), span.end());
  };
  EXPECT_EQ(get(low), (std::vector<PointId>{0, 1}));
  EXPECT_EQ(get(high), (std::vector<PointId>{1, 4, 8}));
  EXPECT_TRUE(get(pivot).empty());
  // Appending after the adopting copy keeps earlier sets intact.
  const SetId added = pool.Intern({2, 6});
  EXPECT_EQ(get(added), (std::vector<PointId>{2, 6}));
  EXPECT_EQ(get(high), (std::vector<PointId>{1, 4, 8}));
}

}  // namespace
}  // namespace skydia
