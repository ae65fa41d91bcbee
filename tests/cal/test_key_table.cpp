// Unit tests for the flat exact-key table (cal/engine/key_table.hpp) and
// the footprint its users report: dedup, dense and stable ids, distinct
// prefix keys, keys larger than an arena chunk, lookups across many index
// growths, and an empty table that allocates nothing.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cal/engine/key_table.hpp"
#include "cal/engine/visited.hpp"
#include "cal/parallel/sharded_set.hpp"

namespace {

// Heap allocations made by the calling thread (operator new is replaced
// for this test binary below).
thread_local std::size_t allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cal::engine {
namespace {

using Key = KeyTable::Key;

/// A key of `len` words derived from `seed`.
Key make_key(std::int64_t seed, std::size_t len) {
  Key k(len);
  for (std::size_t i = 0; i < len; ++i) {
    k[i] = seed * 1000003 + static_cast<std::int64_t>(i);
  }
  return k;
}

TEST(KeyTable, DuplicatesAreRejected) {
  KeyTable t;
  const Key a{1, 2, 3};
  const Key b{1, 2, 4};
  const auto first = t.insert(a);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.id, 0u);
  const auto again = t.insert(a);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, 0u);
  EXPECT_EQ(t.insert(b).id, 1u);
  EXPECT_TRUE(t.contains(a));
  EXPECT_TRUE(t.contains(b));
  EXPECT_FALSE(t.contains(Key{9}));
  EXPECT_EQ(t.size(), 2u);
}

TEST(KeyTable, IdsStayDenseAndStableAcrossGrowth) {
  KeyTable t;
  constexpr std::int64_t kKeys = 5000;  // many index doublings
  for (std::int64_t i = 0; i < kKeys; ++i) {
    const auto r = t.insert(make_key(i, 1 + static_cast<std::size_t>(i % 7)));
    ASSERT_TRUE(r.inserted) << i;
    ASSERT_EQ(r.id, static_cast<std::size_t>(i));
  }
  for (std::int64_t i = 0; i < kKeys; ++i) {
    const auto r = t.insert(make_key(i, 1 + static_cast<std::size_t>(i % 7)));
    EXPECT_FALSE(r.inserted) << i;
    EXPECT_EQ(r.id, static_cast<std::size_t>(i));
  }
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kKeys));
}

TEST(KeyTable, PrefixKeysStayDistinct) {
  KeyTable t;
  const std::vector<Key> keys = {{}, {0}, {0, 0}, {1}, {1, 2}, {1, 2, 3}};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto r = t.insert(keys[i]);
    EXPECT_TRUE(r.inserted) << i;
    EXPECT_EQ(r.id, i);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(t.insert(keys[i]).id, i);
  }
  EXPECT_EQ(t.size(), keys.size());
}

TEST(KeyTable, KeyLargerThanTheFirstChunk) {
  KeyTable t;
  const Key small{7, 7};
  const Key big = make_key(1, 3 * KeyTable::kFirstChunkWords);
  const Key huge = make_key(2, 2 * KeyTable::kMaxChunkWords);
  EXPECT_TRUE(t.insert(small).inserted);
  EXPECT_TRUE(t.insert(big).inserted);
  EXPECT_TRUE(t.insert(huge).inserted);
  EXPECT_TRUE(t.insert(Key{8}).inserted);  // after an oversized chunk
  EXPECT_FALSE(t.insert(big).inserted);
  EXPECT_FALSE(t.insert(huge).inserted);
  EXPECT_TRUE(t.contains(small));
  Key almost = big;
  almost.back() += 1;
  EXPECT_FALSE(t.contains(almost));
  EXPECT_GE(t.bytes(),
            (small.size() + big.size() + huge.size() + 1 + 4) *
                sizeof(std::int64_t));
}

TEST(KeyTable, LookupsSucceedAfterManyGrowths) {
  KeyTable t;
  constexpr std::int64_t kKeys = 1 << 16;
  for (std::int64_t i = 0; i < kKeys; ++i) t.insert(make_key(i, 3));
  for (std::int64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(t.contains(make_key(i, 3))) << i;
  }
  for (std::int64_t i = kKeys; i < kKeys + 1000; ++i) {
    ASSERT_FALSE(t.contains(make_key(i, 3))) << i;
  }
  // Four words stored per key (header + 3) plus the index at load <= 1/2.
  EXPECT_GE(t.bytes(), static_cast<std::size_t>(kKeys) *
                           (4 * sizeof(std::int64_t) + 2 * 16));
}

TEST(KeyTable, EmptyTableAllocatesNothing) {
  std::size_t size = 1;
  std::size_t bytes = 1;
  bool found = true;
  const std::size_t before = allocations;
  {
    const KeyTable t;
    size = t.size();
    bytes = t.bytes();
    found = t.contains(Key{});
  }
  EXPECT_EQ(allocations, before);
  EXPECT_EQ(size, 0u);
  EXPECT_EQ(bytes, 0u);
  EXPECT_FALSE(found);
}

TEST(KeyTable, FingerprintVisitedSetCarriesNoKeyStorage) {
  // The checkers build one fingerprint-mode VisitedSet per check; its
  // unused exact table must cost no allocation, leaving only the
  // FingerprintSet's slot array.
  const std::size_t before = allocations;
  { const VisitedSet fp(/*exact=*/false); }
  EXPECT_EQ(allocations - before, 1u);
}

TEST(KeyTable, VisitedSetReportsTheTablesFootprint) {
  VisitedSet visited(/*exact=*/true);
  KeyTable table;
  EXPECT_EQ(visited.bytes(), 0u);
  for (std::int64_t i = 0; i < 300; ++i) {
    const Key k = make_key(i, 40);
    EXPECT_TRUE(visited.insert(k));
    EXPECT_FALSE(visited.insert(k));
    table.insert(k);
  }
  EXPECT_EQ(visited.size(), 300u);
  EXPECT_EQ(visited.bytes(), table.bytes());
  // Keys are stored whole: at least 41 words each.
  EXPECT_GE(visited.bytes(), 300u * 41 * sizeof(std::int64_t));
}

TEST(KeyTable, ShardedStateSetSumsItsShardTables) {
  par::ShardedStateSet set(4);
  EXPECT_EQ(set.bytes(), 0u);
  for (std::int64_t i = 0; i < 1000; ++i) set.insert(make_key(i, 10));
  EXPECT_EQ(set.size(), 1000u);
  // Every key stored (11 words with its header), plus four indexes.
  EXPECT_GE(set.bytes(), 1000u * 11 * sizeof(std::int64_t) + 4 * 16 * 16);
}

}  // namespace
}  // namespace cal::engine
