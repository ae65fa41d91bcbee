// runtime::PublishLog — the wait-free claim/publish buffer the Recorder and
// TraceLog now share. Unit coverage for the cursor protocol plus the
// concurrent stress invariants (run under TSan in CI): no lost or invented
// slots across overflow (size + dropped == attempts), the published prefix
// is gap-free, and a cursor polled concurrently with the writers consumes
// every item exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/publish_log.hpp"

namespace cal::runtime {
namespace {

TEST(PublishLog, AppendSnapshotBasics) {
  PublishLog<int> log(8);
  EXPECT_EQ(log.capacity(), 8u);
  EXPECT_EQ(log.size(), 0u);
  for (int i = 0; i < 5; ++i) log.append(int{i});
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.dropped(), 0u);
  std::vector<int> got;
  log.snapshot_prefix([&](const int& v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(PublishLog, OverflowDropsAndCounts) {
  PublishLog<int> log(4);
  for (int i = 0; i < 10; ++i) log.append(int{i});
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  std::vector<int> got;
  log.snapshot_prefix([&](const int& v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  log.reset();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  log.append(int{42});
  EXPECT_EQ(log.size(), 1u);
}

TEST(PublishLogCursor, PollConsumesEachItemOnce) {
  PublishLog<int> log(16);
  auto cursor = log.cursor();
  std::vector<int> got;
  const auto sink = [&](const int& v) { got.push_back(v); };
  EXPECT_EQ(cursor.poll(sink), 0u);
  log.append(1);
  log.append(2);
  EXPECT_EQ(cursor.poll(sink), 2u);
  EXPECT_EQ(cursor.poll(sink), 0u);  // nothing new
  log.append(3);
  EXPECT_EQ(cursor.poll(sink), 1u);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(cursor.position(), 3u);
  EXPECT_FALSE(cursor.at_capacity());
}

TEST(PublishLogCursor, MaxBoundsOnePoll) {
  PublishLog<int> log(16);
  for (int i = 0; i < 10; ++i) log.append(int{i});
  auto cursor = log.cursor();
  std::vector<int> got;
  const auto sink = [&](const int& v) { got.push_back(v); };
  EXPECT_EQ(cursor.poll(sink, 3), 3u);
  EXPECT_EQ(cursor.position(), 3u);
  EXPECT_EQ(cursor.poll(sink, 4), 4u);
  EXPECT_EQ(cursor.poll(sink), 3u);  // unbounded drains the rest
  EXPECT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
}

TEST(PublishLogCursor, AtCapacityOnlyWhenFullAndDrained) {
  PublishLog<int> log(4);
  auto cursor = log.cursor();
  for (int i = 0; i < 6; ++i) log.append(int{i});
  EXPECT_FALSE(cursor.at_capacity());
  EXPECT_EQ(cursor.poll([](const int&) {}), 4u);
  EXPECT_TRUE(cursor.at_capacity());
}

TEST(PublishLogCursor, IndependentCursorsDoNotInterfere) {
  PublishLog<int> log(8);
  auto a = log.cursor();
  auto b = log.cursor();
  log.append(1);
  log.append(2);
  EXPECT_EQ(a.poll([](const int&) {}), 2u);
  EXPECT_EQ(b.position(), 0u);
  EXPECT_EQ(b.poll([](const int&) {}), 2u);
}

// ---------------------------------------------------------------------------
// Slot lifetime. A counting item records every default construction and,
// per item id, every destruction of an object that still owned its id (a
// moved-from item owns none), so the tests can see what the log constructs
// up front and that each published item is destroyed exactly once.

struct CountingItem {
  static inline std::size_t default_constructed = 0;
  static inline std::vector<int> destroyed_ids;

  int id = -1;

  CountingItem() { ++default_constructed; }
  explicit CountingItem(int i) : id(i) {}
  CountingItem(CountingItem&& other) noexcept : id(other.id) {
    other.id = -1;
  }
  CountingItem& operator=(CountingItem&& other) noexcept {
    if (id >= 0) destroyed_ids.push_back(id);
    id = other.id;
    other.id = -1;
    return *this;
  }
  ~CountingItem() {
    if (id >= 0) destroyed_ids.push_back(id);
  }
};

TEST(PublishLogSlots, ConstructionBuildsNoItems) {
  CountingItem::default_constructed = 0;
  PublishLog<CountingItem> log(65536);
  EXPECT_EQ(CountingItem::default_constructed, 0u);
  EXPECT_EQ(log.capacity(), 65536u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(PublishLogSlots, ResetAndDestructorDestroyEachPublishedItemOnce) {
  CountingItem::default_constructed = 0;
  CountingItem::destroyed_ids.clear();
  {
    PublishLog<CountingItem> log(4);
    for (int i = 0; i < 6; ++i) log.append(CountingItem(i));  // 4, 5 drop
    EXPECT_EQ(log.dropped(), 2u);
    std::vector<int> seen;
    log.snapshot_prefix(
        [&](const CountingItem& item) { seen.push_back(item.id); });
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
    // Dropped items die in append's by-value parameter.
    std::vector<int> before_reset = CountingItem::destroyed_ids;
    std::sort(before_reset.begin(), before_reset.end());
    EXPECT_EQ(before_reset, (std::vector<int>{4, 5}));
    log.reset();
    for (int i = 10; i < 13; ++i) log.append(CountingItem(i));
    EXPECT_EQ(log.size(), 3u);
  }
  EXPECT_EQ(CountingItem::default_constructed, 0u);
  std::vector<int> ids = CountingItem::destroyed_ids;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3, 4, 5, 10, 11, 12}));
}

// ---------------------------------------------------------------------------
// Concurrent stress. Each writer appends values tagged with its id; the
// item encoding (writer * kPerWriter + seq) makes per-writer order and
// exactly-once delivery checkable after the fact.

TEST(PublishLogStress, ConcurrentOverflowAccounting) {
  constexpr std::size_t kWriters = 8;
  constexpr std::size_t kPerWriter = 5000;
  constexpr std::size_t kCapacity = 1 << 12;  // much smaller than the load
  PublishLog<std::uint64_t> log(kCapacity);
  {
    std::vector<std::thread> ts;
    ts.reserve(kWriters);
    for (std::size_t w = 0; w < kWriters; ++w) {
      ts.emplace_back([&, w] {
        for (std::size_t i = 0; i < kPerWriter; ++i) {
          log.append(static_cast<std::uint64_t>(w * kPerWriter + i));
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  // Nothing lost, nothing invented: every attempt either landed or was
  // counted as dropped, and the log is exactly full.
  EXPECT_EQ(log.size(), kCapacity);
  EXPECT_EQ(log.size() + log.dropped(), kWriters * kPerWriter);
  // The published prefix is gap-free and duplicate-free, and each writer's
  // items appear in program order.
  std::vector<std::uint64_t> got;
  log.snapshot_prefix([&](const std::uint64_t& v) { got.push_back(v); });
  EXPECT_EQ(got.size(), kCapacity);
  std::vector<std::uint64_t> last_seq(kWriters, 0);
  std::vector<bool> seen_any(kWriters, false);
  for (const std::uint64_t v : got) {
    const std::size_t w = v / kPerWriter;
    const std::uint64_t seq = v % kPerWriter;
    ASSERT_LT(w, kWriters);
    if (seen_any[w]) {
      EXPECT_GT(seq, last_seq[w]);
    }
    seen_any[w] = true;
    last_seq[w] = seq;
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::unique(got.begin(), got.end()), got.end());
}

TEST(PublishLogStress, SnapshotDuringWritesSeesConsistentPrefix) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 2000;
  PublishLog<std::uint64_t> log(kWriters * kPerWriter);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> snapshots{0};
  // Start latch: the writers wait for the reader's first snapshot, so the
  // reader takes at least one however the threads are scheduled (without
  // it, writers that finish before the reader first runs leave it none).
  std::atomic<bool> reader_started{false};
  std::thread reader([&] {
    do {
      std::size_t n = 0;
      std::uint64_t unused = 0;
      log.snapshot_prefix([&](const std::uint64_t& v) {
        unused ^= v;
        ++n;
      });
      // A prefix never shrinks relative to what size() promised before.
      EXPECT_LE(n, log.size());
      snapshots.fetch_add(1, std::memory_order_relaxed);
      reader_started.store(true, std::memory_order_release);
    } while (!done.load(std::memory_order_acquire));
  });
  {
    std::vector<std::thread> ts;
    for (std::size_t w = 0; w < kWriters; ++w) {
      ts.emplace_back([&, w] {
        while (!reader_started.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (std::size_t i = 0; i < kPerWriter; ++i) {
          log.append(static_cast<std::uint64_t>(w * kPerWriter + i));
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_EQ(log.size(), kWriters * kPerWriter);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(PublishLogStress, CursorFollowsLiveWriters) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 2000;
  PublishLog<std::uint64_t> log(kWriters * kPerWriter);
  auto cursor = log.cursor();
  std::atomic<bool> done{false};
  std::vector<std::uint64_t> got;
  std::thread follower([&] {
    const auto sink = [&](const std::uint64_t& v) { got.push_back(v); };
    while (!done.load(std::memory_order_acquire)) {
      cursor.poll(sink);
      std::this_thread::yield();
    }
    cursor.poll(sink);  // drain the tail
  });
  {
    std::vector<std::thread> ts;
    for (std::size_t w = 0; w < kWriters; ++w) {
      ts.emplace_back([&, w] {
        for (std::size_t i = 0; i < kPerWriter; ++i) {
          log.append(static_cast<std::uint64_t>(w * kPerWriter + i));
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  done.store(true, std::memory_order_release);
  follower.join();
  ASSERT_EQ(got.size(), kWriters * kPerWriter);
  EXPECT_TRUE(cursor.at_capacity());
  std::sort(got.begin(), got.end());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i);
}

}  // namespace
}  // namespace cal::runtime
