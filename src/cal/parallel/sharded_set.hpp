// A sharded, striped-lock deduplication set for search-state keys.
//
// The explorer's parallel walk (engine::ParallelSearch) memoizes flat
// `std::vector<int64_t>` World::encode keys keyed by cal::hash_state, with
// many workers inserting concurrently; striping the table over
// independently locked shards keeps the visited check off the contention
// critical path without resorting to a lock-free table (the shards also
// keep TSan happy). Each shard is a flat engine::KeyTable
// (engine/key_table.hpp): keys are copied into the shard's arena, so
// callers may pass a reused scratch buffer. The shard index and the
// shard's slot index come from the same hash value, computed once per
// operation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cal/engine/key_table.hpp"
#include "cal/spec.hpp"

namespace cal::par {

class ShardedStateSet {
 public:
  using Key = std::vector<std::int64_t>;

  /// `shard_count` is rounded up to a power of two (default 64 — enough
  /// stripes that a dozen workers rarely collide).
  explicit ShardedStateSet(std::size_t shard_count = 64) {
    std::size_t n = 1;
    while (n < shard_count) n <<= 1;
    mask_ = n - 1;
    shards_ = std::make_unique<Shard[]>(n);
  }

  /// Inserts `key`; returns true iff it was not already present. Thread
  /// safe; exactly one of any set of racing inserts of equal keys wins.
  bool insert(const Key& key) {
    const std::uint64_t h = hash_state(key);
    Shard& shard = shards_[shard_of(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.table.insert(key, h).inserted;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    const std::uint64_t h = hash_state(key);
    const Shard& shard = shards_[shard_of(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.table.contains(key, h);
  }

  /// Total elements. Exact once concurrent inserters have quiesced.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      total += shards_[i].table.size();
    }
    return total;
  }

  /// Bytes held by the shards' tables (arena words allocated plus the
  /// indexes); the set only grows, so this is also its peak.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      total += shards_[i].table.bytes();
    }
    return total;
  }

 private:
  struct alignas(64) Shard {  // own cache line: no lock false-sharing
    mutable std::mutex mu;
    engine::KeyTable table;
  };

  // Slots inside a shard use the hash's low bits; pick the shard from
  // the high bits so the two partitions stay independent.
  [[nodiscard]] std::size_t shard_of(std::uint64_t h) const noexcept {
    return static_cast<std::size_t>(h >> 48 ^ h >> 24) & mask_;
  }

  std::unique_ptr<Shard[]> shards_;
  std::size_t mask_ = 0;
};

}  // namespace cal::par
