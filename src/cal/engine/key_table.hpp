// The flat exact-key table behind every stored-key dedup in this library.
//
// Searches deduplicate flat `std::vector<int64_t>` node encodings; in
// exact mode (the explorer's sound state merging, the checkers'
// `exact_visited`, POR's sleep-mask subsumption) every distinct key is
// stored. A node-based hash set pays two heap allocations per key, and
// re-hashes whole neighbour keys on every bucket walk and rehash. This
// table instead:
//
//   * copies each key once, back to back, into an arena of chunks that
//     start at kFirstChunkWords and double up to kMaxChunkWords. Chunks are
//     never zero-filled and never move, so a stored key is written once
//     and never re-allocated. A key longer than the next chunk gets a chunk
//     of its own size;
//   * indexes the keys with an open-addressing table (linear probing,
//     power-of-two capacity, load factor at most 1/2) of (hash_state,
//     arena position) slots. Every operation hashes its key once; a probe
//     compares stored hashes first and touches a stored key only on a hash
//     match; growth re-slots entries from their stored hashes;
//   * numbers keys densely in insertion order (0, 1, 2, ...), so callers
//     can attach a payload by indexing a vector with the returned id. The
//     spec-step memo (cal/step_cache.hpp) builds its payload in the same
//     call that inserts the key.
//
// An empty table allocates nothing. Not thread-safe: the explorer's
// parallel walk shards it behind striped locks
// (cal/parallel/sharded_set.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cal/spec.hpp"

namespace cal::engine {

class KeyTable {
 public:
  using Key = std::vector<std::int64_t>;

  /// Arena chunk sizes, in 64-bit words: 4 KiB first, doubling to 1 MiB.
  static constexpr std::size_t kFirstChunkWords = 512;
  static constexpr std::size_t kMaxChunkWords = std::size_t{1} << 17;

  struct Insert {
    std::size_t id;  ///< the key's dense insertion id
    bool inserted;   ///< false: the key was already present
  };

  /// Looks `key` up and stores it if absent.
  Insert insert(const Key& key) { return insert(key, hash_state(key)); }

  /// As above, with `hash == hash_state(key)` computed by the caller (the
  /// sharded table picks the shard from the same hash).
  Insert insert(const Key& key, std::uint64_t hash) {
    return insert(key, hash, [] {});
  }

  /// As above, running `on_miss()` when the key is absent, before the key
  /// is stored: a caller attaching payloads by id appends the new key's
  /// payload there, and a throwing `on_miss` leaves the table as it was.
  /// `on_miss` must not touch this table.
  template <typename OnMiss>
  Insert insert(const Key& key, std::uint64_t hash, OnMiss&& on_miss) {
    if (2 * (size_ + 1) > capacity()) grow();
    Slot* slot = probe(key, hash);
    if (slot->at != nullptr) return {id_of(slot->at), false};
    on_miss();
    *slot = Slot{hash, store(key)};
    return {size_++, true};
  }

  /// `key`'s id, or std::nullopt when absent (`hash == hash_state(key)`).
  [[nodiscard]] std::optional<std::size_t> find(const Key& key,
                                                std::uint64_t hash) const {
    if (size_ == 0) return std::nullopt;
    const Slot* slot = probe(key, hash);
    if (slot->at == nullptr) return std::nullopt;
    return id_of(slot->at);
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return contains(key, hash_state(key));
  }
  [[nodiscard]] bool contains(const Key& key, std::uint64_t hash) const {
    return size_ != 0 && probe(key, hash)->at != nullptr;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Bytes held: arena words allocated plus the index. The table never
  /// shrinks, so this is also its peak.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return arena_words_ * sizeof(std::int64_t) + capacity() * sizeof(Slot);
  }

 private:
  /// `at` points at a stored key's header word (length in the low 32
  /// bits, id in the high 32 — 2^32 keys or words would need hundreds of
  /// GB of arena first), followed by the key's words; null marks an
  /// empty slot.
  struct Slot {
    std::uint64_t hash = 0;
    const std::int64_t* at = nullptr;
  };

  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_ == nullptr ? 0 : mask_ + 1;
  }

  [[nodiscard]] static std::size_t length_of(const std::int64_t* at) noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(*at) &
                                    0xffffffffu);
  }
  [[nodiscard]] static std::size_t id_of(const std::int64_t* at) noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(*at) >> 32);
  }

  /// `key`'s slot if present, else the empty slot it would take.
  [[nodiscard]] Slot* probe(const Key& key, std::uint64_t hash) const {
    std::size_t i = static_cast<std::size_t>(hash) & mask_;
    for (;; i = (i + 1) & mask_) {
      Slot* s = &slots_[i];
      if (s->at == nullptr) return s;
      if (s->hash == hash && length_of(s->at) == key.size() &&
          std::equal(key.begin(), key.end(), s->at + 1)) {
        return s;
      }
    }
  }

  /// Doubles the index (16 slots on first use), re-slotting every entry
  /// from its stored hash.
  void grow() {
    const std::size_t cap = std::max<std::size_t>(16, 2 * capacity());
    auto next = std::make_unique<Slot[]>(cap);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < capacity(); ++i) {
      const Slot& s = slots_[i];
      if (s.at == nullptr) continue;
      std::size_t j = static_cast<std::size_t>(s.hash) & mask;
      while (next[j].at != nullptr) j = (j + 1) & mask;
      next[j] = s;
    }
    slots_ = std::move(next);
    mask_ = mask;
  }

  /// Copies `key` (behind its header word) into the arena.
  const std::int64_t* store(const Key& key) {
    const std::size_t need = key.size() + 1;
    if (need > chunk_left_) {
      const std::size_t words = std::max(next_chunk_words_, need);
      chunks_.push_back(std::make_unique_for_overwrite<std::int64_t[]>(words));
      cursor_ = chunks_.back().get();
      chunk_left_ = words;
      arena_words_ += words;
      next_chunk_words_ = std::min(2 * next_chunk_words_, kMaxChunkWords);
    }
    std::int64_t* at = cursor_;
    at[0] = static_cast<std::int64_t>(static_cast<std::uint64_t>(size_) << 32 |
                                      key.size());
    std::copy(key.begin(), key.end(), at + 1);
    cursor_ += need;
    chunk_left_ -= need;
    return at;
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;

  std::vector<std::unique_ptr<std::int64_t[]>> chunks_;
  std::int64_t* cursor_ = nullptr;
  std::size_t chunk_left_ = 0;
  std::size_t next_chunk_words_ = kFirstChunkWords;
  std::size_t arena_words_ = 0;
};

}  // namespace cal::engine
