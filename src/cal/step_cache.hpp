// Memoization in front of pure spec transition functions.
//
// Specifications are pure state machines: `CaSpec::step`, the sequential
// `SequentialSpec::step`, and `IntervalSpec::round` depend only on their
// arguments. The searches, however, reach the same (state, candidate
// element) query along many different paths — the fired-mask differs while
// the abstract state recurs (stateless specs like the exchanger recur
// maximally: *every* node shares one state). A per-search memo table keyed
// by the exact query therefore trades one hash probe for re-running the
// spec's (allocating) transition enumeration.
//
// Keys are flat `std::vector<int64_t>` encodings built by each checker
// into a reusable buffer: operations are identified by their index in the
// search's fixed operation array, so the key pins the query exactly
// without serializing Values. A lookup is one find-or-insert on the flat
// exact-key table (cal/engine/key_table.hpp): one hash, and the key is
// copied into the table's arena only on a miss. The outcome vectors live
// in append-only chunks indexed by the key's dense id; they are never
// modified or moved after insertion, so returned references stay valid
// across later inserts — callers may hold them through recursion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cal/engine/key_table.hpp"
#include "cal/spec.hpp"

namespace cal {

using StepKey = std::vector<std::int64_t>;

/// Append-only storage whose elements never move: fixed-size chunks,
/// allocated as they fill.
template <typename T>
class StableStore {
 public:
  static constexpr std::size_t kChunk = 64;

  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

  void push_back(T&& v) {
    if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<T[]>(kChunk));
    chunks_[size_ / kChunk][size_ % kChunk] = std::move(v);
    ++size_;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

/// The per-search memo table of the checker policies.
template <typename Outcome>
class StepMemo {
 public:
  /// The outcomes cached under `key`; on a miss, stores and returns
  /// `compute()` (a std::vector<Outcome>).
  template <typename Compute>
  const std::vector<Outcome>& find_or_insert(const StepKey& key,
                                             Compute&& compute) {
    const auto [id, inserted] = table_.insert(
        key, hash_state(key), [&] { outcomes_.push_back(compute()); });
    ++(inserted ? misses_ : hits_);
    return outcomes_[id];
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

 private:
  engine::KeyTable table_;
  StableStore<std::vector<Outcome>> outcomes_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace cal
