// Shared plumbing of the search policies (engine/{cal,lin,interval}_policy
// and the explorer's ExplorePolicy in sched/explorer.cpp).
//
// Each policy is a template over `bool kShared`: the false
// instantiation is what the sequential driver runs (plain counters, the
// node-based StepMemo), the true instantiation is safe to share across the
// parallel driver's workers (relaxed atomic counters, the striped-lock
// ShardedStepMemo). These aliases keep that choice in one place so the
// policies themselves contain only search semantics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "cal/engine/visited.hpp"
#include "cal/history_index.hpp"
#include "cal/step_cache.hpp"

namespace cal::engine {

/// The spec-step memo matching the driver: per-search node-based map for
/// the sequential driver, sharded striped-lock map for the parallel one.
/// Both hand out references that stay valid across the recursion.
template <bool kShared, typename Outcome>
using StepMemoFor =
    std::conditional_t<kShared, ShardedStepMemo<Outcome>, StepMemo<Outcome>>;

/// A diagnostic counter (or high-water mark, or flag word) matching the
/// driver.
template <bool kShared, typename T = std::size_t>
using Counter = std::conditional_t<kShared, std::atomic<T>, T>;

inline void bump(std::size_t& c) noexcept { ++c; }
inline void bump(std::atomic<std::size_t>& c) noexcept {
  c.fetch_add(1, std::memory_order_relaxed);
}

/// Raises a high-water mark to `v`. The shared form writes only when `v`
/// is larger, so workers re-offering a settled maximum share the line.
template <typename T>
void note_max(T& c, std::type_identity_t<T> v) noexcept {
  if (v > c) c = v;
}
template <typename T>
void note_max(std::atomic<T>& c, std::type_identity_t<T> v) noexcept {
  T seen = c.load(std::memory_order_relaxed);
  while (v > seen &&
         !c.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

/// ORs `bits` into a flag word; the shared form writes only when a bit is
/// new.
template <typename T>
void note_bits(T& c, std::type_identity_t<T> bits) noexcept {
  c |= bits;
}
template <typename T>
void note_bits(std::atomic<T>& c, std::type_identity_t<T> bits) noexcept {
  if ((c.load(std::memory_order_relaxed) & bits) != bits) {
    c.fetch_or(bits, std::memory_order_relaxed);
  }
}

template <typename T>
T read_counter(const T& c) noexcept {
  return c;
}
template <typename T>
T read_counter(const std::atomic<T>& c) noexcept {
  return c.load(std::memory_order_relaxed);
}

/// The (spec state, fired/closed masks...) node encoding every checker
/// policy dedups on: a length-prefixed state followed by the mask words.
/// `out` is a reusable scratch buffer.
inline void encode_state_and_masks(const SpecState& state,
                                   std::initializer_list<const StateMask*>
                                       masks,
                                   NodeKey& out) {
  out.clear();
  std::size_t mask_words = 0;
  for (const StateMask* m : masks) mask_words += m->size();
  out.reserve(state.size() + mask_words + 1);
  out.push_back(static_cast<std::int64_t>(state.size()));
  out.insert(out.end(), state.begin(), state.end());
  for (const StateMask* m : masks) {
    for (std::uint64_t w : *m) out.push_back(static_cast<std::int64_t>(w));
  }
}

}  // namespace cal::engine
