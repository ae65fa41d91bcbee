// Shared plumbing of the search policies: engine/cal_policy (batch CAL,
// every streaming window, and lin over SeqAsCaSpec),
// engine/interval_policy, and the explorer's ExplorePolicy in
// sched/explorer.cpp.
//
// The checker policies run only on the sequential driver: plain counters
// and a per-search StepMemo. The explorer's policy is a template over
// `bool kShared`, because its threads > 1 walk shares one policy across
// the parallel driver's workers; the counter helpers below pick plain or
// relaxed-atomic counters for it in one place, so the policy itself
// contains only search semantics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "cal/engine/visited.hpp"
#include "cal/history_index.hpp"
#include "cal/step_cache.hpp"

namespace cal::engine {

/// A diagnostic counter (or high-water mark, or flag word) matching the
/// driver: plain for the sequential one, relaxed-atomic for the parallel
/// one.
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

/// A scratch object borrowed from a per-thread stack for one scope. Nested
/// leases on one thread — an expand() whose emit recurses into the next
/// expand(), or another search run from a search's callback — take
/// distinct objects, and every thread (so every check running at once,
/// as under cal_check --jobs) has its own stack, so no two live leases
/// share scratch. Objects stay on the stack for reuse: once a thread has
/// reached its deepest nesting, leases allocate nothing, and buffers
/// inside keep their capacity.
template <typename T>
class ScratchLease {
 public:
  ScratchLease() : stack_(&stack()) {
    if (stack_->depth == stack_->items.size()) {
      stack_->items.push_back(std::make_unique<T>());
    }
    item_ = stack_->items[stack_->depth++].get();
  }
  ~ScratchLease() { --stack_->depth; }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T& operator*() const noexcept { return *item_; }
  T* operator->() const noexcept { return item_; }

 private:
  struct Stack {
    std::vector<std::unique_ptr<T>> items;
    std::size_t depth = 0;
  };
  static Stack& stack() {
    thread_local Stack s;
    return s;
  }

  Stack* stack_;
  T* item_ = nullptr;
};

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
