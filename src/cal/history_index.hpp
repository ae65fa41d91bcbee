// Per-history search index shared by the three checkers: real-time
// predecessor lists, the completed count, and the fired-mask helpers.
//
// The predecessors of operation i are exactly the completed operations
// whose response precedes i's invocation (Def. 3). Sorting the completed
// operations by response index makes each predecessor list a *prefix* of
// one shared order: a single sweep over the operations in invocation order
// assigns every i its prefix length. Construction is O(n log n) and the
// index stores O(n) words, replacing the old all-pairs O(n²) scan.
//
// The same prefix property decides the enabled set of a search node in one
// pass: if the first k operations of the response-sorted order have all
// fired (k = fired_prefix(mask)), an unfired operation i is enabled iff
// pred_count(i) <= k.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "cal/history.hpp"

namespace cal {

/// Fired/closed/open sets over operation indices, one bit each.
using StateMask = std::vector<std::uint64_t>;

[[nodiscard]] inline bool mask_test(const StateMask& m, std::size_t i) {
  return (m[i / 64] >> (i % 64)) & 1u;
}
inline void mask_set(StateMask& m, std::size_t i) {
  m[i / 64] |= (1ull << (i % 64));
}
inline void mask_clear(StateMask& m, std::size_t i) {
  m[i / 64] &= ~(1ull << (i % 64));
}

class HistoryIndex {
 public:
  explicit HistoryIndex(const std::vector<OpRecord>& ops) {
    const std::size_t n = ops.size();
    pred_count_.assign(n, 0);
    by_res_.reserve(n);
    std::vector<std::size_t> by_inv(n);
    for (std::size_t i = 0; i < n; ++i) {
      by_inv[i] = i;
      if (!ops[i].is_pending()) {
        ++completed_;
        by_res_.push_back(i);
      }
    }
    std::sort(by_res_.begin(), by_res_.end(),
              [&ops](std::size_t a, std::size_t b) {
                return *ops[a].res_index < *ops[b].res_index;
              });
    std::sort(by_inv.begin(), by_inv.end(),
              [&ops](std::size_t a, std::size_t b) {
                return ops[a].inv_index < ops[b].inv_index;
              });
    // Sweep in invocation order: the returned-before-me prefix only grows.
    std::size_t k = 0;
    for (std::size_t i : by_inv) {
      while (k < by_res_.size() &&
             *ops[by_res_[k]].res_index < ops[i].inv_index) {
        ++k;
      }
      pred_count_[i] = k;
    }
    // Running minimum of pred_count_, from the back.
    suffix_min_ = pred_count_;
    std::partial_sum(suffix_min_.rbegin(), suffix_min_.rend(),
                     suffix_min_.rbegin(), [](std::size_t a, std::size_t b) {
                       return std::min(a, b);
                     });
  }

  /// The completed operations in response order; every predecessor list
  /// is a prefix of it.
  [[nodiscard]] std::span<const std::size_t> by_response() const {
    return by_res_;
  }

  /// Length of i's predecessor list.
  [[nodiscard]] std::size_t pred_count(std::size_t i) const {
    return pred_count_[i];
  }

  /// The longest prefix of the response-sorted order whose operations have
  /// all fired in `mask`. `from` is a prefix already known to have fired
  /// (a search node's parent's), where the walk starts.
  [[nodiscard]] std::size_t fired_prefix(const StateMask& mask,
                                         std::size_t from = 0) const {
    std::size_t k = from;
    while (k < by_res_.size() && mask_test(mask, by_res_[k])) ++k;
    return k;
  }

  /// True iff i is unfired and every real-time predecessor has fired, with
  /// `prefix == fired_prefix(mask)`.
  [[nodiscard]] bool enabled(std::size_t i, const StateMask& mask,
                             std::size_t prefix) const {
    return !mask_test(mask, i) && pred_count_[i] <= prefix;
  }

  /// Every operation at or past this index has more than `prefix`
  /// predecessors, so none of them is enabled when
  /// `prefix == fired_prefix(mask)`. On operations listed in invocation
  /// order, as histories list them, an enabled-set scan that stops here
  /// skips every operation invoked after the first unfired response.
  [[nodiscard]] std::size_t scan_end(std::size_t prefix) const {
    return static_cast<std::size_t>(
        std::upper_bound(suffix_min_.begin(), suffix_min_.end(), prefix) -
        suffix_min_.begin());
  }

  [[nodiscard]] std::size_t completed() const noexcept { return completed_; }

 private:
  std::vector<std::size_t> by_res_;    ///< completed ops, by response index
  std::vector<std::size_t> pred_count_;
  /// suffix_min_[i]: the fewest predecessors of any operation j >= i
  /// (non-decreasing in i).
  std::vector<std::size_t> suffix_min_;
  std::size_t completed_ = 0;
};

}  // namespace cal
