// Classical linearizability checker (Herlihy & Wing; Wing–Gong search with
// Lowe-style memoization).
//
// This is the notion CAL generalizes (§3 of the paper): a history is
// linearizable w.r.t. a sequential spec iff some completion can be explained
// by a *sequential* history — equivalently, iff it is CAL w.r.t. the
// degenerate CA-spec whose elements are all singletons, SeqAsCaSpec(S).
// The checker is built on that equivalence. SequentialSpec::order_check
// decides stacks, queues and priority queues without search; otherwise
// the CAL search (engine/cal_policy.hpp) runs over a SeqAsCaSpec view of
// the spec, and the witness trace's singleton elements, in order, are the
// linearization.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/spec.hpp"

namespace cal {

struct LinCheckOptions {
  std::size_t max_visited = 0;  ///< 0 = unlimited
  bool complete_pending = true;
  /// Deduplicate visited nodes by their full encodings instead of the
  /// default 128-bit fingerprints (cal/fingerprint.hpp, ~2^-64 per-pair
  /// false-prune risk).
  bool exact_visited = false;
  /// Consult SequentialSpec::order_check before the engine, as
  /// CalCheckOptions::order_check does: the stack, queue and priority
  /// queue decide the history without any state search, and a declined
  /// order check falls back to the engine. Disable to force the engine.
  bool order_check = true;
};

struct LinCheckResult {
  bool ok = false;
  bool exhausted = false;
  /// On success: a witness linearization (sequence of completed operations).
  std::optional<std::vector<Operation>> witness;
  std::size_t visited_states = 0;
  /// Peak footprint of the visited set.
  std::size_t visited_bytes = 0;
  /// Spec-step memoization (cal/step_cache.hpp): transition sets served
  /// from the per-search cache vs computed by SequentialSpec::step.
  std::size_t step_cache_hits = 0;
  std::size_t step_cache_misses = 0;
  /// True when the verdict came from SequentialSpec::order_check; the
  /// engine never ran and the engine counters above are all zero.
  bool order_checked = false;

  explicit operator bool() const noexcept { return ok; }
};

class LinChecker {
 public:
  explicit LinChecker(const SequentialSpec& spec, LinCheckOptions options = {})
      : spec_(spec), options_(options) {}

  [[nodiscard]] LinCheckResult check(const History& history) const;
  [[nodiscard]] LinCheckResult check(const std::vector<OpRecord>& ops) const;

 private:
  const SequentialSpec& spec_;
  LinCheckOptions options_;
};

}  // namespace cal
