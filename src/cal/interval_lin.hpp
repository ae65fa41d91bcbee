// Interval-linearizability (Castañeda, Rajsbaum & Raynal) — the strict
// generalization of set-linearizability discussed in §6 of the paper.
//
// Where a CA-trace maps every operation to exactly one CA-element, an
// interval-sequential execution maps every operation to a *consecutive
// interval of rounds*: the operation participates in each round of its
// interval, starting in the first and returning in the last. This checker
// decides interval-linearizability of a history against an IntervalSpec.
// CAL is the special case where every interval has length one; tests
// cross-validate the two checkers on such specs.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "cal/history.hpp"
#include "cal/operation.hpp"
#include "cal/spec.hpp"
#include "cal/symbol.hpp"

namespace cal {

/// One participant of a round.
struct IntervalOpRef {
  Operation op;      ///< ret is empty for pending invocations
  bool starts;       ///< first round of this operation's interval
  bool ends;         ///< last round (the operation returns here)
};

/// One admissible outcome of a round: the successor state, plus the return
/// value decided for every participant with ends == true (indexed in step
/// with the participant's position; participants with ends == false carry
/// no entry, i.e. std::nullopt).
struct IntervalRoundResult {
  SpecState next;
  std::vector<std::optional<Value>> returns;
};

class IntervalSpec {
 public:
  virtual ~IntervalSpec() = default;

  [[nodiscard]] virtual SpecState initial() const = 0;

  /// Largest number of participants in a single round (0 = unbounded).
  [[nodiscard]] virtual std::size_t max_round_size() const = 0;

  /// All admissible outcomes of a round of `object` with the given
  /// participants. For a participant with a concrete `op.ret` and
  /// ends == true, outcomes must return exactly that value; for pending
  /// participants the spec chooses. Empty result = round not admissible.
  [[nodiscard]] virtual std::vector<IntervalRoundResult> round(
      const SpecState& state, Symbol object,
      const std::vector<IntervalOpRef>& participants) const = 0;
};

struct IntervalCheckOptions {
  std::size_t max_visited = 0;  ///< 0 = unlimited
  bool complete_pending = true;
  /// Exact stored-key dedup instead of the default 128-bit fingerprints.
  bool exact_visited = false;
};

struct IntervalCheckResult {
  bool ok = false;
  bool exhausted = false;
  std::size_t visited_states = 0;
  /// Peak footprint of the visited set.
  std::size_t visited_bytes = 0;
  /// Round memoization (cal/step_cache.hpp): round outcome sets served
  /// from the per-search cache vs computed by IntervalSpec::round.
  std::size_t step_cache_hits = 0;
  std::size_t step_cache_misses = 0;
  /// On success, interval[i] = (first round, last round) of operation i of
  /// History::operations(); rounds are numbered globally across objects.
  std::optional<std::vector<std::pair<std::size_t, std::size_t>>> intervals;

  explicit operator bool() const noexcept { return ok; }
};

class IntervalLinChecker {
 public:
  explicit IntervalLinChecker(const IntervalSpec& spec,
                              IntervalCheckOptions options = {})
      : spec_(spec), options_(options) {}

  [[nodiscard]] IntervalCheckResult check(const History& history) const;
  [[nodiscard]] IntervalCheckResult check(
      const std::vector<OpRecord>& ops) const;

 private:
  const IntervalSpec& spec_;
  IntervalCheckOptions options_;
};

}  // namespace cal
