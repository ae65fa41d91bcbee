#include "cal/interval_lin.hpp"

#include <utility>
#include <vector>

#include "cal/engine/interval_policy.hpp"
#include "cal/engine/search_engine.hpp"

namespace cal {

IntervalCheckResult IntervalLinChecker::check(
    const std::vector<OpRecord>& ops) const {
  engine::SearchOptions sopts;
  sopts.max_visited = options_.max_visited;
  sopts.exact_visited = options_.exact_visited;
  engine::IntervalPolicy policy(ops, spec_, options_.complete_pending);
  engine::SequentialSearch<engine::IntervalPolicy> driver(policy, sopts);
  const engine::SearchStats stats = driver.run();
  IntervalCheckResult result;
  result.ok = stats.found;
  result.exhausted = stats.exhausted;
  result.visited_states = stats.visited_states;
  result.visited_bytes = stats.visited_bytes;
  result.step_cache_hits = policy.step_cache_hits();
  result.step_cache_misses = policy.step_cache_misses();
  if (result.ok) {
    // The witness label path is the round sequence: label r is round r, so
    // each operation's interval is read straight off its starts/ends flags.
    std::vector<std::pair<std::size_t, std::size_t>> intervals(ops.size(),
                                                               {0, 0});
    const auto witness = driver.witness();
    for (std::size_t r = 0; r < witness.size(); ++r) {
      for (const auto& part : witness[r].parts) {
        if (part.starts) intervals[part.op].first = r;
        if (part.ends) intervals[part.op].second = r;
      }
    }
    result.intervals = std::move(intervals);
  }
  return result;
}

IntervalCheckResult IntervalLinChecker::check(const History& history) const {
  if (const std::vector<OpRecord>* kept = history.kept_operations()) {
    return check(*kept);
  }
  const std::optional<std::vector<OpRecord>> ops =
      history.well_formed_operations();
  if (!ops) return IntervalCheckResult{};  // ill-formed: not a member
  return check(*ops);
}

}  // namespace cal
