#include "cal/interval_lin.hpp"

#include <utility>
#include <vector>

#include "cal/engine/interval_policy.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/parallel/task_pool.hpp"

namespace cal {

namespace {

template <bool kShared, typename Driver>
IntervalCheckResult collect_result(Driver& driver,
                                   engine::IntervalPolicy<kShared>& policy,
                                   std::size_t n_ops) {
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
    std::vector<std::pair<std::size_t, std::size_t>> intervals(n_ops, {0, 0});
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

}  // namespace

IntervalCheckResult IntervalLinChecker::check(
    const std::vector<OpRecord>& ops) const {
  engine::SearchOptions sopts;
  sopts.max_visited = options_.max_visited;
  sopts.exact_visited = options_.exact_visited;
  const std::size_t threads = par::resolve_threads(options_.threads);
  if (threads > 1) {
    engine::IntervalPolicy<true> policy(ops, spec_,
                                        options_.complete_pending);
    engine::ParallelSearch<engine::IntervalPolicy<true>> driver(policy, sopts,
                                                                threads);
    return collect_result(driver, policy, ops.size());
  }
  engine::IntervalPolicy<false> policy(ops, spec_, options_.complete_pending);
  engine::SequentialSearch<engine::IntervalPolicy<false>> driver(policy,
                                                                 sopts);
  return collect_result(driver, policy, ops.size());
}

IntervalCheckResult IntervalLinChecker::check(const History& history) const {
  const std::optional<std::vector<OpRecord>> ops =
      history.well_formed_operations();
  if (!ops) return IntervalCheckResult{};  // ill-formed: not a member
  return check(*ops);
}

}  // namespace cal
