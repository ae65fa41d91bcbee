#include "cal/lin_checker.hpp"

#include <utility>
#include <vector>

#include "cal/engine/lin_policy.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/parallel/task_pool.hpp"

namespace cal {

namespace {

template <bool kShared, typename Driver>
LinCheckResult collect_result(Driver& driver,
                              engine::LinPolicy<kShared>& policy) {
  const engine::SearchStats stats = driver.run();
  LinCheckResult result;
  result.ok = stats.found;
  result.exhausted = stats.exhausted;
  result.visited_states = stats.visited_states;
  result.visited_bytes = stats.visited_bytes;
  result.step_cache_hits = policy.step_cache_hits();
  result.step_cache_misses = policy.step_cache_misses();
  if (result.ok) result.witness = driver.witness();
  return result;
}

}  // namespace

LinCheckResult LinChecker::check(const std::vector<OpRecord>& ops) const {
  if (options_.order_check) {
    if (auto oc = spec_.order_check(ops, options_.complete_pending)) {
      LinCheckResult result;
      result.ok = oc->ok;
      result.order_checked = true;
      if (oc->ok) {
        std::vector<Operation> witness;
        witness.reserve(oc->linearization.size());
        for (LinearizedOp& step : oc->linearization) {
          witness.push_back(ops[step.record].op);
          witness.back().ret = std::move(step.ret);
        }
        result.witness = std::move(witness);
      }
      return result;
    }
  }
  engine::SearchOptions sopts;
  sopts.max_visited = options_.max_visited;
  sopts.exact_visited = options_.exact_visited;
  const std::size_t threads = par::resolve_threads(options_.threads);
  if (threads > 1) {
    engine::LinPolicy<true> policy(ops, spec_, options_.complete_pending);
    engine::ParallelSearch<engine::LinPolicy<true>> driver(policy, sopts,
                                                           threads);
    return collect_result(driver, policy);
  }
  engine::LinPolicy<false> policy(ops, spec_, options_.complete_pending);
  engine::SequentialSearch<engine::LinPolicy<false>> driver(policy, sopts);
  return collect_result(driver, policy);
}

LinCheckResult LinChecker::check(const History& history) const {
  if (!history.well_formed()) {
    LinCheckResult r;
    r.ok = false;
    return r;
  }
  return check(history.operations());
}

}  // namespace cal
