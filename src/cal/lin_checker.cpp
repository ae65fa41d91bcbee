#include "cal/lin_checker.hpp"

#include <utility>
#include <vector>

#include "cal/engine/lin_policy.hpp"
#include "cal/engine/search_engine.hpp"

namespace cal {

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
  engine::LinPolicy policy(ops, spec_, options_.complete_pending);
  engine::SequentialSearch<engine::LinPolicy> driver(policy, sopts);
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

LinCheckResult LinChecker::check(const History& history) const {
  const std::optional<std::vector<OpRecord>> ops =
      history.well_formed_operations();
  if (!ops) return LinCheckResult{};  // ill-formed: not linearizable
  return check(*ops);
}

}  // namespace cal
