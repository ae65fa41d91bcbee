#include "cal/cal_checker.hpp"

#include <utility>
#include <vector>

#include "cal/engine/cal_policy.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/parallel/task_pool.hpp"

namespace cal {

std::vector<CaStepResult> SeqAsCaSpec::step(
    const SpecState& state, Symbol object,
    const std::vector<Operation>& ops) const {
  if (ops.size() != 1) return {};
  const Operation& op = ops.front();
  std::vector<CaStepResult> out;
  for (SeqStepResult& sr :
       seq_->step(state, op.tid, object, op.method, op.arg, op.ret)) {
    Operation completed = op;
    completed.ret = sr.ret;
    out.push_back(CaStepResult{std::move(sr.next),
                               CaElement::singleton(object, completed)});
  }
  return out;
}

namespace {

template <bool kShared, typename Driver>
CalCheckResult collect_result(Driver& driver,
                              engine::CalPolicy<kShared>& policy) {
  const engine::SearchStats stats = driver.run();
  CalCheckResult result;
  result.ok = stats.found;
  result.exhausted = stats.exhausted;
  result.visited_states = stats.visited_states;
  result.visited_bytes = stats.visited_bytes;
  result.fired_elements = policy.fired_elements();
  result.pruned_subsets = policy.pruned_subsets();
  result.symmetry_merged = policy.symmetry_merged();
  result.step_cache_hits = policy.step_cache_hits();
  result.step_cache_misses = policy.step_cache_misses();
  if (result.ok) result.witness = CaTrace(driver.witness());
  return result;
}

}  // namespace

CalCheckResult CalChecker::check(const std::vector<OpRecord>& ops) const {
  if (options_.order_check) {
    if (auto oc = spec_.order_check(ops, options_.complete_pending)) {
      CalCheckResult result;
      result.ok = oc->ok;
      if (oc->ok) {
        std::vector<LinearizedOp>& steps = oc->linearization;
        std::vector<CaElement> elements;
        elements.reserve(steps.size());
        for (std::size_t k = 0; k < steps.size();) {
          std::size_t end = k + 1;
          while (end < steps.size() && steps[end].joins_previous) ++end;
          std::vector<Operation> group;
          group.reserve(end - k);
          for (; k < end; ++k) {
            group.push_back(ops[steps[k].record].op);
            group.back().ret = std::move(steps[k].ret);
          }
          const Symbol object = group.front().object;
          elements.emplace_back(object, std::move(group));
        }
        result.witness = CaTrace(std::move(elements));
      }
      result.order_checked = true;
      result.order_values = oc->values;
      result.order_zones = oc->zones;
      result.order_bumps = oc->bumps;
      return result;
    }
  }
  engine::SearchOptions sopts;
  sopts.max_visited = options_.max_visited;
  sopts.exact_visited = options_.exact_visited;
  const std::size_t threads = par::resolve_threads(options_.threads);
  if (threads > 1) {
    engine::CalPolicy<true> policy(ops, spec_, options_.complete_pending,
                                   options_.symmetry);
    engine::ParallelSearch<engine::CalPolicy<true>> driver(policy, sopts,
                                                           threads);
    return collect_result(driver, policy);
  }
  engine::CalPolicy<false> policy(ops, spec_, options_.complete_pending,
                                  options_.symmetry);
  engine::SequentialSearch<engine::CalPolicy<false>> driver(policy, sopts);
  return collect_result(driver, policy);
}

CalCheckResult CalChecker::check(const History& history) const {
  const std::optional<std::vector<OpRecord>> ops =
      history.well_formed_operations();
  if (!ops) return CalCheckResult{};  // ill-formed: not a member
  return check(*ops);
}

}  // namespace cal
