#include "cal/lin_checker.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "cal/cal_checker.hpp"

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
          const Operation& op = ops[step.record].op;
          witness.push_back(Operation::make(op.tid, op.object, op.method,
                                            op.arg, std::move(step.ret)));
        }
        result.witness = std::move(witness);
      }
      return result;
    }
  }
  // Linearizability w.r.t. S is CAL w.r.t. SeqAsCaSpec(S) (§3), so the
  // engine path is the CAL search over a non-owning view of the spec (the
  // aliasing constructor with an empty owner), its witness flattened from
  // singleton elements into a linearization.
  const SeqAsCaSpec adapter(
      std::shared_ptr<const SequentialSpec>(std::shared_ptr<void>(), &spec_));
  CalCheckOptions copts;
  copts.max_visited = options_.max_visited;
  copts.complete_pending = options_.complete_pending;
  copts.exact_visited = options_.exact_visited;
  copts.order_check = false;
  const CalCheckResult cal = CalChecker(adapter, copts).check(ops);
  LinCheckResult result;
  result.ok = cal.ok;
  result.exhausted = cal.exhausted;
  result.visited_states = cal.visited_states;
  result.visited_bytes = cal.visited_bytes;
  result.step_cache_hits = cal.step_cache_hits;
  result.step_cache_misses = cal.step_cache_misses;
  if (cal.witness) result.witness = cal.witness->all_ops();
  return result;
}

LinCheckResult LinChecker::check(const History& history) const {
  if (const std::vector<OpRecord>* kept = history.kept_operations()) {
    return check(*kept);
  }
  const std::optional<std::vector<OpRecord>> ops =
      history.well_formed_operations();
  if (!ops) return LinCheckResult{};  // ill-formed: not linearizable
  return check(*ops);
}

}  // namespace cal
