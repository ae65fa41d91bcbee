#include "cal/cal_checker.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "cal/engine/cal_policy.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/specs/union_spec.hpp"

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
    completed.ret = std::move(sr.ret);
    out.push_back(CaStepResult{
        std::move(sr.next), CaElement::singleton(object, std::move(completed))});
  }
  return out;
}

CalCheckResult CalChecker::check_parts(
    const std::vector<OpRecord>& ops) const {
  CalCheckResult result;
  // The first entry of an object governs it, as in UnionCaSpec::step.
  std::vector<const CaSpec::Part*> parts;
  for (const CaSpec::Part& part : spec_.parts()) {
    if (std::none_of(parts.begin(), parts.end(), [&](const CaSpec::Part* p) {
          return p->first == part.first;
        })) {
      parts.push_back(&part);
    }
  }
  std::vector<std::vector<OpRecord>> split(parts.size());
  for (const OpRecord& rec : ops) {
    std::size_t k = 0;
    while (k < parts.size() && parts[k]->first != rec.op.object) ++k;
    if (k < parts.size()) {
      split[k].push_back(rec);
    } else if (!rec.is_pending()) {
      return result;  // no spec admits a completed operation here
    }
  }
  bool rejected = false;
  bool exhausted = false;
  result.ok = true;
  result.order_checked = true;
  std::vector<PartWitness> witnesses;
  std::vector<std::vector<std::pair<ThreadId, std::size_t>>> invocations(
      parts.size());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    CalCheckResult r =
        CalChecker(*parts[k]->second, options_).check(split[k]);
    result.ok = result.ok && r.ok;
    rejected = rejected || (!r.ok && !r.exhausted);
    exhausted = exhausted || r.exhausted;
    result.order_checked = result.order_checked && r.order_checked;
    result.visited_states += r.visited_states;
    result.fired_elements += r.fired_elements;
    result.visited_bytes += r.visited_bytes;
    result.step_cache_hits += r.step_cache_hits;
    result.step_cache_misses += r.step_cache_misses;
    result.pruned_subsets += r.pruned_subsets;
    result.symmetry_merged += r.symmetry_merged;
    result.order_values += r.order_values;
    result.order_zones += r.order_zones;
    result.order_bumps += r.order_bumps;
    if (std::optional<CaTrace> w = std::exchange(r.witness, std::nullopt)) {
      invocations[k].reserve(split[k].size());
      for (const OpRecord& rec : split[k]) {
        invocations[k].emplace_back(rec.op.tid, rec.inv_index);
      }
      witnesses.push_back(PartWitness{w->take_elements(), invocations[k]});
    }
    result.parts.push_back(CalCheckPart{parts[k]->first, std::move(r)});
  }
  result.exhausted = !rejected && exhausted;
  if (result.ok) {
    result.witness = CaTrace(merge_part_witnesses(std::move(witnesses)));
  }
  return result;
}

CalCheckResult CalChecker::check(const std::vector<OpRecord>& ops) const {
  if (options_.order_check && !spec_.parts().empty()) return check_parts(ops);
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
            const Operation& op = ops[steps[k].record].op;
            group.push_back(Operation::make(op.tid, op.object, op.method,
                                            op.arg, std::move(steps[k].ret)));
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
  engine::CalPolicy policy(
      ops, spec_,
      options_.complete_pending ? engine::Pending::kComplete
                                : engine::Pending::kDrop,
      engine::CalPolicy::batch_roots(spec_, ops), options_.symmetry);
  engine::SequentialSearch<engine::CalPolicy> driver(policy, sopts);
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

CalCheckResult CalChecker::check(const History& history) const {
  if (const std::vector<OpRecord>* kept = history.kept_operations()) {
    return check(*kept);
  }
  const std::optional<std::vector<OpRecord>> ops =
      history.well_formed_operations();
  if (!ops) return CalCheckResult{};  // ill-formed: not a member
  return check(*ops);
}

}  // namespace cal
