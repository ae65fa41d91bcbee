// Classical linearizability (Wing–Gong) as a search-engine policy.
//
// The degenerate case of the CAL policy where every element is a
// singleton: successors fire one enabled operation through the sequential
// spec, memoized by (op index, state) — the same operation recurs in the
// same abstract state along many fired-mask paths. Labels are the fired
// operations with their decided return values, so an accept-mode witness
// is a linearization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cal/engine/policy_base.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/history.hpp"
#include "cal/history_index.hpp"
#include "cal/operation.hpp"
#include "cal/spec.hpp"

namespace cal::engine {

class LinPolicy {
 public:
  struct Node {
    SpecState state;
    StateMask fired;
    std::size_t fired_completed;
  };
  using Label = Operation;

  LinPolicy(const std::vector<OpRecord>& ops, const SequentialSpec& spec,
            bool complete_pending)
      : ops_(ops),
        spec_(spec),
        complete_pending_(complete_pending),
        index_(ops) {}

  std::vector<Node> roots() const {
    return {Node{spec_.initial(), StateMask((ops_.size() + 63) / 64, 0), 0}};
  }

  bool is_goal(const Node& n) const {
    return n.fired_completed == index_.completed();
  }

  void encode(const Node& n, NodeKey& out) const {
    encode_state_and_masks(n.state, {&n.fired}, out);
  }

  void on_enter(const Node&, std::size_t) {}
  bool cancelled() const { return false; }

  template <typename Emit>
  void expand(const Node& node, std::size_t /*depth*/,
              const std::vector<Label>& /*prefix*/, Emit&& emit) {
    const std::size_t prefix = index_.fired_prefix(node.fired);
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].is_pending() && !complete_pending_) continue;
      if (!index_.enabled(i, node.fired, prefix)) continue;

      const OpRecord& rec = ops_[i];
      for (const SeqStepResult& sr : stepped(node.state, i)) {
        Node next{sr.next, node.fired,
                  node.fired_completed + (rec.is_pending() ? 0 : 1)};
        mask_set(next.fired, i);
        Operation completed = rec.op;
        completed.ret = sr.ret;
        if (!emit(std::move(next), std::move(completed))) return;
      }
    }
  }

  [[nodiscard]] std::size_t step_cache_hits() const { return memo_.hits(); }
  [[nodiscard]] std::size_t step_cache_misses() const {
    return memo_.misses();
  }

 private:
  const std::vector<SeqStepResult>& stepped(const SpecState& state,
                                            std::size_t op_index) {
    ScratchLease<StepKey> key;
    key->clear();
    key->push_back(static_cast<std::int64_t>(op_index));
    key->insert(key->end(), state.begin(), state.end());
    return memo_.find_or_insert(*key, [&] {
      const Operation& op = ops_[op_index].op;
      return spec_.step(state, op.tid, op.object, op.method, op.arg, op.ret);
    });
  }

  const std::vector<OpRecord>& ops_;
  const SequentialSpec& spec_;
  bool complete_pending_;
  HistoryIndex index_;
  StepMemo<SeqStepResult> memo_;
};

}  // namespace cal::engine
