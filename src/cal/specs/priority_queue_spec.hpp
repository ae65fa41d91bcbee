// Sequential priority-queue specification and its order-checked CA view.
//
// The bucket priority queue in src/objects is classically linearizable, so
// its histories must pass both LinChecker(PriorityQueueSpec) and the CAL
// checker. The inserted value doubles as the priority, smaller = higher:
//
//   insert(v)  ▷ true            — always succeeds
//   deleteMin  ▷ (true, min)     — nonempty (min = smallest stored value)
//   deleteMin  ▷ (false, 0)      — empty
//
// PriorityQueueSpec::order_check is the polynomial fast path implemented in
// cal/engine/order_checker.hpp: it decides membership without the engine's
// state search whenever all inserted values are distinct, for LinChecker
// directly and for CalChecker through SeqAsCaSpec. PriorityQueueCaSpec
// layers symmetry classes on top of that view (identical completed
// operations are interchangeable in a tid-agnostic sequential spec).
#pragma once

#include <memory>

#include "cal/spec.hpp"

namespace cal {

class PriorityQueueSpec final : public SequentialSpec {
 public:
  explicit PriorityQueueSpec(Symbol object) : object_(object) {}

  [[nodiscard]] SpecState initial() const override { return {}; }
  [[nodiscard]] std::vector<SeqStepResult> step(
      const SpecState& state, ThreadId tid, Symbol object, Symbol method,
      const Value& arg, const std::optional<Value>& ret) const override;
  /// Declines on duplicate inserted values and on a pending deleteMin
  /// under complete_pending; the checker then runs the engine.
  [[nodiscard]] std::optional<OrderCheckOutcome> order_check(
      const std::vector<OpRecord>& ops,
      bool complete_pending) const override;

 private:
  Symbol object_;  // state is the stored multiset, kept ascending
};

/// SeqAsCaSpec(PriorityQueueSpec) plus symmetry classes; the order check
/// comes through SeqAsCaSpec's forwarding.
class PriorityQueueCaSpec final : public SeqAsCaSpec {
 public:
  explicit PriorityQueueCaSpec(Symbol object)
      : SeqAsCaSpec(std::make_shared<PriorityQueueSpec>(object)),
        object_(object) {}

  /// The sequential spec never inspects tids, so completed operations with
  /// equal method/argument/return are fully interchangeable.
  [[nodiscard]] std::uint64_t symmetry_class(
      Symbol object, const Operation& op) const override;

 private:
  Symbol object_;
};

}  // namespace cal
