// Sequential stack specifications (§4, "Stack specification").
//
// Two variants, matching the two stacks in Fig. 2:
//
//   * CentralStackSpec — the single-attempt CAS stack `S`: push(v) may
//     return true (pushing v) or spuriously false (no effect, modelling a
//     lost CAS under contention); pop() may return (true, top) (popping),
//     or (false, 0) (empty stack or lost CAS, no effect). A history is
//     WFS-well-defined exactly when its successful operations replay.
//
//   * StackSpec — the elimination stack `ES` as its clients see it:
//     push(v) always returns true; pop() returns (true, v) for the value on
//     top and is only admissible on a non-empty stack (the Fig. 2 pop loops
//     rather than report empty). With distinct pushed values it decides
//     linearizability by order_check (cal/engine/order_checker.hpp), with
//     no state search.
//
// Abstract state: the stack contents, top last.
#pragma once

#include "cal/spec.hpp"

namespace cal {

class CentralStackSpec final : public SequentialSpec {
 public:
  explicit CentralStackSpec(Symbol object) : object_(object) {}

  [[nodiscard]] SpecState initial() const override { return {}; }
  [[nodiscard]] std::vector<SeqStepResult> step(
      const SpecState& state, ThreadId tid, Symbol object, Symbol method,
      const Value& arg, const std::optional<Value>& ret) const override;

 private:
  Symbol object_;
};

class StackSpec final : public SequentialSpec {
 public:
  explicit StackSpec(Symbol object) : object_(object) {}

  [[nodiscard]] SpecState initial() const override { return {}; }
  [[nodiscard]] std::vector<SeqStepResult> step(
      const SpecState& state, ThreadId tid, Symbol object, Symbol method,
      const Value& arg, const std::optional<Value>& ret) const override;
  [[nodiscard]] std::optional<OrderCheckOutcome> order_check(
      const std::vector<OpRecord>& ops,
      bool complete_pending) const override;

 private:
  Symbol object_;
};

}  // namespace cal
