// Sequential FIFO queue specification — control object for the checkers.
//
// The Michael–Scott queue in src/objects is classically linearizable, so its
// histories must pass both LinChecker(QueueSpec) and the CAL checker with
// SeqAsCaSpec(QueueSpec); the test suite uses it to cross-validate the
// checkers on an object the paper treats as "ordinary" (not a CA-object).
//
//   enq(v) ▷ true            — always succeeds
//   deq()  ▷ (true, head)    — nonempty
//   deq()  ▷ (false, 0)      — empty
//
// With distinct enqueued values QueueSpec decides linearizability by
// order_check (cal/engine/order_checker.hpp), with no state search.
#pragma once

#include "cal/spec.hpp"

namespace cal {

class QueueSpec final : public SequentialSpec {
 public:
  explicit QueueSpec(Symbol object) : object_(object) {}

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

/// Read/write register specification:
///   write(v) ▷ () ; read() ▷ v_last (0 initially).
class RegisterSpec final : public SequentialSpec {
 public:
  explicit RegisterSpec(Symbol object) : object_(object) {}

  [[nodiscard]] SpecState initial() const override { return {0}; }
  [[nodiscard]] std::vector<SeqStepResult> step(
      const SpecState& state, ThreadId tid, Symbol object, Symbol method,
      const Value& arg, const std::optional<Value>& ret) const override;

 private:
  Symbol object_;
};

}  // namespace cal
