// Synchronous queue CA-specification — the paper's second exchanger client
// (§2: "In [9], we describe another client of the exchanger, a synchronous
// queue [22]").
//
// A synchronous (hand-off) queue pairs each successful put(v) with exactly
// one take() that returns v; neither has an effect alone. As a CA-spec:
//   * Q.{(t, put(v) ▷ true), (t', take() ▷ (true,v))}, t ≠ t' — a hand-off;
//   * Q.{(t, put(v) ▷ false)} — a put that timed out unpaired;
//   * Q.{(t, take() ▷ (false,0))} — a take that timed out unpaired.
//
// Like the exchanger, the spec is stateless, and no useful sequential
// specification exists for the same Fig. 3 prefix-closure reason.
//
// SyncQueueIntervalSpec expresses the same object in the
// interval-linearizability style of Scherer & Scott's dual data structures
// (§6): each operation spans a "request" round and a "follow-up" round, so
// a hand-off is four round-participations rather than one CA-element. Tests
// show both specifications accept the same concrete histories.
#pragma once

#include "cal/interval_lin.hpp"
#include "cal/spec.hpp"

namespace cal {

class SyncQueueSpec final : public CaSpec {
 public:
  explicit SyncQueueSpec(Symbol object) : object_(object) {}

  [[nodiscard]] SpecState initial() const override { return {}; }
  [[nodiscard]] std::size_t max_element_size() const override { return 2; }
  [[nodiscard]] std::vector<CaStepResult> step(
      const SpecState& state, Symbol object,
      const std::vector<Operation>& ops) const override;

  /// Feasibility pre-filter: only value-matched put/take pairs (or lone
  /// timeouts) can form elements, so put/put and take/take subsets — and
  /// value-mismatched hand-offs — are pruned before step().
  [[nodiscard]] bool compatible(
      Symbol object, const std::vector<Operation>& ops) const override;

  /// Decides membership without search: hand-offs are overlapping
  /// put(v) ▷ true / take() ▷ (true,v) pairs found by
  /// engine::order_check_pairing; timeouts are singletons.
  [[nodiscard]] std::optional<OrderCheckOutcome> order_check(
      const std::vector<OpRecord>& ops,
      bool complete_pending) const override;

 private:
  Symbol object_;
};

class SyncQueueIntervalSpec final : public IntervalSpec {
 public:
  explicit SyncQueueIntervalSpec(Symbol object) : object_(object) {}

  /// The unfair (non-FIFO) synchronous queue is stateless: pairing is
  /// decided inside each round, between the operations that close there.
  [[nodiscard]] SpecState initial() const override { return {}; }
  [[nodiscard]] std::size_t max_round_size() const override { return 0; }
  [[nodiscard]] std::vector<IntervalRoundResult> round(
      const SpecState& state, Symbol object,
      const std::vector<IntervalOpRef>& participants) const override;

 private:
  Symbol object_;
};

}  // namespace cal
