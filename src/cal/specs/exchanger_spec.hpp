// The exchanger CA-specification (§4 of the paper).
//
// The trace-set of an exchanger E is the set of sequences S1 S2 … where each
// CA-element Si is either
//   * E.swap(t, v, t', v') ≜ E.{(t, ex(v) ▷ (true,v')), (t', ex(v') ▷ (true,v))}
//     with t ≠ t' — two overlapping operations that succeed simultaneously, or
//   * E.{(t, ex(v) ▷ (false,v))} — a thread that failed to find a partner.
//
// The spec is stateless: admissibility of an element depends only on its own
// shape. That statelessness is exactly why no *sequential* specification
// exists (§3, Fig. 3): a sequential spec would have to carry the first
// ex(v) ▷ (true,v') as a prefix-closed singleton, inventing a partner-less
// successful exchange.
#pragma once

#include <memory>

#include "cal/spec.hpp"

namespace cal {

class ExchangerSpec final : public CaSpec {
 public:
  /// Governs `object`, whose exchange method is named `method`.
  /// The same shape specifies rendezvous objects under another method name.
  explicit ExchangerSpec(Symbol object, Symbol method = Symbol("exchange"));

  [[nodiscard]] SpecState initial() const override { return {}; }
  [[nodiscard]] std::size_t max_element_size() const override { return 2; }

  [[nodiscard]] std::vector<CaStepResult> step(
      const SpecState& state, Symbol object,
      const std::vector<Operation>& ops) const override;

  /// Feasibility pre-filter: elements are value-matched pairs or failures,
  /// so the checker's pair enumeration drops from all 2-subsets to the
  /// value-compatible ones without calling step().
  [[nodiscard]] bool compatible(
      Symbol object, const std::vector<Operation>& ops) const override;

  /// All completed *failed* exchanges share one class: a failure's only
  /// admissible consumption is its own singleton element (its ret is
  /// (false, v), never the (true, ·) a swap half needs), the spec is
  /// stateless, and the value it echoes is its own offer — so even
  /// failures with different offers have identical admissible futures.
  [[nodiscard]] std::uint64_t symmetry_class(
      Symbol object, const Operation& op) const override;

  /// Decides membership without search: swaps are overlapping pairs
  /// (t, ex(v) ▷ (true,v')), (t', ex(v') ▷ (true,v)) found by
  /// engine::order_check_pairing; failures are singletons.
  [[nodiscard]] std::optional<OrderCheckOutcome> order_check(
      const std::vector<OpRecord>& ops,
      bool complete_pending) const override;

  /// ex(a) ▷ (true,b) offers a and wants b; a pending ex(c) can stand in
  /// for any partner wanting c; failures are singletons.
  [[nodiscard]] const engine::PairingShapes* pairing() const override {
    return shapes_.get();
  }

  [[nodiscard]] Symbol object() const noexcept { return object_; }
  [[nodiscard]] Symbol method() const noexcept { return method_; }

 private:
  Symbol object_;
  Symbol method_;
  std::shared_ptr<const engine::PairingShapes> shapes_;
};

}  // namespace cal
