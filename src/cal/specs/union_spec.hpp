// Union of disjoint per-object specifications.
//
// The paper's programs use "a static number of concurrent objects" under a
// strict ownership discipline (§2); a whole-program history therefore mixes
// operations of several objects, each governed by its own spec. UnionCaSpec
// composes them: elements are dispatched to the sub-spec registered for
// their object, and the abstract state is the product of the sub-states.
// Because objects are disjoint, the sub-states never interact — the
// executable face of the paper's encapsulation assumption.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/spec.hpp"

namespace cal {

class UnionCaSpec final : public CaSpec {
 public:
  using Entry = Part;

  explicit UnionCaSpec(std::vector<Entry> specs) : specs_(std::move(specs)) {}

  [[nodiscard]] SpecState initial() const override;
  [[nodiscard]] std::size_t max_element_size() const override;
  [[nodiscard]] std::vector<CaStepResult> step(
      const SpecState& state, Symbol object,
      const std::vector<Operation>& ops) const override;
  /// Dispatches to the owning sub-spec's pre-filter (so e.g. an
  /// elimination-stack union inherits the exchanger's pair pruning);
  /// unregistered objects admit nothing.
  [[nodiscard]] bool compatible(
      Symbol object, const std::vector<Operation>& ops) const override;
  /// The registered (object, spec) entries: the checkers decide a union
  /// object by object when order_check is on (DESIGN.md § "Locality").
  [[nodiscard]] std::span<const Part> parts() const override {
    return specs_;
  }

 private:
  /// Splits the product state into the i-th sub-state (by length prefix).
  [[nodiscard]] SpecState sub_state(const SpecState& state,
                                    std::size_t index) const;
  [[nodiscard]] SpecState replace_sub_state(const SpecState& state,
                                            std::size_t index,
                                            const SpecState& next) const;

  std::vector<Entry> specs_;
};

/// One part's witness, as merge_part_witnesses reads it: the elements in
/// the part's order, and the thread and invocation index (on the whole
/// history's action line) of each of the part's operations, in invocation
/// order.
struct PartWitness {
  std::vector<CaElement> elements;
  std::span<const std::pair<ThreadId, std::size_t>> invocations;
};

/// One witness of a history over disjoint objects from one witness per
/// part (DESIGN.md § "Locality"). Walking each part in order, element Eᵢ
/// gets the point max(p(Eᵢ₋₁), the latest invocation among its
/// operations); the elements of all parts are then sorted by point,
/// stably. A thread's operations appear in any witness in program order,
/// so the k-th operation of thread t in a part's elements is t's k-th
/// invocation on it. The elements are moved, not copied.
[[nodiscard]] std::vector<CaElement> merge_part_witnesses(
    std::vector<PartWitness> parts);

}  // namespace cal
