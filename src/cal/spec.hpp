// Specification interfaces.
//
// The paper specifies objects by *sets of CA-traces* (§3.1) generated from
// Hoare-style per-operation descriptions (§4). Executably, a specification
// is a (possibly nondeterministic) abstract state machine whose transitions
// consume CA-elements: the trace-set of the spec is the set of element
// sequences the machine can consume from its initial state. All such
// trace-sets are prefix-closed by construction, matching Def. 6's
// requirements on object systems.
//
// States are encoded as flat `std::vector<int64_t>` blobs so the checkers
// can hash and memoize them without knowing their structure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/operation.hpp"
#include "cal/symbol.hpp"

namespace cal {

/// Opaque, hashable abstract-state encoding.
using SpecState = std::vector<std::int64_t>;

[[nodiscard]] inline std::size_t hash_state(const SpecState& s) noexcept {
  // FNV-style fold, hardened for short states: the length seeds the hash
  // (so zero elements and truncations move it) and a murmur3 avalanche
  // finishes it (the bare xor-multiply fold lets small states cancel —
  // e.g. {0, (c·p)⊕((c⊕1)·p)} and {1, 0} collided exactly; see
  // CoreTypes.HashStateSeparatesShortStates).
  std::uint64_t h = 0xcbf29ce484222325ull ^
                    (s.size() * 0x9e3779b97f4a7c15ull);
  for (std::int64_t x : s) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

/// One possible outcome of consuming a candidate CA-element: the successor
/// abstract state and the element with all pending returns filled in.
struct CaStepResult {
  SpecState next;
  CaElement element;
};

/// One step of an order-checked witness: the operation record it fires
/// (an index into the checked records) and the return it fires with —
/// the recorded one, or the spec's forced choice for a fired pending
/// invocation.
struct LinearizedOp {
  std::size_t record = 0;
  Value ret;
  /// True when this step fires in one CA-element with the step before it
  /// (the second half of an exchanger swap or a sync-queue hand-off).
  /// Sequential specs never set it, so their steps stay singletons.
  bool joins_previous = false;
};

/// Verdict of a spec's non-enumerative membership decision
/// (SequentialSpec::order_check): a definitive accept/reject computed from
/// order-theoretic constraints instead of the engine's state search.
struct OrderCheckOutcome {
  bool ok = false;
  /// On acceptance: the witness, one element per step or per run of
  /// steps joined by LinearizedOp::joins_previous. Each checker builds its
  /// own witness format from it (CalChecker a CaTrace, LinChecker — whose
  /// sequential specs only produce singletons — an operation sequence).
  std::vector<LinearizedOp> linearization;
  /// Effort counters, mirroring the engine's visited/pruned style:
  /// distinct values examined (the pairing path: completed operations
  /// that needed a partner), and (priority queue only) forced-presence
  /// zones built and candidate points bumped past a zone.
  std::size_t values = 0;
  std::size_t zones = 0;
  std::size_t bumps = 0;

  explicit operator bool() const noexcept { return ok; }
};

/// A concurrency-aware specification: which CA-elements may occur, in which
/// abstract states, and what they do to the state.
class CaSpec {
 public:
  virtual ~CaSpec() = default;

  [[nodiscard]] virtual SpecState initial() const = 0;

  /// Largest number of operations a single CA-element of this spec may
  /// contain (0 = unbounded). The checker only enumerates candidate sets up
  /// to this size — e.g. 2 for the exchanger, 1 for purely sequential specs.
  [[nodiscard]] virtual std::size_t max_element_size() const = 0;

  /// All ways the spec can consume a CA-element o.{ops}. Operations with
  /// empty `ret` are *pending* invocations; each returned CaStepResult must
  /// fill in their return values (this is how the checker enumerates
  /// completions of the history, Def. 2). Returns empty if the element is
  /// not admissible in `state`.
  [[nodiscard]] virtual std::vector<CaStepResult> step(
      const SpecState& state, Symbol object,
      const std::vector<Operation>& ops) const = 0;

  /// Conservative feasibility pre-filter for the checkers' candidate-subset
  /// enumeration. Called with a non-empty set of operations of `object`
  /// (pending returns not yet filled in); must return false ONLY when no
  /// admissible CA-element of this spec — in any abstract state — contains
  /// all of `ops` together. The checkers prune every superset of an
  /// incompatible set without consulting step(), so a spec that cannot
  /// decide cheaply must return true (the default).
  [[nodiscard]] virtual bool compatible(
      Symbol object, const std::vector<Operation>& ops) const {
    (void)object;
    (void)ops;
    return true;
  }

  /// Interchangeability class of one *completed* operation for the
  /// checker's symmetry reduction (0 = unique, never merged). Two
  /// operations with the same nonzero class must be fully interchangeable
  /// in the spec: for every abstract state and every candidate element,
  /// swapping one for the other yields an admissible element with the same
  /// successor states and the same completion choices. (Thread ids do not
  /// break interchangeability — a CA-element never inspects tids — but
  /// arguments and return values do, so classes must key on them.)
  /// CalPolicy then counts, rather than identifies, fired operations of a
  /// class — see cal/engine/cal_policy.hpp.
  [[nodiscard]] virtual std::uint64_t symmetry_class(
      Symbol object, const Operation& op) const {
    (void)object;
    (void)op;
    return 0;
  }

  /// Non-enumerative membership decision hook. A spec that admits a
  /// polynomial order-theoretic characterization of CAL membership may
  /// decide the whole history here, bypassing the engine search.
  /// Returning an outcome is a *definitive* verdict and must equal the
  /// engine's on the same operations under the same `complete_pending`;
  /// returning nullopt declines (instance outside the characterization's
  /// fragment) and the checker falls back to the engine. The default
  /// declines everything; SeqAsCaSpec forwards to
  /// SequentialSpec::order_check (the stack, queue and priority queue),
  /// and the exchanger and the synchronous queue decide by one pairing
  /// sweep (engine::order_check_pairing) that never declines. DESIGN.md
  /// § "Order-checked specs" states the soundness obligations.
  [[nodiscard]] virtual std::optional<OrderCheckOutcome> order_check(
      const std::vector<OpRecord>& ops, bool complete_pending) const {
    (void)ops;
    (void)complete_pending;
    return std::nullopt;
  }
};

/// One possible outcome of a sequential-spec transition.
struct SeqStepResult {
  SpecState next;
  Value ret;
};

/// A classical sequential specification: an abstract state machine consuming
/// one operation at a time (Herlihy & Wing style). Used by the classical
/// linearizability checker and, via SeqAsCaSpec, by the CAL checker (every
/// sequential spec is the degenerate CA-spec with singleton elements).
class SequentialSpec {
 public:
  virtual ~SequentialSpec() = default;

  [[nodiscard]] virtual SpecState initial() const = 0;

  /// All ways `method(arg)` may execute in `state`. If `ret` is set, only
  /// outcomes returning exactly `ret` are produced; if empty (pending
  /// operation), every admissible return is produced.
  [[nodiscard]] virtual std::vector<SeqStepResult> step(
      const SpecState& state, ThreadId tid, Symbol object, Symbol method,
      const Value& arg, const std::optional<Value>& ret) const = 0;

  /// Non-enumerative linearizability decision, shared by both checkers:
  /// LinChecker consults it directly and CalChecker through SeqAsCaSpec.
  /// Same contract as CaSpec::order_check (a definitive verdict equal to
  /// the engine's, or nullopt to decline); the stack, queue and priority
  /// queue implement it in cal/engine/order_checker.hpp. The default
  /// declines everything.
  [[nodiscard]] virtual std::optional<OrderCheckOutcome> order_check(
      const std::vector<OpRecord>& ops, bool complete_pending) const {
    (void)ops;
    (void)complete_pending;
    return std::nullopt;
  }
};

/// Adapter: view a sequential specification as a CA-spec whose elements are
/// all singletons. A history is classically linearizable w.r.t. S iff it is
/// CAL w.r.t. SeqAsCaSpec(S) — the formal sense in which CAL generalizes
/// linearizability (§3). Subclassable so sequential specs with extra
/// checker capabilities (symmetry classes) can layer them on
/// (cal/specs/priority_queue_spec.hpp).
class SeqAsCaSpec : public CaSpec {
 public:
  explicit SeqAsCaSpec(std::shared_ptr<const SequentialSpec> seq)
      : seq_(std::move(seq)) {}

  [[nodiscard]] SpecState initial() const override { return seq_->initial(); }
  [[nodiscard]] std::size_t max_element_size() const override { return 1; }
  [[nodiscard]] std::vector<CaStepResult> step(
      const SpecState& state, Symbol object,
      const std::vector<Operation>& ops) const override;
  /// Sequential elements are singletons; any larger set is infeasible.
  [[nodiscard]] bool compatible(
      Symbol /*object*/, const std::vector<Operation>& ops) const override {
    return ops.size() <= 1;
  }
  /// CAL w.r.t. SeqAsCaSpec(S) is linearizability w.r.t. S, so the
  /// sequential spec's order check decides both.
  [[nodiscard]] std::optional<OrderCheckOutcome> order_check(
      const std::vector<OpRecord>& ops,
      bool complete_pending) const override {
    return seq_->order_check(ops, complete_pending);
  }

 private:
  std::shared_ptr<const SequentialSpec> seq_;
};

}  // namespace cal
