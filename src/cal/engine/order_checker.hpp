// The non-enumerative order checkers: priority queue, stack and queue, and
// the pairing sweep of the stateless CA-specs (exchanger, sync queue).
//
// The first three decide linearizability of a history w.r.t. one
// sequential spec (equivalently CAL w.r.t. its SeqAsCaSpec view, §3) from
// order constraints on the operations' intervals, without the engine's
// state search. All three work on the fragment where every inserted value
// is distinct; instances outside it *decline* (return nullopt) and the
// caller falls back to the engine, so the composed verdict is always the
// engine's. A fired pending insert always returns `true`; the other
// fragment rules (which pending operations fire, which completed ones can
// never step) are shared and listed in DESIGN.md § "Order-checked specs".
//
// ## Priority queue
//
// Bouajjani–Enea–Wang show that linearizability of priority-queue
// histories reduces to per-value ordering constraints decidable in
// polynomial time — no permutation search. This module implements that
// reduction for the repo's bucket priority queue
// (insert(v) ▷ true / deleteMin ▷ (true,min) | (false,0), the inserted
// value being the priority, smaller = higher).
//
// The characterization (distinct values; removals first matched to their
// inserts):
//
//   * The insert point of a value u can always be pushed to just before
//     min(res(ins u), r_u) — dodging every earlier constraint — so the
//     only interval during which u is *unavoidably* present is the
//     "forced zone" [res(ins u), r_u) (empty when the removal resolves
//     before the insert's response; [res(ins u), ∞) for a value never
//     removed).
//   * deleteMin ▷ (true,v) must resolve at a point r_v inside its own and
//     its insert's intervals that avoids the forced zones of every value
//     smaller than v (a smaller present value would be the minimum).
//   * deleteMin ▷ (false,0) must resolve at a point inside its interval
//     avoiding the zones of *all* values.
//
// Processing values in ascending priority order and greedily resolving
// each removal at the earliest admissible point is complete: shrinking r_u
// only shrinks u's zone [res(ins u), r_u), so the greedy choice weakly
// dominates any other assignment (a standard exchange argument). Zones
// are kept in a merged interval map, making each resolution a logarithmic
// lookup plus at most one bump past a merged zone — O(n log n) overall.
// Points live on the action-index line refined by an epsilon coordinate
// (Pt = base + eps·ε), which realizes "just before / just after" without
// touching real arithmetic. The witness lists the singletons sorted by
// resolution point (inserts before removals at equal points, ties in
// ascending value order).
//
// ## Stack and queue
//
// One sweep over the history's actions keeps the container C and the
// *open* operations (invoked, not yet linearized). After every action it
// applies rules that are safe by exchange arguments — linearize an open
// removal of the head/top value; empty dequeues while C is empty; an open
// insert together with its open removal; on a stack with no removable
// value in C, the open inserts of values never removed — and at the
// response of a still-open operation it forces that operation in,
// placing the open inserts that must sit ahead of (queue) or below
// (stack) it first, by the deadline of their removals' responses. Every
// step is taken inside its operation's interval on the spec's own state,
// so a finished sweep *is* a witness. A step the sweep cannot take (a
// value in the way whose removal is not open) makes it stuck, and a stuck
// check rejects on an order pattern every witness would violate (FIFO or
// LIFO inversions, an empty dequeue covered by forced-presence zones) and
// otherwise declines, since the forcing order is a heuristic. Rejections
// that need no sweep (a removal of a value never inserted, removed twice,
// or removed before its insert is invoked) are found by sorting first.
// The sweep is O(n log n). DESIGN.md gives each rule's proof.
//
// ## Exchanger and synchronous queue: pairing
//
// Both CA-specs are stateless: every element is a value-matched pair of
// overlapping operations or a lone failure (§4, Fig. 3). So a history is
// CAL iff its completed successful operations can be matched into
// mirrored pairs whose intervals overlap — a pending invocation of the
// mirrored argument may stand in as a partner under complete_pending —
// and every other completed operation is an admissible failure. One sweep
// over the actions decides it. At the response of a completed successful
// operation x that is still unmatched, x pairs with the open (invoked, not
// yet responded), unmatched, completed operation of the mirrored shape
// that responds first; failing that, under complete_pending, with any
// invoked pending invocation of the mirrored argument; failing that, the
// history is rejected. Failures and timeouts are singletons at their
// response. Two exchange arguments make the greedy choice complete: a
// completed partner dominates a pending one, and among completed partners
// the earliest deadline dominates later ones. Each pair's operations are
// both open just before x's response, so the elements in sweep order are
// a witness. The per-spec PairingShapes adapter says which operations
// pair (their offer and wanted keys) and which are failures; the sweep
// never declines on a history's records and costs O(n · w) for overlap
// width w.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cal/history.hpp"
#include "cal/spec.hpp"
#include "cal/symbol.hpp"

namespace cal::engine {

struct OrderCheckRequest {
  Symbol object;
  Symbol insert_method;
  Symbol delete_method;
  /// Mirrors CalCheckOptions::complete_pending: when true, pending inserts
  /// may be fired to match a completed removal (a pending removal then
  /// declines — completing one is a genuine search); when false every
  /// pending invocation is dropped.
  bool complete_pending = true;
};

/// Decides CAL membership of `ops` (a well-formed history's operation
/// records) against the priority-queue specification. Returns nullopt to
/// decline to the engine: duplicate inserted values, or a pending
/// deleteMin under complete_pending.
[[nodiscard]] std::optional<OrderCheckOutcome> order_check_priority_queue(
    const std::vector<OpRecord>& ops, const OrderCheckRequest& req);

/// Decides linearizability of `ops` against StackSpec (push(v) ▷ true,
/// pop ▷ (true, top), no empty pop). Declines on duplicate pushed values,
/// a pending pop under complete_pending, or a sweep that gets stuck
/// without a provable violation.
[[nodiscard]] std::optional<OrderCheckOutcome> order_check_stack(
    const std::vector<OpRecord>& ops, const OrderCheckRequest& req);

/// Decides linearizability of `ops` against QueueSpec (enq(v) ▷ true,
/// deq ▷ (true, head) | (false, 0)). Declines as order_check_stack does.
[[nodiscard]] std::optional<OrderCheckOutcome> order_check_queue(
    const std::vector<OpRecord>& ops, const OrderCheckRequest& req);

/// One operation's part in a stateless pairing CA-spec, as the spec's
/// PairingShapes adapter classifies it.
struct PairShape {
  enum class Kind : std::uint8_t {
    kDropped,  ///< pending, and never a partner: the completion drops it
    kReject,   ///< completed, and no element of the spec contains it
    kAlone,    ///< completed failure or timeout: a singleton element
    kPaired,   ///< completed success: must pair with a mirrored partner
    kPartner,  ///< pending, and completable as the partner of a kPaired
  };
  /// A value tagged with the side of the hand-off that carries it (the
  /// exchanger has one side, the sync queue's put and take two).
  struct Key {
    std::int64_t value = 0;
    std::int64_t side = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  Kind kind = Kind::kDropped;
  /// kPaired: what the operation hands over. kPartner: what it would hand
  /// over, matched against a kPaired operation's `pending_want`.
  Key offer;
  /// kPaired: what its partner hands over. Completed x and y are mirrored
  /// iff y.offer == x.want and y.want == x.offer.
  Key want;
  /// kPaired: the offer of a pending partner. Operations with equal offer
  /// and want must have equal pending_want (the sweep's exchange argument
  /// swaps partners between them).
  Key pending_want;
};

/// The per-spec adapter of order_check_pairing.
class PairingShapes {
 public:
  virtual ~PairingShapes() = default;

  /// Classifies one operation: kDropped or kPartner when pending,
  /// otherwise kReject, kAlone or kPaired.
  [[nodiscard]] virtual PairShape shape(const Operation& op) const = 0;

  /// The return a pending partner is completed with when it pairs with
  /// the completed operation `x`.
  [[nodiscard]] virtual Value partner_return(const Operation& x) const = 0;
};

/// Decides CAL membership of `ops` against a stateless pairing CA-spec
/// described by `shapes` (see "Exchanger and synchronous queue" above).
/// With `complete_pending` false every pending invocation is dropped.
/// Never declines on a history's records; it returns nullopt only when
/// two records claim one action index, which no history's do.
[[nodiscard]] std::optional<OrderCheckOutcome> order_check_pairing(
    const std::vector<OpRecord>& ops, const PairingShapes& shapes,
    bool complete_pending);

}  // namespace cal::engine
