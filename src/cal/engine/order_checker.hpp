// The non-enumerative order checkers: priority queue, stack and queue.
//
// Each decides linearizability of a history w.r.t. one sequential spec
// (equivalently CAL w.r.t. its SeqAsCaSpec view, §3) from order
// constraints on the operations' intervals, without the engine's state
// search. All three work on the fragment where every inserted value is
// distinct; instances outside it *decline* (return nullopt) and the caller
// falls back to the engine, so the composed verdict is always the
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
// value in the way whose removal is not open) makes it stuck — a stack
// sweep is then retried once, placing pushes below v more eagerly — and
// a stuck check rejects on an order pattern every witness would violate
// (FIFO or LIFO inversions, an empty dequeue covered by forced-presence
// zones) and otherwise declines, since the forcing order is a heuristic. Rejections
// that need no sweep (a removal of a value never inserted, removed twice,
// or removed before its insert is invoked) are found by sorting first.
// The sweep is O(n log n). DESIGN.md gives each rule's proof.
#pragma once

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

}  // namespace cal::engine
