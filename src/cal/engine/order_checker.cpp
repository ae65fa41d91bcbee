#include "cal/engine/order_checker.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "cal/engine/policy_base.hpp"

namespace cal::engine {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// ===========================================================================
// The fragment every order checker shares.

/// How a checker treats one operation record.
enum class Role : std::uint8_t {
  kDropped,  ///< never fires: a dropped pending invocation
  kInsert,   ///< insert(v) / push(v) / enq(v)
  kRemove,   ///< a removal ▷ (true, v)
  kEmpty,    ///< a removal ▷ (false, 0)
};

enum class Phase : std::uint8_t { kIdle, kOpen, kDone };

struct OpState {
  Role role = Role::kDropped;
  Phase phase = Phase::kIdle;  ///< the stack/queue sweep's progress
  std::uint32_t slot = 0;      ///< the value's slot (kInsert / kRemove)
};

/// One distinct inserted value: its insert and its completed removal.
struct ValueSlot {
  std::int64_t value = 0;
  std::size_t ins = kNone;
  std::size_t rem = kNone;  ///< kNone: never removed
};

/// An invocation or response of one operation record.
struct SweepEvent {
  std::size_t at;  ///< action index
  std::size_t record;
  bool response;
};

/// An open insert of a removed value, keyed by its removal's response.
struct Deadline {
  std::size_t due = 0;
  std::uint32_t slot = 0;
};

/// F1's heap order: the front is the next insert placed — a queue's
/// earliest-removed value (placed ahead first), a stack's latest-removed
/// (placed lowest first).
struct DeadlineOrder {
  bool lifo = false;
  bool operator()(const Deadline& a, const Deadline& b) const {
    return lifo ? a.due < b.due : a.due > b.due;
  }
};

/// The checkers' working buffers, leased per thread (policy_base.hpp), so
/// a warmed-up thread allocates only each check's output.
struct OrderScratch {
  std::vector<OpState> state;
  std::vector<std::pair<std::int64_t, std::size_t>> inserts;  // (value, i)
  std::vector<std::size_t> removals;
  std::vector<ValueSlot> slots;
  std::vector<SweepEvent> events;
  std::vector<std::uint32_t> c;
  std::vector<Deadline> deadlines;
  std::vector<std::uint32_t> pairs;
  std::vector<std::size_t> open_empties;
  std::vector<std::uint32_t> keepers;
};

enum class Fragment : std::uint8_t { kIn, kDecline, kReject };

/// Gives every record its role and every distinct inserted value a slot
/// (ascending by value), matched to its completed removal. Rejects a
/// completed operation the spec can never step (another object or method,
/// a non-integer insert argument, an insert not returning true, a removal
/// other than (true, v) — or (false, 0) when `empty_removals`), a removal
/// of a value never inserted, a value removed twice, and rem(v) <_h ins(v).
/// Declines duplicate values and, under complete_pending, a pending
/// removal (completing it means choosing its return value — a search).
/// Drops pending operations when !complete_pending, and a pending insert
/// whose value is never removed (firing it could only obstruct).
Fragment classify(const std::vector<OpRecord>& ops,
                  const OrderCheckRequest& req, bool empty_removals,
                  OrderScratch& scratch) {
  std::vector<OpState>& state = scratch.state;
  std::vector<std::pair<std::int64_t, std::size_t>>& inserts =
      scratch.inserts;
  std::vector<std::size_t>& removals = scratch.removals;
  std::vector<ValueSlot>& slots = scratch.slots;
  state.assign(ops.size(), OpState{});
  inserts.clear();
  removals.clear();
  slots.clear();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i].op;
    const bool pending = op.is_pending();
    const bool inserting = op.method == req.insert_method;
    if (op.object != req.object ||
        (!inserting && op.method != req.delete_method)) {
      if (!pending) return Fragment::kReject;
      continue;  // dropped
    }
    if (pending && !req.complete_pending) continue;  // dropped
    if (inserting) {
      if (op.arg.kind() != Value::Kind::kInt) {
        if (pending) continue;  // dropped
        return Fragment::kReject;
      }
      if (!pending && *op.ret != Value::boolean(true)) {
        return Fragment::kReject;
      }
      state[i].role = Role::kInsert;
      inserts.emplace_back(op.arg.as_int(), i);
      continue;
    }
    if (pending) return Fragment::kDecline;
    const Value& ret = *op.ret;
    if (ret.kind() != Value::Kind::kPair) return Fragment::kReject;
    if (ret.pair_ok()) {
      state[i].role = Role::kRemove;
      removals.push_back(i);
    } else if (empty_removals && ret.pair_int() == 0) {
      state[i].role = Role::kEmpty;
    } else {
      return Fragment::kReject;
    }
  }

  std::sort(inserts.begin(), inserts.end());
  for (const auto& [v, i] : inserts) {
    if (!slots.empty() && slots.back().value == v) return Fragment::kDecline;
    state[i].slot = static_cast<std::uint32_t>(slots.size());
    slots.push_back(ValueSlot{v, i, kNone});
  }
  for (const std::size_t r : removals) {
    const std::int64_t v = ops[r].op.ret->pair_int();
    auto it = std::lower_bound(
        slots.begin(), slots.end(), v,
        [](const ValueSlot& s, std::int64_t x) { return s.value < x; });
    if (it == slots.end() || it->value != v) return Fragment::kReject;
    if (it->rem != kNone) return Fragment::kReject;  // removed twice
    if (*ops[r].res_index < ops[it->ins].inv_index) {
      return Fragment::kReject;  // out before it was in
    }
    it->rem = r;
    state[r].slot = static_cast<std::uint32_t>(it - slots.begin());
  }
  for (const ValueSlot& s : slots) {
    if (s.rem == kNone && ops[s.ins].is_pending()) {
      state[s.ins].role = Role::kDropped;
    }
  }
  return Fragment::kIn;
}

// ===========================================================================
// Priority queue: per-value forced-presence zones.

/// A point on the action-index line refined by an epsilon coordinate:
/// base + eps·ε for an infinitesimal ε. Realizes "strictly inside an
/// (inv, res) interval" and "just before a resolution point" without real
/// arithmetic; compared lexicographically.
struct Pt {
  std::int64_t base = 0;
  std::int64_t eps = 0;

  friend constexpr auto operator<=>(const Pt&, const Pt&) = default;
};

constexpr Pt kInfPt{std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int64_t>::max()};

/// Disjoint, non-touching forced-presence zones [start, end) keyed by
/// start. Merging on insert keeps resolution a single lookup + bump.
class ZoneMap {
 public:
  void add(Pt s, Pt e, std::size_t& zones_built) {
    if (!(s < e)) return;  // the insert point dodges everything
    ++zones_built;
    // Absorb every zone overlapping or touching [s, e).
    auto it = zones_.upper_bound(s);
    if (it != zones_.begin() && std::prev(it)->second >= s) --it;
    while (it != zones_.end() && it->first <= e) {
      s = std::min(s, it->first);
      e = std::max(e, it->second);
      it = zones_.erase(it);
    }
    zones_.emplace(s, e);
  }

  /// Earliest point >= c outside every zone (zones are merged and
  /// non-touching, so one bump past the containing zone's end suffices).
  [[nodiscard]] Pt resolve(Pt c, std::size_t& bumps) const {
    auto it = zones_.upper_bound(c);
    if (it != zones_.begin()) {
      const auto& prev = *std::prev(it);
      if (prev.second > c) {
        ++bumps;
        return prev.second;
      }
    }
    return c;
  }

 private:
  std::map<Pt, Pt> zones_;
};

/// One witness event: a fired singleton, ordered by resolution point.
/// Inserts sort before removals at an equal point, empty removals after
/// both; removal ties break in ascending value order (legal: the smaller
/// value is the minimum when removed first).
struct Event {
  Pt key;
  int rank = 0;
  std::int64_t val = 0;
  LinearizedOp step;
};

}  // namespace

std::optional<OrderCheckOutcome> order_check_priority_queue(
    const std::vector<OpRecord>& ops, const OrderCheckRequest& req) {
  OrderCheckOutcome out;
  ScratchLease<OrderScratch> scratch;
  switch (classify(ops, req, /*empty_removals=*/true, *scratch)) {
    case Fragment::kDecline:
      return std::nullopt;
    case Fragment::kReject:
      return out;
    case Fragment::kIn:
      break;
  }
  auto reject = [&out]() -> std::optional<OrderCheckOutcome> {
    out.ok = false;
    out.linearization.clear();
    return out;
  };
  auto res_pt = [&ops](std::size_t i) {
    return ops[i].res_index
               ? Pt{static_cast<std::int64_t>(*ops[i].res_index), 0}
               : kInfPt;
  };

  // --- resolve removal points in ascending priority order -----------------
  ZoneMap zones;
  std::vector<Event> events;
  events.reserve(ops.size());
  for (const ValueSlot& s : scratch->slots) {
    ++out.values;
    if (s.rem == kNone) {
      if (ops[s.ins].res_index) {
        // Never removed: unavoidably present from its response on.
        zones.add(res_pt(s.ins), kInfPt, out.zones);
        events.push_back(Event{res_pt(s.ins), /*rank=*/0, s.value,
                               LinearizedOp{s.ins, *ops[s.ins].op.ret}});
      }
      continue;  // a dropped pending insert
    }
    const auto lo = static_cast<std::int64_t>(
        std::max(ops[s.ins].inv_index, ops[s.rem].inv_index));
    const Pt r = zones.resolve(Pt{lo, 1}, out.bumps);
    if (r >= res_pt(s.rem)) return reject();  // no admissible point left
    zones.add(res_pt(s.ins), r, out.zones);
    // Value::boolean(true) also completes a fired pending insert.
    events.push_back(Event{std::min(res_pt(s.ins), r), /*rank=*/0, s.value,
                           LinearizedOp{s.ins, Value::boolean(true)}});
    events.push_back(Event{r, /*rank=*/1, s.value,
                           LinearizedOp{s.rem, *ops[s.rem].op.ret}});
  }

  // --- empty removals: a zone-free point inside the interval --------------
  for (std::size_t e = 0; e < ops.size(); ++e) {
    if (scratch->state[e].role != Role::kEmpty) continue;
    const Pt r =
        zones.resolve(Pt{static_cast<std::int64_t>(ops[e].inv_index), 1},
                      out.bumps);
    if (r >= res_pt(e)) return reject();  // something is always present
    events.push_back(Event{r, /*rank=*/2,
                           static_cast<std::int64_t>(ops[e].inv_index),
                           LinearizedOp{e, *ops[e].op.ret}});
  }

  // --- witness: singletons in resolution order ----------------------------
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.key, a.rank, a.val) < std::tie(b.key, b.rank, b.val);
  });
  out.linearization.reserve(events.size());
  for (Event& e : events) out.linearization.push_back(std::move(e.step));
  out.ok = true;
  return out;
}

namespace {

// ===========================================================================
// Stack and queue: one sweep over the history's actions.

/// The container C and the open operations, advanced action by action.
/// Every step it takes is inside its operation's interval and on the
/// spec's own state, so the steps it emits are a witness by construction.
class CollectionSweep {
 public:
  CollectionSweep(const std::vector<OpRecord>& ops, OrderScratch& scratch,
                  bool lifo, std::vector<LinearizedOp>& out)
      : ops_(ops),
        state_(scratch.state),
        slots_(scratch.slots),
        lifo_(lifo),
        out_(out),
        c_(scratch.c),
        deadlines_(scratch.deadlines),
        order_{lifo},
        pairs_(scratch.pairs),
        open_empties_(scratch.open_empties),
        keepers_(scratch.keepers) {
    c_.clear();
    deadlines_.clear();
    pairs_.clear();
    open_empties_.clear();
    keepers_.clear();
  }

  void invoke(std::size_t i) {
    OpState& st = state_[i];
    st.phase = Phase::kOpen;
    if (st.role == Role::kEmpty) {
      open_empties_.push_back(i);
      return;
    }
    const ValueSlot& s = slots_[st.slot];
    if (st.role == Role::kRemove) {
      if (open(s.ins)) pairs_.push_back(st.slot);
    } else if (s.rem == kNone) {
      if (lifo_) keepers_.push_back(st.slot);
    } else {
      deadlines_.push_back(Deadline{*ops_[s.rem].res_index, st.slot});
      std::push_heap(deadlines_.begin(), deadlines_.end(), order_);
      if (open(s.rem)) pairs_.push_back(st.slot);
    }
  }

  /// The response of record i: forces it in if it is still open. False
  /// when the sweep is stuck.
  [[nodiscard]] bool respond(std::size_t i) {
    if (!open(i)) return true;
    const OpState& st = state_[i];
    switch (st.role) {
      case Role::kInsert:
        insert_at_response(st.slot);
        return true;
      case Role::kRemove:
        return remove_at_response(st.slot);
      default:
        return empty_at_response(i);
    }
  }

  /// The eager rules, applied after every action. None of E2–E4 enables
  /// E1 again (E4 tops a stack with values never removed), so one pass
  /// reaches the fixpoint.
  void settle() {
    // E1: the removal of the head (queue) / top (stack) value is open.
    while (!empty() && open_removal(front())) remove_front();
    // E3: an insert and the removal of its value are both open (a queue
    // only while C is empty, so the pair leaves C as it was).
    if (lifo_ || empty()) {
      for (const std::uint32_t v : pairs_) {
        if (open(slots_[v].ins) && open(slots_[v].rem)) {
          insert(v);
          remove_front();
        }
      }
      pairs_.clear();
    }
    // E2: while a queue is empty, every open empty dequeue.
    if (!lifo_ && empty()) {
      for (const std::size_t e : open_empties_) {
        if (open(e)) fire(e);
      }
      open_empties_.clear();
    }
    // E4: with nothing removable in a stack, the open inserts of values
    // never removed (on top of a removable value they would block it).
    if (lifo_ && removable_ == 0) {
      for (const std::uint32_t v : keepers_) {
        if (open(slots_[v].ins)) insert(v);
      }
      keepers_.clear();
    }
  }

 private:
  /// F1: the open inserts that must sit ahead of (queue) or below (stack)
  /// value v, in the order of their removals' responses, then v itself.
  /// Queue: the removed values whose removal responds before v's (every
  /// removed value when v never leaves). Stack: the removed values whose
  /// removal responds after v's (none when v never leaves). Either way,
  /// the heap entries that outrank v's own deadline, front first.
  void insert_at_response(std::uint32_t v) {
    const std::size_t rem = slots_[v].rem;
    const Deadline own{rem == kNone ? kNone : *ops_[rem].res_index, v};
    while (!deadlines_.empty() && order_(own, deadlines_.front())) {
      const std::uint32_t u = deadlines_.front().slot;
      std::pop_heap(deadlines_.begin(), deadlines_.end(), order_);
      deadlines_.pop_back();
      if (open(slots_[u].ins)) insert(u);  // else a stale entry
    }
    insert(v);
  }

  /// F2: the removal of v, after its insert (F1) and after removing every
  /// value ahead of / above it, each of whose removals must be open.
  [[nodiscard]] bool remove_at_response(std::uint32_t v) {
    if (open(slots_[v].ins)) insert_at_response(v);
    if (state_[slots_[v].ins].phase != Phase::kDone) return false;
    while (front() != v) {
      if (!open_removal(front())) return false;
      remove_front();
    }
    remove_front();
    return true;
  }

  /// F3: a queue's empty dequeue, after removing everything in C.
  [[nodiscard]] bool empty_at_response(std::size_t e) {
    while (!empty()) {
      if (!open_removal(front())) return false;
      remove_front();
    }
    fire(e);
    return true;
  }

  [[nodiscard]] bool open(std::size_t i) const {
    return state_[i].phase == Phase::kOpen;
  }
  [[nodiscard]] bool open_removal(std::uint32_t v) const {
    return slots_[v].rem != kNone && open(slots_[v].rem);
  }
  [[nodiscard]] bool empty() const { return head_ == c_.size(); }
  [[nodiscard]] std::uint32_t front() const {
    return lifo_ ? c_.back() : c_[head_];
  }

  /// Linearizes record i; a fired pending insert returns true.
  void fire(std::size_t i) {
    state_[i].phase = Phase::kDone;
    const std::optional<Value>& ret = ops_[i].op.ret;
    out_.push_back(LinearizedOp{i, ret ? *ret : Value::boolean(true)});
  }
  void insert(std::uint32_t v) {
    fire(slots_[v].ins);
    c_.push_back(v);
    if (slots_[v].rem != kNone) ++removable_;
  }
  /// Removes the head / top, whose removal is open.
  void remove_front() {
    fire(slots_[front()].rem);
    if (lifo_) {
      c_.pop_back();
    } else {
      ++head_;
    }
    --removable_;
  }

  const std::vector<OpRecord>& ops_;
  std::vector<OpState>& state_;
  const std::vector<ValueSlot>& slots_;
  const bool lifo_;
  std::vector<LinearizedOp>& out_;

  std::vector<std::uint32_t>& c_;  ///< C: stack top last, queue from head_
  std::size_t head_ = 0;           ///< queue head (a stack keeps 0)
  std::size_t removable_ = 0;      ///< values in C that are removed later
  std::vector<Deadline>& deadlines_;  ///< F1 heap, stale entries skipped
  const DeadlineOrder order_;
  std::vector<std::uint32_t>& pairs_;      ///< E3 candidates
  std::vector<std::size_t>& open_empties_;  ///< E2 candidates
  std::vector<std::uint32_t>& keepers_;    ///< E4 candidates
};

/// The order patterns every witness avoids, checked only once the sweep
/// is stuck (DESIGN.md proves each): LIFO and FIFO inversions, and a
/// queue's empty dequeue inside the union of forced-presence zones.
bool violates_order(const std::vector<OpRecord>& ops,
                    const std::vector<OpState>& state,
                    const std::vector<ValueSlot>& slots, bool lifo) {
  auto inv = [&ops](std::size_t i) { return ops[i].inv_index; };
  auto res = [&ops](std::size_t i) {
    return ops[i].res_index ? *ops[i].res_index : kNone;
  };
  if (lifo) {
    // ins(x) <_h ins(y) <_h rem(x), and y is never removed or
    // rem(x) <_h rem(y): y sits above x when x is popped. Quadratic, but
    // only here; the engine fallback costs more.
    for (const ValueSlot& x : slots) {
      if (x.rem == kNone) continue;
      for (const ValueSlot& y : slots) {
        if (res(x.ins) < inv(y.ins) && res(y.ins) < inv(x.rem) &&
            (y.rem == kNone || res(x.rem) < inv(y.rem))) {
          return true;
        }
      }
    }
    return false;
  }
  // Per completed insert x: (res(ins x), the point before which x is still
  // present — inv(rem x), ∞ when never removed). They are x's forced zone
  // in gap units, and, sorted by the first, the FIFO rule's input.
  std::vector<std::pair<std::size_t, std::size_t>> present;
  ZoneMap zones;
  std::size_t counted = 0;  // zone and bump counts: unreported here
  for (const ValueSlot& x : slots) {
    if (ops[x.ins].is_pending()) continue;
    present.emplace_back(res(x.ins), x.rem == kNone ? kNone : inv(x.rem));
    zones.add(Pt{static_cast<std::int64_t>(res(x.ins)), 0},
              x.rem == kNone ? kInfPt
                             : Pt{static_cast<std::int64_t>(inv(x.rem)), 0},
              counted);
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (state[i].role != Role::kEmpty) continue;
    const Pt from{static_cast<std::int64_t>(inv(i)), 0};
    if (zones.resolve(from, counted) >=
        Pt{static_cast<std::int64_t>(res(i)), 0}) {
      return true;
    }
  }
  std::sort(present.begin(), present.end());
  // FIFO: ins(x) <_h ins(y), y removed, and x is never removed or
  // rem(y) <_h rem(x). A prefix maximum answers each y in O(log n).
  for (std::size_t k = 1; k < present.size(); ++k) {
    present[k].second = std::max(present[k].second, present[k - 1].second);
  }
  for (const ValueSlot& y : slots) {
    if (y.rem == kNone) continue;
    auto x = std::lower_bound(present.begin(), present.end(),
                              std::make_pair(inv(y.ins), std::size_t{0}));
    if (x != present.begin() && std::prev(x)->second > res(y.rem)) {
      return true;
    }
  }
  return false;
}

std::optional<OrderCheckOutcome> order_check_collection(
    const std::vector<OpRecord>& ops, const OrderCheckRequest& req,
    bool lifo) {
  OrderCheckOutcome out;
  ScratchLease<OrderScratch> scratch;
  switch (classify(ops, req, /*empty_removals=*/!lifo, *scratch)) {
    case Fragment::kDecline:
      return std::nullopt;
    case Fragment::kReject:
      return out;
    case Fragment::kIn:
      break;
  }
  std::vector<OpState>& state = scratch->state;
  const std::vector<ValueSlot>& slots = scratch->slots;
  std::vector<SweepEvent>& events = scratch->events;
  events.clear();
  out.values = slots.size();

  // --- the sweep, action by action ----------------------------------------
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (state[i].role == Role::kDropped) continue;
    events.push_back(SweepEvent{ops[i].inv_index, i, false});
    if (ops[i].res_index) {
      events.push_back(SweepEvent{*ops[i].res_index, i, true});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const SweepEvent& a, const SweepEvent& b) {
              return a.at < b.at;
            });
  out.linearization.reserve(events.size());
  CollectionSweep sweep(ops, *scratch, lifo, out.linearization);
  for (const SweepEvent& e : events) {
    if (!e.response) {
      sweep.invoke(e.record);
    } else if (!sweep.respond(e.record)) {
      // Stuck on the forcing heuristic: reject only on a pattern every
      // witness violates, else decline.
      if (!violates_order(ops, state, slots, lifo)) return std::nullopt;
      out.linearization.clear();
      return out;
    }
    sweep.settle();
  }
  out.ok = true;
  return out;
}

}  // namespace

std::optional<OrderCheckOutcome> order_check_stack(
    const std::vector<OpRecord>& ops, const OrderCheckRequest& req) {
  return order_check_collection(ops, req, /*lifo=*/true);
}

std::optional<OrderCheckOutcome> order_check_queue(
    const std::vector<OpRecord>& ops, const OrderCheckRequest& req) {
  return order_check_collection(ops, req, /*lifo=*/false);
}

// ===========================================================================
// Exchanger and synchronous queue: one pairing sweep.

namespace {

constexpr std::uint32_t kNoEvent = std::numeric_limits<std::uint32_t>::max();

/// The pairing sweep's working buffers, leased per thread like
/// OrderScratch. Candidates live in flat arrays scanned in full: both stay
/// as small as the overlap width (a thread has at most one operation open
/// and at most one pending), where a scan beats any keyed structure.
struct PairingScratch {
  std::vector<PairShape> shape;       ///< per record
  std::vector<std::uint8_t> matched;  ///< per record: paired before its response
  std::vector<std::uint32_t> at;      ///< per action: record << 1 | response
  std::vector<std::uint32_t> open;    ///< invoked, unmatched kPaired records
  std::vector<std::uint32_t> pending;  ///< invoked, unused kPartner records
};

/// Removes position `k` of `v` (order is irrelevant to the scans).
void swap_remove(std::vector<std::uint32_t>& v, std::size_t k) {
  v[k] = v.back();
  v.pop_back();
}

}  // namespace

std::optional<OrderCheckOutcome> order_check_pairing(
    const std::vector<OpRecord>& ops, const PairingShapes& shapes,
    bool complete_pending) {
  using Kind = PairShape::Kind;
  OrderCheckOutcome out;
  ScratchLease<PairingScratch> lease;
  PairingScratch& s = *lease;

  // --- classify; lay the events out by action index -----------------------
  s.shape.resize(ops.size());
  s.matched.assign(ops.size(), 0);
  std::size_t n_actions = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    PairShape& sh = s.shape[i];
    sh = shapes.shape(ops[i].op);
    if (ops[i].is_pending()) {
      if (!complete_pending) sh.kind = Kind::kDropped;
      n_actions = std::max(n_actions, ops[i].inv_index + 1);
    } else {
      if (sh.kind == Kind::kReject) return out;
      if (sh.kind == Kind::kPaired) ++out.values;
      n_actions = std::max(n_actions, *ops[i].res_index + 1);
    }
  }
  s.at.assign(n_actions, kNoEvent);
  auto place = [&s](std::size_t at, std::uint32_t event) {
    if (s.at[at] != kNoEvent) return false;
    s.at[at] = event;
    return true;
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Kind kind = s.shape[i].kind;
    const auto r = static_cast<std::uint32_t>(i << 1);
    // Only candidates need their invocation; only completed operations
    // fire at a response.
    if ((kind == Kind::kPaired || kind == Kind::kPartner) &&
        !place(ops[i].inv_index, r)) {
      return std::nullopt;
    }
    if ((kind == Kind::kPaired || kind == Kind::kAlone) &&
        !place(*ops[i].res_index, r | 1)) {
      return std::nullopt;
    }
  }

  // --- the sweep -------------------------------------------------------------
  s.open.clear();
  s.pending.clear();
  out.linearization.reserve(ops.size());
  auto fire = [&](std::size_t i, Value ret, bool joins) {
    out.linearization.push_back(LinearizedOp{i, std::move(ret), joins});
  };
  for (const std::uint32_t e : s.at) {
    if (e == kNoEvent) continue;
    const std::size_t x = e >> 1;
    const PairShape& sx = s.shape[x];
    if ((e & 1) == 0) {
      (sx.kind == Kind::kPaired ? s.open : s.pending)
          .push_back(static_cast<std::uint32_t>(x));
      continue;
    }
    if (sx.kind == Kind::kAlone) {
      fire(x, *ops[x].op.ret, false);
      continue;
    }
    if (s.matched[x] != 0) continue;
    // x leaves the open set; its partner is the open mirror that responds
    // first.
    std::size_t self = kNone;
    std::size_t best = kNone;
    for (std::size_t k = 0; k < s.open.size(); ++k) {
      const std::uint32_t y = s.open[k];
      if (y == x) {
        self = k;
      } else if (s.shape[y].offer == sx.want && s.shape[y].want == sx.offer &&
                 (best == kNone ||
                  *ops[y].res_index < *ops[s.open[best]].res_index)) {
        best = k;
      }
    }
    if (best != kNone) {
      const std::uint32_t y = s.open[best];
      s.matched[y] = 1;
      swap_remove(s.open, std::max(self, best));
      swap_remove(s.open, std::min(self, best));
      fire(x, *ops[x].op.ret, false);
      fire(y, *ops[y].op.ret, true);
      continue;
    }
    swap_remove(s.open, self);
    // No completed partner: any invoked pending one of the mirrored
    // argument serves every later operation equally well.
    std::size_t p = 0;
    while (p < s.pending.size() &&
           !(s.shape[s.pending[p]].offer == sx.pending_want)) {
      ++p;
    }
    if (p == s.pending.size()) {
      out.linearization.clear();
      return out;
    }
    fire(x, *ops[x].op.ret, false);
    fire(s.pending[p], shapes.partner_return(ops[x].op), true);
    swap_remove(s.pending, p);
  }
  out.ok = true;
  return out;
}

}  // namespace cal::engine
