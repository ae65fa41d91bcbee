#include "cal/specs/sync_queue_spec.hpp"

#include <algorithm>

#include "cal/engine/order_checker.hpp"

namespace cal {

namespace {

const Symbol& put_sym() {
  static const Symbol s{"put"};
  return s;
}
const Symbol& take_sym() {
  static const Symbol s{"take"};
  return s;
}

bool put_admits(const Operation& op, bool paired) {
  if (op.method != put_sym() || op.arg.kind() != Value::Kind::kInt) {
    return false;
  }
  if (!op.ret) return true;
  return op.ret->kind() == Value::Kind::kBool && op.ret->as_bool() == paired;
}

bool take_admits(const Operation& op, const std::optional<std::int64_t>& got) {
  if (op.method != take_sym() || !op.arg.is_unit()) return false;
  if (!op.ret) return true;
  if (op.ret->kind() != Value::Kind::kPair) return false;
  if (got) return op.ret->pair_ok() && op.ret->pair_int() == *got;
  return !op.ret->pair_ok() && op.ret->pair_int() == 0;
}

}  // namespace

bool SyncQueueSpec::compatible(Symbol object,
                               const std::vector<Operation>& ops) const {
  if (object != object_ || ops.size() > 2 || ops.empty()) return false;
  for (const Operation& op : ops) {
    if (op.method == put_sym()) {
      if (!put_admits(op, false) && !put_admits(op, true)) return false;
    } else if (op.method == take_sym()) {
      if (!take_admits(op, std::nullopt) &&
          !(op.ret && op.ret->kind() == Value::Kind::kPair &&
            op.ret->pair_ok())) {
        return false;
      }
    } else {
      return false;
    }
  }
  if (ops.size() == 2) {
    const Operation* put = nullptr;
    const Operation* take = nullptr;
    for (const Operation& op : ops) {
      if (op.method == put_sym()) put = &op;
      if (op.method == take_sym()) take = &op;
    }
    return put != nullptr && take != nullptr && put->tid != take->tid &&
           put_admits(*put, /*paired=*/true) &&
           take_admits(*take, put->arg.as_int());
  }
  return true;
}

std::vector<CaStepResult> SyncQueueSpec::step(
    const SpecState& state, Symbol object,
    const std::vector<Operation>& ops) const {
  if (object != object_) return {};
  std::vector<CaStepResult> out;
  if (ops.size() == 1) {
    const Operation& op = ops.front();
    if (put_admits(op, /*paired=*/false)) {
      Operation c = op;
      c.ret = Value::boolean(false);
      out.push_back(CaStepResult{state, CaElement::singleton(object_, c)});
    }
    if (take_admits(op, std::nullopt)) {
      Operation c = op;
      c.ret = Value::pair(false, 0);
      out.push_back(CaStepResult{state, CaElement::singleton(object_, c)});
    }
  } else if (ops.size() == 2) {
    // Exactly one put and one take, by different threads.
    const Operation* put = nullptr;
    const Operation* take = nullptr;
    for (const Operation& op : ops) {
      if (op.method == put_sym()) put = &op;
      if (op.method == take_sym()) take = &op;
    }
    if (put == nullptr || take == nullptr || put->tid == take->tid) return {};
    if (!put_admits(*put, /*paired=*/true) ||
        !take_admits(*take, put->arg.as_int())) {
      return {};
    }
    Operation cp = *put;
    Operation ct = *take;
    cp.ret = Value::boolean(true);
    ct.ret = Value::pair(true, put->arg.as_int());
    out.push_back(CaStepResult{
        state, CaElement(object_, {std::move(cp), std::move(ct)})});
  }
  return out;
}

namespace {

/// The sync queue's shapes for the pairing sweep: put(v) ▷ true offers v
/// on the put side and wants it on the take side, take() ▷ (true,v) the
/// reverse. A pending put(v) can stand in for a take that got v, and a
/// pending take (side 1, no value) for any successful put.
class SyncQueueShapes final : public engine::PairingShapes {
 public:
  explicit SyncQueueShapes(Symbol object) : object_(object) {}

  [[nodiscard]] engine::PairShape shape(const Operation& op) const override {
    using Kind = engine::PairShape::Kind;
    constexpr std::int64_t kPut = 0;
    constexpr std::int64_t kTake = 1;
    engine::PairShape s;
    const bool put = op.method == put_sym();
    const bool ours =
        op.object == object_ &&
        (put ? op.arg.kind() == Value::Kind::kInt
             : op.method == take_sym() && op.arg.is_unit());
    if (op.is_pending()) {
      if (ours) {
        s.kind = Kind::kPartner;
        s.offer = put ? engine::PairShape::Key{op.arg.as_int(), kPut}
                      : engine::PairShape::Key{0, kTake};
      }
      return s;
    }
    s.kind = Kind::kReject;
    if (!ours) return s;
    if (put_admits(op, /*paired=*/false) ||
        take_admits(op, std::nullopt)) {
      s.kind = Kind::kAlone;
      return s;
    }
    if (put && put_admits(op, /*paired=*/true)) {
      s.kind = Kind::kPaired;
      s.offer = {op.arg.as_int(), kPut};
      s.want = {op.arg.as_int(), kTake};
      s.pending_want = {0, kTake};
    } else if (!put && op.ret->kind() == Value::Kind::kPair &&
               op.ret->pair_ok()) {
      s.kind = Kind::kPaired;
      s.offer = {op.ret->pair_int(), kTake};
      s.want = {op.ret->pair_int(), kPut};
      s.pending_want = s.want;
    }
    return s;
  }

  [[nodiscard]] Value partner_return(const Operation& x) const override {
    return x.method == put_sym() ? Value::pair(true, x.arg.as_int())
                                 : Value::boolean(true);
  }

 private:
  Symbol object_;
};

}  // namespace

std::optional<OrderCheckOutcome> SyncQueueSpec::order_check(
    const std::vector<OpRecord>& ops, bool complete_pending) const {
  return engine::order_check_pairing(ops, SyncQueueShapes(object_),
                                     complete_pending);
}

namespace {

/// Enumerates all consistent completions of one round's closings:
/// pairings between closing puts and closing takes, plus unpaired failures.
void enumerate_closings(
    const std::vector<std::size_t>& closing_puts,
    const std::vector<std::size_t>& closing_takes,
    const std::vector<IntervalOpRef>& participants, std::size_t pi,
    std::vector<bool>& take_used,
    std::vector<std::optional<Value>>& returns,
    std::vector<IntervalRoundResult>& out) {
  if (pi == closing_puts.size()) {
    // Remaining closing takes fail (or match their concrete failure ret).
    std::vector<std::optional<Value>> final_returns = returns;
    for (std::size_t k = 0; k < closing_takes.size(); ++k) {
      if (take_used[k]) continue;
      const Operation& op = participants[closing_takes[k]].op;
      if (!take_admits(op, std::nullopt)) return;
      final_returns[closing_takes[k]] = Value::pair(false, 0);
    }
    out.push_back(IntervalRoundResult{{}, std::move(final_returns)});
    return;
  }

  const std::size_t p = closing_puts[pi];
  const Operation& put = participants[p].op;
  // Option 1: this put fails.
  if (put_admits(put, /*paired=*/false)) {
    returns[p] = Value::boolean(false);
    enumerate_closings(closing_puts, closing_takes, participants, pi + 1,
                       take_used, returns, out);
    returns[p].reset();
  }
  // Option 2: pair with some unused closing take of another thread.
  if (put_admits(put, /*paired=*/true)) {
    for (std::size_t k = 0; k < closing_takes.size(); ++k) {
      if (take_used[k]) continue;
      const std::size_t tix = closing_takes[k];
      const Operation& take = participants[tix].op;
      if (take.tid == put.tid) continue;
      if (!take_admits(take, put.arg.as_int())) continue;
      take_used[k] = true;
      returns[p] = Value::boolean(true);
      returns[tix] = Value::pair(true, put.arg.as_int());
      enumerate_closings(closing_puts, closing_takes, participants, pi + 1,
                         take_used, returns, out);
      returns[tix].reset();
      returns[p].reset();
      take_used[k] = false;
    }
  }
}

}  // namespace

std::vector<IntervalRoundResult> SyncQueueIntervalSpec::round(
    const SpecState& /*state*/, Symbol object,
    const std::vector<IntervalOpRef>& participants) const {
  if (object != object_) return {};
  std::vector<std::size_t> closing_puts;
  std::vector<std::size_t> closing_takes;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const IntervalOpRef& ref = participants[i];
    if (ref.op.method != put_sym() && ref.op.method != take_sym()) return {};
    if (!ref.ends) continue;
    if (ref.op.method == put_sym()) {
      closing_puts.push_back(i);
    } else {
      closing_takes.push_back(i);
    }
  }
  std::vector<IntervalRoundResult> out;
  std::vector<bool> take_used(closing_takes.size(), false);
  std::vector<std::optional<Value>> returns(participants.size());
  enumerate_closings(closing_puts, closing_takes, participants, 0, take_used,
                     returns, out);
  return out;
}

}  // namespace cal
