#include "cal/specs/exchanger_spec.hpp"

#include "cal/engine/order_checker.hpp"

namespace cal {

namespace {

/// True iff `op` could be (or is) the failed exchange (t, ex(v) ▷ (false,v)).
bool admits_failure(const Operation& op) {
  if (op.arg.kind() != Value::Kind::kInt) return false;
  if (!op.ret) return true;  // pending: may be completed as a failure
  return op.ret->kind() == Value::Kind::kPair && !op.ret->pair_ok() &&
         op.ret->pair_int() == op.arg.as_int();
}

/// True iff `op` could be one half of a successful swap receiving `got`.
bool admits_success(const Operation& op, std::int64_t got) {
  if (op.arg.kind() != Value::Kind::kInt) return false;
  if (!op.ret) return true;
  return op.ret->kind() == Value::Kind::kPair && op.ret->pair_ok() &&
         op.ret->pair_int() == got;
}

}  // namespace

bool ExchangerSpec::compatible(Symbol object,
                               const std::vector<Operation>& ops) const {
  if (object != object_ || ops.size() > 2 || ops.empty()) return false;
  for (const Operation& op : ops) {
    if (op.method != method_ || op.arg.kind() != Value::Kind::kInt) {
      return false;
    }
    if (op.ret) {
      if (op.ret->kind() != Value::Kind::kPair) return false;
      // A concrete failure must echo the thread's own offer; no element —
      // singleton or pair — admits any other failed shape.
      if (!op.ret->pair_ok() && op.ret->pair_int() != op.arg.as_int()) {
        return false;
      }
    }
  }
  if (ops.size() == 2) {
    const Operation& a = ops[0];
    const Operation& b = ops[1];
    return a.tid != b.tid && admits_success(a, b.arg.as_int()) &&
           admits_success(b, a.arg.as_int());
  }
  // A lone operation may still pair with a later candidate, so only the
  // per-operation shape checks above apply.
  return true;
}

std::uint64_t ExchangerSpec::symmetry_class(Symbol object,
                                            const Operation& op) const {
  if (object != object_ || op.method != method_) return 0;
  if (!op.ret || op.arg.kind() != Value::Kind::kInt) return 0;
  const bool failed = op.ret->kind() == Value::Kind::kPair &&
                      !op.ret->pair_ok() &&
                      op.ret->pair_int() == op.arg.as_int();
  return failed ? 1 : 0;
}

std::vector<CaStepResult> ExchangerSpec::step(
    const SpecState& state, Symbol object,
    const std::vector<Operation>& ops) const {
  if (object != object_) return {};
  for (const Operation& op : ops) {
    if (op.method != method_) return {};
  }

  std::vector<CaStepResult> out;
  if (ops.size() == 1) {
    const Operation& op = ops.front();
    if (!admits_failure(op)) return {};
    Operation completed = op;
    completed.ret = Value::pair(false, op.arg.as_int());
    out.push_back(
        CaStepResult{state, CaElement::singleton(object_, completed)});
  } else if (ops.size() == 2) {
    const Operation& a = ops[0];
    const Operation& b = ops[1];
    if (a.tid == b.tid) return {};
    if (!admits_success(a, b.arg.as_int()) ||
        !admits_success(b, a.arg.as_int())) {
      return {};
    }
    Operation ca = a;
    Operation cb = b;
    ca.ret = Value::pair(true, b.arg.as_int());
    cb.ret = Value::pair(true, a.arg.as_int());
    out.push_back(CaStepResult{
        state, CaElement(object_, {std::move(ca), std::move(cb)})});
  }
  return out;
}

namespace {

/// The exchanger's shapes for the pairing sweep: ex(a) ▷ (true,b) offers a
/// and wants b; a pending ex(c) can stand in for any partner wanting c.
class ExchangerShapes final : public engine::PairingShapes {
 public:
  ExchangerShapes(Symbol object, Symbol method)
      : object_(object), method_(method) {}

  [[nodiscard]] engine::PairShape shape(const Operation& op) const override {
    using Kind = engine::PairShape::Kind;
    engine::PairShape s;
    const bool ours = op.object == object_ && op.method == method_ &&
                      op.arg.kind() == Value::Kind::kInt;
    if (op.is_pending()) {
      if (ours) {
        s.kind = Kind::kPartner;
        s.offer.value = op.arg.as_int();
      }
      return s;
    }
    s.kind = Kind::kReject;
    if (!ours || op.ret->kind() != Value::Kind::kPair) return s;
    if (!op.ret->pair_ok()) {
      if (admits_failure(op)) s.kind = Kind::kAlone;
      return s;
    }
    s.kind = Kind::kPaired;
    s.offer.value = op.arg.as_int();
    s.want.value = op.ret->pair_int();
    s.pending_want = s.want;
    return s;
  }

  [[nodiscard]] Value partner_return(const Operation& x) const override {
    return Value::pair(true, x.arg.as_int());
  }

 private:
  Symbol object_;
  Symbol method_;
};

}  // namespace

ExchangerSpec::ExchangerSpec(Symbol object, Symbol method)
    : object_(object),
      method_(method),
      shapes_(std::make_shared<ExchangerShapes>(object, method)) {}

std::optional<OrderCheckOutcome> ExchangerSpec::order_check(
    const std::vector<OpRecord>& ops, bool complete_pending) const {
  return engine::order_check_pairing(ops, *shapes_, complete_pending);
}

}  // namespace cal
