#include "cal/specs/stack_spec.hpp"

#include "cal/engine/order_checker.hpp"

namespace cal {

namespace {

const Symbol& push_sym() {
  static const Symbol s{"push"};
  return s;
}
const Symbol& pop_sym() {
  static const Symbol s{"pop"};
  return s;
}

/// Emits `result` unless a concrete expected return contradicts it.
void emit(std::vector<SeqStepResult>& out, const std::optional<Value>& want,
          SpecState next, Value ret) {
  if (want && *want != ret) return;
  out.push_back(SeqStepResult{std::move(next), std::move(ret)});
}

}  // namespace

std::vector<SeqStepResult> CentralStackSpec::step(
    const SpecState& state, ThreadId /*tid*/, Symbol object, Symbol method,
    const Value& arg, const std::optional<Value>& ret) const {
  if (object != object_) return {};
  std::vector<SeqStepResult> out;
  if (method == push_sym()) {
    if (arg.kind() != Value::Kind::kInt) return {};
    SpecState pushed = state;
    pushed.push_back(arg.as_int());
    emit(out, ret, std::move(pushed), Value::boolean(true));
    emit(out, ret, state, Value::boolean(false));  // lost CAS, no effect
  } else if (method == pop_sym()) {
    if (!state.empty()) {
      SpecState popped = state;
      popped.pop_back();
      emit(out, ret, std::move(popped), Value::pair(true, state.back()));
    }
    emit(out, ret, state, Value::pair(false, 0));  // empty or lost CAS
  }
  return out;
}

std::vector<SeqStepResult> StackSpec::step(
    const SpecState& state, ThreadId /*tid*/, Symbol object, Symbol method,
    const Value& arg, const std::optional<Value>& ret) const {
  if (object != object_) return {};
  std::vector<SeqStepResult> out;
  if (method == push_sym()) {
    if (arg.kind() != Value::Kind::kInt) return {};
    SpecState pushed = state;
    pushed.push_back(arg.as_int());
    emit(out, ret, std::move(pushed), Value::boolean(true));
  } else if (method == pop_sym()) {
    if (state.empty()) return {};  // pop blocks on empty (Fig. 2 loops)
    SpecState popped = state;
    popped.pop_back();
    emit(out, ret, std::move(popped), Value::pair(true, state.back()));
  }
  return out;
}

std::optional<OrderCheckOutcome> StackSpec::order_check(
    const std::vector<OpRecord>& ops, bool complete_pending) const {
  return engine::order_check_stack(
      ops, engine::OrderCheckRequest{object_, push_sym(), pop_sym(),
                                     complete_pending});
}

}  // namespace cal
