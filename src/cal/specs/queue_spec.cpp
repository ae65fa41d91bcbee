#include "cal/specs/queue_spec.hpp"

#include <algorithm>

#include "cal/engine/order_checker.hpp"

namespace cal {

namespace {

const Symbol& enq_sym() {
  static const Symbol s{"enq"};
  return s;
}
const Symbol& deq_sym() {
  static const Symbol s{"deq"};
  return s;
}

void emit(std::vector<SeqStepResult>& out, const std::optional<Value>& want,
          SpecState next, Value ret) {
  if (want && *want != ret) return;
  out.push_back(SeqStepResult{std::move(next), std::move(ret)});
}

}  // namespace

std::vector<SeqStepResult> QueueSpec::step(
    const SpecState& state, ThreadId /*tid*/, Symbol object, Symbol method,
    const Value& arg, const std::optional<Value>& ret) const {
  if (object != object_) return {};
  std::vector<SeqStepResult> out;
  if (method == enq_sym()) {
    if (arg.kind() != Value::Kind::kInt) return {};
    SpecState next = state;
    next.push_back(arg.as_int());
    emit(out, ret, std::move(next), Value::boolean(true));
  } else if (method == deq_sym()) {
    if (state.empty()) {
      emit(out, ret, state, Value::pair(false, 0));
    } else {
      SpecState next(state.begin() + 1, state.end());
      emit(out, ret, std::move(next), Value::pair(true, state.front()));
    }
  }
  return out;
}

std::optional<OrderCheckOutcome> QueueSpec::order_check(
    const std::vector<OpRecord>& ops, bool complete_pending) const {
  return engine::order_check_queue(
      ops, engine::OrderCheckRequest{object_, enq_sym(), deq_sym(),
                                     complete_pending});
}

std::vector<SeqStepResult> RegisterSpec::step(
    const SpecState& state, ThreadId /*tid*/, Symbol object, Symbol method,
    const Value& arg, const std::optional<Value>& ret) const {
  static const Symbol kRead{"read"};
  static const Symbol kWrite{"write"};
  if (object != object_) return {};
  std::vector<SeqStepResult> out;
  if (method == kWrite) {
    if (arg.kind() != Value::Kind::kInt) return {};
    emit(out, ret, SpecState{arg.as_int()}, Value::unit());
  } else if (method == kRead) {
    emit(out, ret, state, Value::integer(state.front()));
  }
  return out;
}

}  // namespace cal
