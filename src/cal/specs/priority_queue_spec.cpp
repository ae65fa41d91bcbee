#include "cal/specs/priority_queue_spec.hpp"

#include <algorithm>

#include "cal/engine/order_checker.hpp"

namespace cal {

namespace {

const Symbol& insert_symbol() {
  static const Symbol s{"insert"};
  return s;
}

const Symbol& delete_min_symbol() {
  static const Symbol s{"deleteMin"};
  return s;
}

void emit(std::vector<SeqStepResult>& out, const std::optional<Value>& want,
          SpecState next, Value ret) {
  if (want && *want != ret) return;
  out.push_back(SeqStepResult{std::move(next), std::move(ret)});
}

}  // namespace

std::vector<SeqStepResult> PriorityQueueSpec::step(
    const SpecState& state, ThreadId /*tid*/, Symbol object, Symbol method,
    const Value& arg, const std::optional<Value>& ret) const {
  if (object != object_) return {};
  std::vector<SeqStepResult> out;
  if (method == insert_symbol()) {
    if (arg.kind() != Value::Kind::kInt) return {};
    SpecState next = state;
    next.insert(std::upper_bound(next.begin(), next.end(), arg.as_int()),
                arg.as_int());
    emit(out, ret, std::move(next), Value::boolean(true));
  } else if (method == delete_min_symbol()) {
    if (state.empty()) {
      emit(out, ret, state, Value::pair(false, 0));
    } else {
      SpecState next(state.begin() + 1, state.end());
      emit(out, ret, std::move(next), Value::pair(true, state.front()));
    }
  }
  return out;
}

std::optional<OrderCheckOutcome> PriorityQueueSpec::order_check(
    const std::vector<OpRecord>& ops, bool complete_pending) const {
  return engine::order_check_priority_queue(
      ops, engine::OrderCheckRequest{object_, insert_symbol(),
                                     delete_min_symbol(), complete_pending});
}

std::uint64_t PriorityQueueCaSpec::symmetry_class(
    Symbol object, const Operation& op) const {
  if (object != object_ || op.is_pending()) return 0;
  std::uint64_t h = op.method.id();
  h = h * 0x9e3779b97f4a7c15ull + op.arg.hash();
  h = h * 0x9e3779b97f4a7c15ull + op.ret->hash();
  return h | (1ull << 63);  // nonzero: 0 means "never merged"
}

}  // namespace cal
