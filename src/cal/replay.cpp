#include "cal/replay.hpp"

namespace cal {

ReplayResult replay_ca(const CaTrace& trace, const CaSpec& spec) {
  ReplayResult result;
  // Depth-first over the spec's successors, on an explicit stack: a
  // recursive walk is as deep as the trace is long.
  struct Frame {
    std::vector<CaStepResult> steps;  ///< successors reproducing the element
    std::size_t next = 0;             ///< next one to try
  };
  std::vector<Frame> stack;
  // Enters `state` after the first stack.size() elements; true once the
  // whole trace is consumed.
  const auto enter = [&](const SpecState& state) {
    const std::size_t k = stack.size();
    if (k == trace.size()) {
      result.ok = true;
      result.final_state = state;
      return true;
    }
    const CaElement& elem = trace[k];
    std::vector<CaStepResult> steps =
        spec.step(state, elem.object(), elem.ops());
    // The spec may fill in different returns than the trace recorded.
    std::erase_if(steps,
                  [&](const CaStepResult& sr) { return sr.element != elem; });
    if (steps.empty() && result.failed_at <= k) {
      result.failed_at = k;
      result.reason = "element not admissible: " + elem.to_string();
    }
    stack.push_back(Frame{std::move(steps)});
    return false;
  };
  if (enter(spec.initial())) return result;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next == frame.steps.size()) {
      stack.pop_back();
      continue;
    }
    if (enter(frame.steps[frame.next++].next)) return result;
  }
  return result;
}

ReplayResult replay_sequential(const CaTrace& trace,
                               const SequentialSpec& spec) {
  ReplayResult result;
  SpecState state = spec.initial();
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const CaElement& elem = trace[k];
    if (elem.size() != 1) {
      result.failed_at = k;
      result.reason = "non-singleton element in a sequential trace";
      return result;
    }
    const Operation& op = elem.ops().front();
    if (op.is_pending()) {
      result.failed_at = k;
      result.reason = "pending operation in a sequential trace";
      return result;
    }
    bool stepped = false;
    for (SeqStepResult& sr :
         spec.step(state, op.tid, op.object, op.method, op.arg, op.ret)) {
      if (sr.ret == *op.ret) {
        state = std::move(sr.next);
        stepped = true;
        break;
      }
    }
    if (!stepped) {
      result.failed_at = k;
      result.reason = "operation not admissible: " + op.to_string();
      return result;
    }
  }
  result.ok = true;
  result.final_state = std::move(state);
  return result;
}

}  // namespace cal
