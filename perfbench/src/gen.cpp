#include "gen.hpp"

#include <algorithm>
#include <deque>

#include "cal/agree.hpp"
#include "cal/replay.hpp"

namespace perfbench {

using cal::Action;
using cal::CaTrace;
using cal::History;
using cal::Operation;
using cal::Symbol;
using cal::ThreadId;
using cal::Value;

namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

Operation op(Symbol obj, const char* method, Value arg, Value ret) {
  return Operation::make(0, obj, Symbol{method}, std::move(arg),
                         std::move(ret));
}

}  // namespace

Generated interleave(const Plan& plan, std::size_t width,
                     std::size_t quiesce_every, Rng& rng) {
  struct Open {
    ThreadId tid;
    Symbol object;
    Symbol method;
    Value ret;
  };
  Generated g;
  std::vector<Action> actions;
  std::vector<Open> open;
  // Two spare threads beyond the width keep an idle thread available for
  // every operation of the next element.
  std::vector<ThreadId> idle;
  for (std::size_t t = 1; t <= width + 2; ++t) {
    idle.push_back(static_cast<ThreadId>(t));
  }
  auto respond = [&](std::size_t i) {
    Open& o = open[i];
    actions.push_back(Action::respond(o.tid, o.object, o.method, o.ret));
    idle.push_back(o.tid);
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
  };
  auto respond_all = [&] {
    while (!open.empty()) respond(rng.below(open.size()));
    if (g.quiescent.empty() || g.quiescent.back() != actions.size()) {
      g.quiescent.push_back(actions.size());
    }
  };

  for (std::size_t k = 0; k < plan.size(); ++k) {
    const auto& elem = plan[k];
    while (!open.empty() && open.size() + elem.size() > width) {
      respond(rng.below(open.size()));
    }
    for (const Operation& o : elem) {
      const std::size_t pick = rng.below(idle.size());
      const ThreadId tid = idle[pick];
      idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(pick));
      actions.push_back(Action::invoke(tid, o.object, o.method, o.arg));
      open.push_back(Open{tid, o.object, o.method, *o.ret});
    }
    // Linearization point of element k: all its operations are open. Any
    // open operation (all are past their points) may now respond.
    for (std::size_t i = open.size(); i-- > 0;) {
      if (rng.chance(0.35)) respond(i);
    }
    if (quiesce_every != 0 && (k + 1) % quiesce_every == 0) respond_all();
  }
  respond_all();
  g.history = History{std::move(actions)};
  return g;
}

Plan plan_exchanger(Symbol obj, std::size_t elements, std::int64_t& next,
                    Rng& rng) {
  Plan plan;
  for (std::size_t k = 0; k < elements; ++k) {
    if (rng.chance(0.7)) {
      const std::int64_t a = next++;
      const std::int64_t b = next++;
      plan.push_back({op(obj, "exchange", iv(a), Value::pair(true, b)),
                      op(obj, "exchange", iv(b), Value::pair(true, a))});
    } else {
      const std::int64_t a = next++;
      plan.push_back({op(obj, "exchange", iv(a), Value::pair(false, a))});
    }
  }
  return plan;
}

Plan plan_sync_queue(Symbol obj, std::size_t elements, std::int64_t& next,
                     Rng& rng) {
  Plan plan;
  for (std::size_t k = 0; k < elements; ++k) {
    const std::uint64_t roll = rng.below(10);
    if (roll < 6) {
      const std::int64_t v = next++;
      plan.push_back({op(obj, "put", iv(v), Value::boolean(true)),
                      op(obj, "take", Value::unit(), Value::pair(true, v))});
    } else if (roll < 8) {
      plan.push_back({op(obj, "put", iv(next++), Value::boolean(false))});
    } else {
      plan.push_back(
          {op(obj, "take", Value::unit(), Value::pair(false, 0))});
    }
  }
  return plan;
}

Plan plan_stack(Symbol obj, std::size_t elements, std::size_t bound,
                std::int64_t& next, Rng& rng) {
  Plan plan;
  std::vector<std::int64_t> stack;
  for (std::size_t k = 0; k < elements; ++k) {
    if (stack.empty() || (stack.size() < bound && rng.chance(0.5))) {
      stack.push_back(next++);
      plan.push_back({op(obj, "push", iv(stack.back()), Value::boolean(true))});
    } else {
      plan.push_back(
          {op(obj, "pop", Value::unit(), Value::pair(true, stack.back()))});
      stack.pop_back();
    }
  }
  return plan;
}

Plan plan_queue(Symbol obj, std::size_t elements, std::size_t bound,
                std::int64_t& next, Rng& rng) {
  Plan plan;
  std::deque<std::int64_t> queue;
  for (std::size_t k = 0; k < elements; ++k) {
    const bool enq =
        queue.size() < bound && (queue.empty() ? rng.chance(0.85)
                                               : rng.chance(0.5));
    if (enq) {
      queue.push_back(next++);
      plan.push_back({op(obj, "enq", iv(queue.back()), Value::boolean(true))});
    } else if (queue.empty()) {
      plan.push_back({op(obj, "deq", Value::unit(), Value::pair(false, 0))});
    } else {
      plan.push_back(
          {op(obj, "deq", Value::unit(), Value::pair(true, queue.front()))});
      queue.pop_front();
    }
  }
  return plan;
}

Plan plan_pq(Symbol obj, std::size_t elements, std::int64_t& next, Rng& rng) {
  Plan plan;
  std::vector<std::int64_t> stored;  // ascending
  for (std::size_t k = 0; k < elements; ++k) {
    if (stored.empty() || rng.chance(0.55)) {
      // Distinct values in a shuffled order: fresh, then scrambled into a
      // range the other plans never reach.
      const std::int64_t v = 1000000 + (next++ * 7919) % 999983;
      stored.insert(std::lower_bound(stored.begin(), stored.end(), v), v);
      plan.push_back({op(obj, "insert", iv(v), Value::boolean(true))});
    } else {
      plan.push_back({op(obj, "deleteMin", Value::unit(),
                         Value::pair(true, stored.front()))});
      stored.erase(stored.begin());
    }
  }
  return plan;
}

bool mutate_impossible(History& history, Rng& rng) {
  std::vector<Action> actions = history.actions();
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].is_respond() &&
        actions[i].payload.kind() == Value::Kind::kPair) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) return false;
  // One of the last few: the search must fail late, after exploring most
  // of the history, so rejection exercises exhaustion.
  const std::size_t back = rng.below(std::min<std::size_t>(3, candidates.size()));
  actions[candidates[candidates.size() - 1 - back]].payload =
      Value::pair(true, kImpossible);
  history = History{std::move(actions)};
  return true;
}

std::optional<std::string> verify_witness(const History& history,
                                          const CaTrace& witness,
                                          const cal::CaSpec& spec) {
  const cal::ReplayResult replay = cal::replay_ca(witness, spec);
  if (!replay.ok) return "witness not in the trace-set: " + replay.reason;
  const cal::AgreeResult agree = cal::agrees_with(history, witness);
  if (!agree.agrees) return "history does not agree: " + agree.reason;
  return std::nullopt;
}

std::optional<std::string> verify_witness_segmented(
    const History& history, const std::vector<std::size_t>& quiescent,
    const CaTrace& witness, const cal::CaSpec& spec) {
  const cal::ReplayResult replay = cal::replay_ca(witness, spec);
  if (!replay.ok) return "witness not in the trace-set: " + replay.reason;
  const auto& actions = history.actions();
  const auto& elems = witness.elements();
  std::size_t begin = 0;
  std::size_t pos = 0;  // next witness element
  for (const std::size_t end : quiescent) {
    std::vector<Action> seg(actions.begin() + static_cast<std::ptrdiff_t>(begin),
                            actions.begin() + static_cast<std::ptrdiff_t>(end));
    const auto ops = static_cast<std::size_t>(
        std::count_if(seg.begin(), seg.end(),
                      [](const Action& a) { return a.is_invoke(); }));
    std::vector<cal::CaElement> part;
    std::size_t covered = 0;
    while (covered < ops && pos < elems.size()) {
      covered += elems[pos].size();
      part.push_back(elems[pos++]);
    }
    if (covered != ops) {
      return "witness does not split at the quiescent cut at action " +
             std::to_string(end);
    }
    const cal::AgreeResult agree =
        cal::agrees_with(History{std::move(seg)}, CaTrace{std::move(part)});
    if (!agree.agrees) {
      return "segment ending at action " + std::to_string(end) +
             " does not agree: " + agree.reason;
    }
    begin = end;
  }
  if (pos != elems.size()) return "witness has elements beyond the history";
  return std::nullopt;
}

}  // namespace perfbench
