// Experiment T-PQ — the polynomial order checkers vs the generic engine on
// priority-queue, stack and queue histories as overlap width grows.
//
// The workload is the adversarial shape for subset enumeration: w inserts
// with distinct values, all mutually concurrent, followed by w deleteMins,
// again all mutually concurrent. The engine's search is exponential in w
// (distinct values defeat the symmetry reduction), while the order checker
// resolves the same instance with one greedy ascending sweep — so the
// series below cross from "≥10× at the largest width the engine can take"
// to "milliseconds at widths the engine cannot finish at any budget".
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include <memory>

#include "cal/cal_checker.hpp"
#include "cal/history.hpp"
#include "cal/specs/priority_queue_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"

namespace {

using namespace cal;  // NOLINT: bench file

const Symbol kP{"P"};
const Symbol kInsert{"insert"};
const Symbol kDeleteMin{"deleteMin"};

/// The adversarial accept instance: w inserts of 0..w-1 all stay open
/// while a sequential run of w deleteMins returns the values in
/// DESCENDING order; the inserts respond only afterwards. Linearizable —
/// insert(w-1-k) linearizes just before the k-th removal — but the DFS
/// must discover that each removal admits exactly one insert subset
/// (fire only the yet-largest value), so its natural insertion orders all
/// dead-end deep: visited states grow exponentially in w even though the
/// verdict is "yes". The order checker resolves the same instance with
/// one ascending sweep.
History stair_pq_history(std::size_t width) {
  History h;
  for (std::size_t i = 0; i < width; ++i) {
    h.invoke(static_cast<ThreadId>(i + 1), kP, kInsert,
             Value::integer(static_cast<std::int64_t>(i)));
  }
  const auto remover = static_cast<ThreadId>(width + 1);
  for (std::size_t i = 0; i < width; ++i) {
    h.invoke(remover, kP, kDeleteMin);
    h.respond(remover, kP, kDeleteMin,
              Value::pair(true, static_cast<std::int64_t>(width - 1 - i)));
  }
  for (std::size_t i = 0; i < width; ++i) {
    h.respond(static_cast<ThreadId>(i + 1), kP, kInsert,
              Value::boolean(true));
  }
  return h;
}

/// w fully-overlapping inserts of 0..w-1, then w fully-overlapping
/// deleteMins returning the values in ascending order. Linearizable, and
/// every operation overlaps every other in its phase — the shape that
/// exercises the order checker's forced zones (one per matched value).
History wide_pq_history(std::size_t width) {
  History h;
  for (std::size_t i = 0; i < width; ++i) {
    h.invoke(static_cast<ThreadId>(i + 1), kP, kInsert,
             Value::integer(static_cast<std::int64_t>(i)));
  }
  for (std::size_t i = 0; i < width; ++i) {
    h.respond(static_cast<ThreadId>(i + 1), kP, kInsert,
              Value::boolean(true));
  }
  for (std::size_t i = 0; i < width; ++i) {
    h.invoke(static_cast<ThreadId>(i + 1), kP, kDeleteMin);
  }
  for (std::size_t i = 0; i < width; ++i) {
    h.respond(static_cast<ThreadId>(i + 1), kP, kDeleteMin,
              Value::pair(true, static_cast<std::int64_t>(i)));
  }
  return h;
}

/// Same instance with the last removal returning a never-inserted value:
/// the rejection case, where the engine must exhaust its search space.
History wide_pq_history_bad(std::size_t width) {
  std::vector<Action> actions = wide_pq_history(width).actions();
  actions.back().payload = Value::pair(true, 999999);
  return History(std::move(actions));
}

void record_order(benchmark::State& state, const CalCheckResult& r) {
  state.counters["order_checked"] = r.order_checked ? 1.0 : 0.0;
  state.counters["values"] = static_cast<double>(r.order_values);
  state.counters["zones"] = static_cast<double>(r.order_zones);
  state.counters["bumps"] = static_cast<double>(r.order_bumps);
}

/// Headline series: the spec-specialized polynomial path on the
/// staircase instances. Widths run far past anything the engine can
/// enumerate; each check is a sort plus a linear sweep over a merged
/// interval map.
void BM_PqChecker_Width(benchmark::State& state) {
  const History h = stair_pq_history(static_cast<std::size_t>(state.range(0)));
  PriorityQueueCaSpec spec(kP);
  CalChecker checker(spec);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  record_order(state, r);
}
BENCHMARK(BM_PqChecker_Width)
    ->ArgName("width")
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(10000);

/// Order path on the fully-overlapping family: every matched value builds
/// a forced-presence zone, so this series charts the interval-map cost
/// (counters: values == zones == width).
void BM_PqChecker_Width_Overlap(benchmark::State& state) {
  const History h = wide_pq_history(static_cast<std::size_t>(state.range(0)));
  PriorityQueueCaSpec spec(kP);
  CalChecker checker(spec);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  record_order(state, r);
}
BENCHMARK(BM_PqChecker_Width_Overlap)
    ->ArgName("width")
    ->Arg(8)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(10000);

/// Rejection on the order path: same sweep cost — no exhaustion penalty,
/// unlike the engine, for which rejection is the worst case.
void BM_PqChecker_Width_Reject(benchmark::State& state) {
  const History h =
      wide_pq_history_bad(static_cast<std::size_t>(state.range(0)));
  PriorityQueueCaSpec spec(kP);
  CalChecker checker(spec);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  record_order(state, r);
}
BENCHMARK(BM_PqChecker_Width_Reject)
    ->ArgName("width")
    ->Arg(8)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(10000);

/// The generic engine on the same staircase instances (--no-order-check
/// path). The visited set grows exponentially in the width; widths stop
/// where a Release build still finishes a repetition in reasonable time.
/// The speedup claim is order vs engine at the largest width listed here.
void BM_PqChecker_Width_Engine(benchmark::State& state) {
  const History h = stair_pq_history(static_cast<std::size_t>(state.range(0)));
  PriorityQueueCaSpec spec(kP);
  CalCheckOptions opts;
  opts.order_check = false;
  CalChecker checker(spec, opts);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  state.counters["visited"] = static_cast<double>(r.visited_states);
  state.counters["order_checked"] = r.order_checked ? 1.0 : 0.0;
}
BENCHMARK(BM_PqChecker_Width_Engine)
    ->ArgName("width")
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(12)
    ->Arg(14)
    ->Unit(benchmark::kMillisecond);

/// Engine rejection: full exhaustion of the search space, the honest
/// baseline for the order path's constant-shape rejection cost.
void BM_PqChecker_Width_Engine_Reject(benchmark::State& state) {
  const History h =
      wide_pq_history_bad(static_cast<std::size_t>(state.range(0)));
  PriorityQueueCaSpec spec(kP);
  CalCheckOptions opts;
  opts.order_check = false;
  CalChecker checker(spec, opts);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  state.counters["visited"] = static_cast<double>(r.visited_states);
}
BENCHMARK(BM_PqChecker_Width_Engine_Reject)
    ->ArgName("width")
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5);

/// The staircase for a stack or queue: w inserts of 0..w-1 all stay open
/// while a sequential run of w removals returns the values in the order
/// that inserting them in their natural order gets wrong — ascending for a
/// stack, descending for a queue; the inserts respond only afterwards.
/// Linearizable — each insert linearizes just before its removal, on an
/// empty container — but the engine's DFS fires inserts in their natural
/// order first and dead-ends deep, as on the priority-queue staircase. The
/// order path pairs each removal with its open insert as it is invoked.
History stair_collection_history(Symbol obj, Symbol ins, Symbol rem,
                                 std::size_t width, bool lifo) {
  History h;
  for (std::size_t i = 0; i < width; ++i) {
    h.invoke(static_cast<ThreadId>(i + 1), obj, ins,
             Value::integer(static_cast<std::int64_t>(i)));
  }
  const auto remover = static_cast<ThreadId>(width + 1);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t v = lifo ? i : width - 1 - i;
    h.invoke(remover, obj, rem);
    h.respond(remover, obj, rem,
              Value::pair(true, static_cast<std::int64_t>(v)));
  }
  for (std::size_t i = 0; i < width; ++i) {
    h.respond(static_cast<ThreadId>(i + 1), obj, ins, Value::boolean(true));
  }
  return h;
}

/// Stack and queue staircases through CalChecker(SeqAsCaSpec(S)), on the
/// order path (order = 1) or the engine (order = 0): the per-spec shape of
/// BM_PqChecker_Width vs BM_PqChecker_Width_Engine.
template <typename Spec>
void collection_stair(benchmark::State& state, const char* obj,
                      const char* ins, const char* rem, bool lifo,
                      bool order) {
  const Symbol object{obj};
  const History h = stair_collection_history(
      object, Symbol{ins}, Symbol{rem},
      static_cast<std::size_t>(state.range(0)), lifo);
  SeqAsCaSpec spec(std::make_shared<Spec>(object));
  CalCheckOptions opts;
  opts.order_check = order;
  CalChecker checker(spec, opts);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  if (!r.ok) state.SkipWithError("staircase rejected");
  state.counters["order_checked"] = r.order_checked ? 1.0 : 0.0;
  state.counters["visited"] = static_cast<double>(r.visited_states);
}

void BM_StackChecker_Stair(benchmark::State& state) {
  collection_stair<StackSpec>(state, "S", "push", "pop", true, true);
}
void BM_StackChecker_Stair_Engine(benchmark::State& state) {
  collection_stair<StackSpec>(state, "S", "push", "pop", true, false);
}
void BM_QueueChecker_Stair(benchmark::State& state) {
  collection_stair<QueueSpec>(state, "Q", "enq", "deq", false, true);
}
void BM_QueueChecker_Stair_Engine(benchmark::State& state) {
  collection_stair<QueueSpec>(state, "Q", "enq", "deq", false, false);
}
// The engine rows stop where one repetition still takes seconds: at the
// largest widths each two more multiply its visited states by ≈70 (stack)
// and ≈90 (queue).
BENCHMARK(BM_StackChecker_Stair)->ArgName("width")->DenseRange(2, 14, 2);
BENCHMARK(BM_StackChecker_Stair_Engine)
    ->ArgName("width")
    ->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueueChecker_Stair)->ArgName("width")->DenseRange(2, 14, 2);
BENCHMARK(BM_QueueChecker_Stair_Engine)
    ->ArgName("width")
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

