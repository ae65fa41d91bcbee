// Experiment T-CHECK — cost of the contributed decision procedures: the
// CAL membership checker vs the classical Wing–Gong linearizability
// checker, as history length and overlap width grow.
//
// Series regenerated:
//   * CAL checker on exchanger histories vs #operations (valid histories
//     from the known-good generator used in the property tests);
//   * classical checker on stack histories of the same lengths;
//   * CAL checker vs overlap width (all operations concurrent — the
//     adversarial case for the subset enumeration);
//   * the Def. 5 agreement check (linear pass) as the baseline primitive.
//
// The checkers decide these specs by their order paths by default (the
// exchanger's pairing sweep, the stack sweep), which never search. Every
// series named above passes order_check = false, so it keeps timing the
// engine it was recorded for; its `_Order` twin times the default path on
// the same histories.
#include <benchmark/benchmark.h>

#include <random>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"

namespace {

using namespace cal;  // NOLINT: bench file

Value iv(std::int64_t x) { return Value::integer(x); }

/// Valid exchanger run: pairs of adjacent threads overlap and swap; one in
/// four operations fails. Deterministic by construction.
History exchanger_history(std::size_t n_ops) {
  HistoryBuilder b;
  std::int64_t v = 1;
  ThreadId t = 1;
  for (std::size_t i = 0; i + 1 < n_ops; i += 2) {
    if (i % 8 == 6) {
      b.op(t, "E", "exchange", iv(v), Value::pair(false, v));
      b.op(t + 1, "E", "exchange", iv(v + 1), Value::pair(false, v + 1));
    } else {
      b.call(t, "E", "exchange", iv(v));
      b.call(t + 1, "E", "exchange", iv(v + 1));
      b.ret(t, Value::pair(true, v + 1));
      b.ret(t + 1, Value::pair(true, v));
    }
    v += 2;
    t = (t % 6) + 1;
  }
  return b.history();
}

/// Fully-overlapping failures: worst case for candidate-set enumeration.
History wide_overlap_history(std::size_t width) {
  HistoryBuilder b;
  for (ThreadId t = 1; t <= width; ++t) {
    b.call(t, "E", "exchange", iv(t));
  }
  for (ThreadId t = 1; t <= width; ++t) {
    b.ret(t, Value::pair(false, t));
  }
  return b.history();
}

/// Valid stack history: per-thread push-then-pop rounds, overlapping.
History stack_history(std::size_t n_ops) {
  HistoryBuilder b;
  std::int64_t v = 1;
  for (std::size_t i = 0; i + 1 < n_ops; i += 2) {
    const ThreadId t = static_cast<ThreadId>(i / 2 % 3 + 1);
    b.op(t, "S", "push", iv(v), Value::boolean(true));
    b.op(t, "S", "pop", Value::unit(), Value::pair(true, v));
    ++v;
  }
  return b.history();
}

CalCheckOptions cal_options(bool order_check) {
  CalCheckOptions opts;
  opts.order_check = order_check;
  return opts;
}

void exchanger_history_row(benchmark::State& state, bool order_check) {
  const History h = exchanger_history(static_cast<std::size_t>(state.range(0)));
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalChecker checker(spec, cal_options(order_check));
  std::size_t visited = 0;
  for (auto _ : state) {
    CalCheckResult r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
    visited = r.visited_states;
  }
  state.counters["ops"] = static_cast<double>(h.operations().size());
  state.counters["visited"] = static_cast<double>(visited);
}

void BM_CalChecker_ExchangerHistory(benchmark::State& state) {
  exchanger_history_row(state, /*order_check=*/false);
}
BENCHMARK(BM_CalChecker_ExchangerHistory)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

void BM_CalChecker_ExchangerHistory_Order(benchmark::State& state) {
  exchanger_history_row(state, /*order_check=*/true);
}
BENCHMARK(BM_CalChecker_ExchangerHistory_Order)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

/// Copies a check's compression counters onto the benchmark series (T-MEM:
/// visited-set bytes is the headline; cache/pruning explain the speedups).
void record_compression(benchmark::State& state, const CalCheckResult& r) {
  state.counters["visited"] = static_cast<double>(r.visited_states);
  state.counters["visited_bytes"] = static_cast<double>(r.visited_bytes);
  state.counters["step_hits"] = static_cast<double>(r.step_cache_hits);
  state.counters["step_misses"] = static_cast<double>(r.step_cache_misses);
  state.counters["pruned"] = static_cast<double>(r.pruned_subsets);
}

void BM_CalChecker_OverlapWidth(benchmark::State& state) {
  // threads=1 is the sequential engine (the historical series); higher
  // counts exercise the work-stealing pool on the same workload — the
  // speedup claim of the parallel-search PR is threads=8 vs threads=1 on
  // the wide widths. exact=1 stores full visited keys
  // (CalCheckOptions::exact_visited) instead of 128-bit fingerprints —
  // the T-MEM before/after axis.
  const History h = wide_overlap_history(static_cast<std::size_t>(state.range(0)));
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalCheckOptions opts = cal_options(/*order_check=*/false);
  opts.threads = static_cast<std::size_t>(state.range(1));
  opts.exact_visited = state.range(2) != 0;
  CalChecker checker(spec, opts);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  record_compression(state, r);
}
BENCHMARK(BM_CalChecker_OverlapWidth)
    ->ArgNames({"width", "threads", "exact"})
    ->Args({2, 1, 0})
    ->Args({4, 1, 0})
    ->Args({6, 1, 0})
    ->Args({6, 1, 1})
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({10, 1, 0})
    ->Args({10, 1, 1})
    ->Args({8, 2, 0})
    ->Args({8, 8, 0})
    ->Args({10, 2, 0})
    ->Args({10, 8, 0})
    ->Args({12, 1, 0})
    ->Args({12, 1, 1})
    ->Args({12, 8, 0});

void BM_CalChecker_OverlapWidth_Reject(benchmark::State& state) {
  // Rejection needs full exhaustion — no early-witness cancellation — so
  // this is the purest parallel-search scaling series, and the one where
  // the visited set peaks (T-MEM's headline numbers).
  History h = wide_overlap_history(static_cast<std::size_t>(state.range(0)));
  std::vector<Action> actions = h.actions();
  actions.back().payload = Value::pair(true, 424242);  // impossible swap
  const History bad{std::move(actions)};
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalCheckOptions opts = cal_options(/*order_check=*/false);
  opts.threads = static_cast<std::size_t>(state.range(1));
  opts.exact_visited = state.range(2) != 0;
  CalChecker checker(spec, opts);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(bad);
    benchmark::DoNotOptimize(r.ok);
  }
  record_compression(state, r);
}
BENCHMARK(BM_CalChecker_OverlapWidth_Reject)
    ->ArgNames({"width", "threads", "exact"})
    ->Args({7, 1, 0})
    ->Args({7, 1, 1})
    ->Args({7, 2, 0})
    ->Args({7, 8, 0})
    ->Args({8, 1, 0})
    ->Args({8, 1, 1})
    ->Args({8, 2, 0})
    ->Args({8, 8, 0});

/// The pairing sweep on the overlap-width histories: every failure is a
/// singleton at its response (accept); the poisoned last response finds
/// no partner (reject). Neither searches.
void overlap_width_order_row(benchmark::State& state, bool poison_last) {
  History h = wide_overlap_history(static_cast<std::size_t>(state.range(0)));
  if (poison_last) {
    std::vector<Action> actions = h.actions();
    actions.back().payload = Value::pair(true, 424242);  // impossible swap
    h = History{std::move(actions)};
  }
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalChecker checker(spec);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  if (r.ok == poison_last || !r.order_checked) {
    state.SkipWithError("unexpected verdict or path");
  }
}

void BM_CalChecker_OverlapWidth_Order(benchmark::State& state) {
  overlap_width_order_row(state, /*poison_last=*/false);
}
BENCHMARK(BM_CalChecker_OverlapWidth_Order)
    ->ArgName("width")
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(12);

void BM_CalChecker_OverlapWidth_Reject_Order(benchmark::State& state) {
  overlap_width_order_row(state, /*poison_last=*/true);
}
BENCHMARK(BM_CalChecker_OverlapWidth_Reject_Order)
    ->ArgName("width")
    ->Arg(7)
    ->Arg(8);

void lin_stack_row(benchmark::State& state, bool order_check) {
  const History h = stack_history(static_cast<std::size_t>(state.range(0)));
  StackSpec spec(Symbol{"S"});
  LinCheckOptions opts;
  opts.order_check = order_check;
  LinChecker checker(spec, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(h).ok);
  }
}

void BM_LinChecker_StackHistory(benchmark::State& state) {
  lin_stack_row(state, /*order_check=*/false);
}
BENCHMARK(BM_LinChecker_StackHistory)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

void BM_LinChecker_StackHistory_Order(benchmark::State& state) {
  lin_stack_row(state, /*order_check=*/true);
}
BENCHMARK(BM_LinChecker_StackHistory_Order)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

void adapter_stack_row(benchmark::State& state, bool order_check) {
  const History h = stack_history(static_cast<std::size_t>(state.range(0)));
  auto seq = std::make_shared<StackSpec>(Symbol{"S"});
  SeqAsCaSpec spec(seq);
  CalChecker checker(spec, cal_options(order_check));
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(h).ok);
  }
}

void BM_CalCheckerViaAdapter_StackHistory(benchmark::State& state) {
  // The generality tax: same histories, CAL checker through SeqAsCaSpec.
  adapter_stack_row(state, /*order_check=*/false);
}
BENCHMARK(BM_CalCheckerViaAdapter_StackHistory)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

void BM_CalCheckerViaAdapter_StackHistory_Order(benchmark::State& state) {
  adapter_stack_row(state, /*order_check=*/true);
}
BENCHMARK(BM_CalCheckerViaAdapter_StackHistory_Order)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

void BM_Agree_Def5(benchmark::State& state) {
  const History h = exchanger_history(static_cast<std::size_t>(state.range(0)));
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalChecker checker(spec);
  const CaTrace witness = *checker.check(h).witness;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agrees_with(h, witness).agrees);
  }
}
BENCHMARK(BM_Agree_Def5)->ArgName("ops")->Arg(16)->Arg(64)->Arg(256);

void rejects_corrupted_row(benchmark::State& state, bool order_check) {
  History h = exchanger_history(static_cast<std::size_t>(state.range(0)));
  std::vector<Action> actions = h.actions();
  for (auto it = actions.rbegin(); it != actions.rend(); ++it) {
    if (it->is_respond() && it->payload.kind() == Value::Kind::kPair &&
        it->payload.pair_ok()) {
      it->payload = Value::pair(true, 999999);
      break;
    }
  }
  const History bad{std::move(actions)};
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalChecker checker(spec, cal_options(order_check));
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(bad).ok);
  }
}

void BM_CalChecker_RejectsCorrupted(benchmark::State& state) {
  // Rejection cost: corrupt the last successful response; the engine must
  // exhaust the search space to answer "no".
  rejects_corrupted_row(state, /*order_check=*/false);
}
BENCHMARK(BM_CalChecker_RejectsCorrupted)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);

void BM_CalChecker_RejectsCorrupted_Order(benchmark::State& state) {
  // The pairing sweep stops at the corrupted response: no partner.
  rejects_corrupted_row(state, /*order_check=*/true);
}
BENCHMARK(BM_CalChecker_RejectsCorrupted_Order)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);

}  // namespace

