// Experiment T-STREAM — cost of streaming (incremental) CAL checking from
// a live action feed vs the batch checker.
//
// Series:
//   * incremental consume+finish vs #operations (window 16) — the streaming
//     frontend's end-to-end throughput, from 64 to 2^20 operations (flat
//     items/s when per-window cost is independent of stream length);
//   * one batch check of the same full history — the lower bound a
//     streaming checker competes against when verdict latency is free;
//   * batch re-check of every window prefix — what "bounded-latency
//     verdicts" cost *without* the incremental frontier (the quadratic
//     blowup the frontier-carrying design removes);
//   * incremental vs window size at fixed length — the latency/throughput
//     knob (small windows = tight violation-latency bound, more searches).
//
// The batch rows pass order_check = false: the comparison is between
// engine searches, and the exchanger's pairing sweep would answer them
// without one.
#include <benchmark/benchmark.h>

#include "cal/cal_checker.hpp"
#include "cal/engine/incremental.hpp"
#include "cal/specs/exchanger_spec.hpp"

namespace {

using namespace cal;  // NOLINT: bench file

Value iv(std::int64_t x) { return Value::integer(x); }

/// Valid exchanger run: pairs of adjacent threads overlap and swap; one in
/// four pairs times out. Deterministic by construction (same shape as the
/// T-CHECK generator).
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

CalCheckOptions engine_options() {
  CalCheckOptions opts;
  opts.order_check = false;
  return opts;
}

void BM_Streaming_Incremental(benchmark::State& state) {
  const std::size_t n_ops = static_cast<std::size_t>(state.range(0));
  const History h = exchanger_history(n_ops);
  const ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  std::size_t windows = 0;
  std::size_t visited = 0;
  std::size_t retired = 0;
  for (auto _ : state) {
    engine::IncrementalOptions opts;
    opts.window = 16;
    engine::IncrementalChecker checker(spec, opts);
    checker.push(h);
    checker.finish();
    if (!checker.ok()) state.SkipWithError("stream rejected");
    benchmark::DoNotOptimize(checker.status().frontier_size);
    windows = checker.status().windows_checked;
    visited = checker.status().visited_states;
    retired = checker.status().retired_ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.actions().size()));
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["visited"] = static_cast<double>(visited);
  state.counters["retired"] = static_cast<double>(retired);
}
BENCHMARK(BM_Streaming_Incremental)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(65536)
    ->Arg(1048576);

void BM_Streaming_BatchFinal(benchmark::State& state) {
  const std::size_t n_ops = static_cast<std::size_t>(state.range(0));
  const History h = exchanger_history(n_ops);
  const ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  std::size_t visited = 0;
  for (auto _ : state) {
    CalChecker checker(spec, engine_options());
    CalCheckResult r = checker.check(h);
    if (!r.ok) state.SkipWithError("history rejected");
    benchmark::DoNotOptimize(r.ok);
    visited = r.visited_states;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.actions().size()));
  state.counters["visited"] = static_cast<double>(visited);
}
BENCHMARK(BM_Streaming_BatchFinal)->Arg(64)->Arg(256)->Arg(1024);

void BM_Streaming_BatchPerWindow(benchmark::State& state) {
  const std::size_t n_ops = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kWindow = 16;
  const History h = exchanger_history(n_ops);
  const ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  for (auto _ : state) {
    History prefix;
    std::size_t since_check = 0;
    bool ok = true;
    for (const Action& a : h.actions()) {
      prefix.append(a);
      if (++since_check == kWindow) {
        since_check = 0;
        CalChecker checker(spec, engine_options());
        ok = ok && checker.check(prefix).ok;
      }
    }
    if (since_check != 0) {
      CalChecker checker(spec, engine_options());
      ok = ok && checker.check(prefix).ok;
    }
    if (!ok) state.SkipWithError("prefix rejected");
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.actions().size()));
}
BENCHMARK(BM_Streaming_BatchPerWindow)->Arg(64)->Arg(256);

void BM_Streaming_WindowSize(benchmark::State& state) {
  constexpr std::size_t kOps = 512;
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  const History h = exchanger_history(kOps);
  const ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  std::size_t windows = 0;
  for (auto _ : state) {
    engine::IncrementalOptions opts;
    opts.window = window;
    engine::IncrementalChecker checker(spec, opts);
    checker.push(h);
    checker.finish();
    if (!checker.ok()) state.SkipWithError("stream rejected");
    benchmark::DoNotOptimize(checker.status().frontier_size);
    windows = checker.status().windows_checked;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(h.actions().size()));
  state.counters["windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_Streaming_WindowSize)->Arg(4)->Arg(16)->Arg(64)->Arg(512);

}  // namespace

