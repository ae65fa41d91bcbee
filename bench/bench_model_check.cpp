// Experiment T-MC — cost of the verification substrate itself: exhaustive
// exploration of the simulated exchanger and elimination stack (the same
// objects/core/ bodies the runtime executes, stepped through SimEnv).
//
// Series regenerated:
//   * states/transitions/time vs configuration size (threads × ops);
//   * state merging on vs off (the soundness-preserving reduction);
//   * rely/guarantee audit overhead (Fig. 4 actions + J + proof outline).
//
// Experiment T-ENV — cost of the environment abstraction on the *real*
// side: BM_Env_StepOverhead compares the RealEnv-instantiated Treiber
// stack against a hand-written direct-atomic twin (the shape the objects
// had before unification). See BENCH_env_unification.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <utility>

#include "cal/cal_checker.hpp"
#include "cal/specs/elim_views.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "objects/treiber_stack.hpp"
#include "runtime/reclaim/ebr.hpp"
#include "sched/explorer.hpp"
#include "sched/rg.hpp"
#include "sched/sim_objects.hpp"

namespace {

using namespace cal;         // NOLINT: bench file
using namespace cal::sched;  // NOLINT: bench file

Value iv(std::int64_t x) { return Value::integer(x); }

struct ExchangerConfig {
  WorldConfig config;
  ExchangerSpec spec{Symbol{"E"}, Symbol{"exchange"}};
  const SimExchanger* machine = nullptr;
  std::vector<std::unique_ptr<SimObject>> objects;
};

ExchangerConfig make_exchanger(std::size_t threads, std::size_t ops) {
  ExchangerConfig c;
  auto machine = std::make_unique<SimExchanger>(Symbol{"E"});
  c.machine = machine.get();
  c.objects.push_back(std::move(machine));
  for (std::size_t i = 0; i < threads; ++i) {
    ThreadProgram p;
    p.tid = static_cast<ThreadId>(i);
    for (std::size_t k = 0; k < ops; ++k) {
      p.calls.push_back(Call{0, Symbol{"exchange"},
                             iv(static_cast<std::int64_t>(i * 100 + k))});
    }
    c.config.programs.push_back(std::move(p));
  }
  c.config.object_names = {Symbol{"E"}};
  c.config.spec = &c.spec;
  c.config.record_trace = true;
  // Small heaps keep World copies (and the visited-set keys) compact; each
  // exchange allocates one 3-cell offer.
  c.config.heap_cells = 8;
  c.config.global_cells = 8;
  return c;
}

void BM_Explore_Exchanger(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto ops = static_cast<std::size_t>(state.range(1));
  std::size_t states = 0;
  std::size_t transitions = 0;
  for (auto _ : state) {
    ExchangerConfig c = make_exchanger(threads, ops);
    Explorer ex(c.config, std::move(c.objects));
    ExploreResult r = ex.run();
    benchmark::DoNotOptimize(r.ok());
    states = r.states;
    transitions = r.transitions;
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["transitions"] = static_cast<double>(transitions);
}
BENCHMARK(BM_Explore_Exchanger)
    ->ArgNames({"threads", "ops"})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

void BM_Explore_Exchanger_Parallel(benchmark::State& state) {
  // jobs=1 is the sequential engine; higher counts split the schedule
  // tree's root frontier across the work-stealing pool (the speedup claim
  // of the parallel-search PR is jobs=8 vs jobs=1).
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto ops = static_cast<std::size_t>(state.range(1));
  const auto jobs = static_cast<std::size_t>(state.range(2));
  std::size_t states = 0;
  for (auto _ : state) {
    ExchangerConfig c = make_exchanger(threads, ops);
    ExploreOptions opts;
    opts.threads = jobs;
    Explorer ex(c.config, std::move(c.objects), opts);
    ExploreResult r = ex.run();
    benchmark::DoNotOptimize(r.ok());
    states = r.states;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Explore_Exchanger_Parallel)
    ->ArgNames({"threads", "ops", "jobs"})
    ->Args({3, 2, 1})
    ->Args({3, 2, 2})
    ->Args({3, 2, 8})
    ->Args({4, 1, 1})
    ->Args({4, 1, 8})
    ->Unit(benchmark::kMillisecond);

void BM_Explore_Exchanger_NoMerge(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto ops = static_cast<std::size_t>(state.range(1));
  std::size_t states = 0;
  for (auto _ : state) {
    ExchangerConfig c = make_exchanger(threads, ops);
    ExploreOptions opts;
    opts.merge_states = false;
    Explorer ex(c.config, std::move(c.objects), opts);
    ExploreResult r = ex.run();
    benchmark::DoNotOptimize(r.ok());
    states = r.states;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Explore_Exchanger_NoMerge)
    ->ArgNames({"threads", "ops"})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

void BM_Explore_Exchanger_WithRgAudit(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto ops = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    ExchangerConfig c = make_exchanger(threads, ops);
    ExchangerRgAuditor auditor(*c.machine);
    Explorer ex(c.config, std::move(c.objects));
    ex.set_auditor(&auditor);
    ExploreResult r = ex.run();
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_Explore_Exchanger_WithRgAudit)
    ->ArgNames({"threads", "ops"})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

void BM_Explore_ElimStack(benchmark::State& state) {
  const auto pushers = static_cast<std::size_t>(state.range(0));
  const auto poppers = static_cast<std::size_t>(state.range(1));
  std::size_t states = 0;
  for (auto _ : state) {
    auto es_seq = std::make_shared<StackSpec>(Symbol{"ES"});
    SeqAsCaSpec spec(es_seq);
    auto view = make_elimination_stack_view(Symbol{"ES"}, Symbol{"ES.S"},
                                            Symbol{"ES.AR"}, 1);
    WorldConfig cfg;
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(std::make_unique<SimElimStack>(
        Symbol{"ES"}, Symbol{"ES.S"}, Symbol{"ES.AR"}, 1, 1));
    ThreadId tid = 0;
    for (std::size_t i = 0; i < pushers; ++i, ++tid) {
      ThreadProgram p;
      p.tid = tid;
      p.calls = {Call{0, Symbol{"push"}, iv(10 * (tid + 1))}};
      cfg.programs.push_back(std::move(p));
    }
    for (std::size_t i = 0; i < poppers; ++i, ++tid) {
      ThreadProgram p;
      p.tid = tid;
      p.calls = {Call{0, Symbol{"pop"}, Value::unit()}};
      cfg.programs.push_back(std::move(p));
    }
    cfg.object_names = {Symbol{"ES"}};
    cfg.spec = &spec;
    cfg.view = view.get();
    cfg.record_trace = true;
    cfg.heap_cells = 24;
    cfg.global_cells = 8;
    Explorer ex(cfg, std::move(objects));
    ExploreResult r = ex.run();
    benchmark::DoNotOptimize(r.ok());
    states = r.states;
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Explore_ElimStack)
    ->ArgNames({"pushers", "poppers"})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Experiment T-POR — sleep-set partial-order reduction and thread-symmetry
// canonicalization (BENCH_por.json via bench/run_benches.sh). The config is
// the reduction's best case and the plain search's worst: identically
// programmed threads offering the same value, tids drawn outside the
// address range as the symmetry value discipline requires. A fixed state
// budget keeps the unreduced 6-thread row finite — it exhausts the budget
// (counter `exhausted`), the reduced rows complete under it.

ExchangerConfig make_symmetric_exchanger(std::size_t threads) {
  ExchangerConfig c;
  auto machine = std::make_unique<SimExchanger>(Symbol{"E"});
  c.machine = machine.get();
  c.objects.push_back(std::move(machine));
  for (std::size_t i = 0; i < threads; ++i) {
    ThreadProgram p;
    p.tid = static_cast<ThreadId>(1000 + i);
    p.calls = {Call{0, Symbol{"exchange"}, iv(7)}};
    c.config.programs.push_back(std::move(p));
  }
  c.config.object_names = {Symbol{"E"}};
  c.config.spec = &c.spec;
  c.config.record_trace = true;
  c.config.heap_cells = 16;
  c.config.global_cells = 8;
  return c;
}

void BM_Explore_Reduction(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBudget = 200000;
  ExploreOptions opts;
  opts.por = state.range(1) != 0;
  opts.symmetry = state.range(2) != 0;
  opts.max_states = kBudget;
  ExploreResult r;
  for (auto _ : state) {
    ExchangerConfig c = make_symmetric_exchanger(threads);
    Explorer ex(c.config, std::move(c.objects), opts);
    r = ex.run();
    benchmark::DoNotOptimize(r.ok());
  }
  state.counters["states"] = static_cast<double>(r.states);
  state.counters["transitions"] = static_cast<double>(r.transitions);
  // Transitions per second of measured time: the explorer's step rate.
  state.counters["transitions_per_s"] =
      benchmark::Counter(static_cast<double>(r.transitions),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["por_pruned"] = static_cast<double>(r.por_pruned);
  state.counters["symmetry_merged"] = static_cast<double>(r.symmetry_merged);
  state.counters["exhausted"] = r.exhausted ? 1.0 : 0.0;
}
BENCHMARK(BM_Explore_Reduction)
    ->ArgNames({"threads", "por", "sym"})
    ->Args({4, 0, 0})
    ->Args({4, 1, 0})
    ->Args({4, 0, 1})
    ->Args({4, 1, 1})
    ->Args({6, 0, 0})
    ->Args({6, 0, 1})
    ->Args({6, 1, 1})
    ->Unit(benchmark::kMillisecond);

/// The checker-side axis of T-POR: the all-fail overlap history of
/// bench_checker_scaling's BM_CalChecker_OverlapWidth series, with
/// CalCheckOptions::symmetry as the swept flag. Every failed exchange is
/// interchangeable, so the canonical encoding collapses the 2^width fired
/// subsets to width+1 per-group counts.
History overlap_history(std::size_t width, bool poison_last) {
  HistoryBuilder b;
  for (ThreadId t = 1; t <= width; ++t) {
    b.call(t, "E", "exchange", iv(static_cast<std::int64_t>(t)));
  }
  for (ThreadId t = 1; t <= width; ++t) {
    b.ret(t, Value::pair(false, static_cast<std::int64_t>(t)));
  }
  History h = b.history();
  if (!poison_last) return h;
  std::vector<Action> actions = h.actions();
  actions.back().payload = Value::pair(true, 424242);  // impossible swap
  return History{std::move(actions)};
}

void check_overlap(benchmark::State& state, bool poison_last) {
  const History h = overlap_history(static_cast<std::size_t>(state.range(0)),
                                    poison_last);
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalCheckOptions opts;
  opts.symmetry = state.range(1) != 0;
  CalChecker checker(spec, opts);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  state.counters["visited"] = static_cast<double>(r.visited_states);
  state.counters["symmetry_merged"] =
      static_cast<double>(r.symmetry_merged);
}

void BM_CalChecker_OverlapWidth_Sym(benchmark::State& state) {
  check_overlap(state, /*poison_last=*/false);
}
BENCHMARK(BM_CalChecker_OverlapWidth_Sym)
    ->ArgNames({"width", "sym"})
    ->Args({7, 0})
    ->Args({7, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({12, 0})
    ->Args({12, 1});

// Rejection exhausts the search: the plain checker visits every fired
// subset (2^(width-1) states), the symmetric one O(width) — this is the
// headline visited-state reduction of T-POR.
void BM_CalChecker_OverlapWidth_Reject_Sym(benchmark::State& state) {
  check_overlap(state, /*poison_last=*/true);
}
BENCHMARK(BM_CalChecker_OverlapWidth_Reject_Sym)
    ->ArgNames({"width", "sym"})
    ->Args({7, 0})
    ->Args({7, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({12, 0})
    ->Args({12, 1});

void BM_Enumerate_And_OfflineCheck(benchmark::State& state) {
  // End-to-end cost of the cross-validation pipeline: enumerate all
  // interleavings of 2 concurrent exchanges and offline-check each unique
  // history.
  for (auto _ : state) {
    ExchangerConfig c = make_exchanger(2, 1);
    c.config.record_history = true;
    ExploreOptions opts;
    opts.merge_states = false;
    opts.collect_terminals = true;
    Explorer ex(c.config, std::move(c.objects), opts);
    ExploreResult r = ex.run();
    CalChecker checker(c.spec);
    std::size_t ok = 0;
    for (const History& h : r.histories) {
      if (checker.check(h)) ++ok;
    }
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Enumerate_And_OfflineCheck)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Experiment T-ENV: the price of running the shared objects/core/ bodies
// through RealEnv instead of hand-written atomics. One push + one pop per
// iteration, single thread, tracing off. The direct twin below is a
// verbatim transplant of the pre-unification CentralStack (the hand-
// written object this repo shipped before the env refactor): pointer-typed
// cells, an eager log() helper with its null-trace check, epoch guard,
// acquire load, acq_rel CAS, EBR retire. Any gap between the two series is
// the cost of routing the same algorithm through the env template layer.

/// The legacy hand-written central stack, copied from the pre-env sources.
class DirectCentralStack {
 public:
  struct Cell {
    std::int64_t data;
    Cell* next;
  };

  DirectCentralStack(runtime::EpochDomain& ebr, Symbol name,
                     runtime::TraceLog* trace)
      : ebr_(ebr), name_(name), trace_(trace) {}
  ~DirectCentralStack() {
    Cell* c = top_.load(std::memory_order_acquire);
    while (c != nullptr) {
      Cell* next = c->next;
      delete c;
      c = next;
    }
  }

  bool push(runtime::ThreadId tid, std::int64_t v) {
    static const Symbol kPush{"push"};
    runtime::EpochDomain::Guard guard(ebr_, tid);
    Cell* h = top_.load(std::memory_order_acquire);
    auto* n = new Cell{v, h};
    const bool ok =
        top_.compare_exchange_strong(h, n, std::memory_order_acq_rel);
    if (!ok) delete n;
    log(tid, kPush, Value::integer(v), Value::boolean(ok));
    return ok;
  }

  objects::PopResult pop(runtime::ThreadId tid) {
    static const Symbol kPop{"pop"};
    runtime::EpochDomain::Guard guard(ebr_, tid);
    Cell* h = top_.load(std::memory_order_acquire);
    if (h == nullptr) {
      log(tid, kPop, Value::unit(), Value::pair(false, 0));
      return {false, 0};
    }
    Cell* n = h->next;
    if (top_.compare_exchange_strong(h, n, std::memory_order_acq_rel)) {
      const std::int64_t v = h->data;
      ebr_.retire(tid, h);
      log(tid, kPop, Value::unit(), Value::pair(true, v));
      return {true, v};
    }
    log(tid, kPop, Value::unit(), Value::pair(false, 0));
    return {false, 0};
  }

 private:
  void log(runtime::ThreadId tid, Symbol method, Value arg, Value ret) {
    if (trace_ == nullptr) return;
    trace_->append(CaElement::singleton(
        name_, Operation::make(tid, name_, method, std::move(arg),
                               std::move(ret))));
  }

  runtime::EpochDomain& ebr_;
  Symbol name_;
  runtime::TraceLog* trace_;
  std::atomic<Cell*> top_{nullptr};
};

void BM_Env_StepOverhead_RealEnv(benchmark::State& state) {
  runtime::EpochDomain ebr;
  // CentralStack = exactly one core attempt per call, the same one-CAS
  // shape as the direct twin (TreiberStack would add its retry-policy
  // loads on top, which are not part of the env layer being measured).
  objects::CentralStack stack(ebr, Symbol{"S"}, /*trace=*/nullptr);
  std::int64_t v = 0;
  for (auto _ : state) {
    stack.push(0, ++v);
    benchmark::DoNotOptimize(stack.pop(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_Env_StepOverhead_RealEnv);

void BM_Env_StepOverhead_Direct(benchmark::State& state) {
  runtime::EpochDomain ebr;
  DirectCentralStack stack(ebr, Symbol{"S"}, /*trace=*/nullptr);
  std::int64_t v = 0;
  for (auto _ : state) {
    stack.push(0, ++v);
    benchmark::DoNotOptimize(stack.pop(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_Env_StepOverhead_Direct);

}  // namespace

