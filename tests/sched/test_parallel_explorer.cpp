// Parallel-vs-sequential equivalence for the schedule explorer: identical
// verdicts at threads ∈ {1, 2, 8} on the exchanger, MS-queue (TSO) and
// recycling central-stack model-checking workloads, equal
// state/terminal/transition counts on clean explorations, the sequential
// first violation reported by the parallel driver, and identical
// terminal-history sets in enumerating mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_objects.hpp"
#include "sched/rg.hpp"

namespace cal::sched {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

struct ExchangerWorld {
  WorldConfig config;
  ExchangerSpec spec{Symbol{"E"}, Symbol{"exchange"}};
  const SimExchanger* machine = nullptr;
  std::vector<std::unique_ptr<SimObject>> objects;
};

ExchangerWorld make_exchanger_world(std::size_t n_threads,
                                    std::size_t ops_per_thread,
                                    bool record = false) {
  ExchangerWorld w;
  auto machine = std::make_unique<SimExchanger>(Symbol{"E"});
  w.machine = machine.get();
  w.objects.push_back(std::move(machine));
  for (std::size_t i = 0; i < n_threads; ++i) {
    ThreadProgram p;
    p.tid = static_cast<ThreadId>(i);
    for (std::size_t k = 0; k < ops_per_thread; ++k) {
      p.calls.push_back(Call{0, Symbol{"exchange"},
                             iv(static_cast<std::int64_t>(i * 100 + k))});
    }
    w.config.programs.push_back(std::move(p));
  }
  w.config.object_names = {Symbol{"E"}};
  w.config.spec = &w.spec;
  w.config.record_trace = true;
  if (record) w.config.record_history = true;
  w.config.heap_cells = 8;
  w.config.global_cells = 8;
  return w;
}

ExploreResult explore(std::size_t pool_threads, std::size_t n_threads,
                      std::size_t ops, ExploreOptions opts = {},
                      bool with_auditor = false, bool record = false) {
  ExchangerWorld w = make_exchanger_world(n_threads, ops, record);
  opts.threads = pool_threads;
  Explorer ex(w.config, std::move(w.objects), opts);
  std::unique_ptr<ExchangerRgAuditor> auditor;
  if (with_auditor) {
    auditor = std::make_unique<ExchangerRgAuditor>(*w.machine);
    ex.set_auditor(auditor.get());
  }
  return ex.run();
}

/// Explores `cfg`'s programs on one object under `spec` at `pool` workers.
ExploreResult explore_object(std::size_t pool,
                             std::unique_ptr<SimObject> object,
                             const CaSpec& spec, WorldConfig cfg) {
  cfg.spec = &spec;
  cfg.record_trace = true;
  cfg.heap_cells = 16;
  cfg.global_cells = 8;
  std::vector<std::unique_ptr<SimObject>> objects;
  objects.push_back(std::move(object));
  ExploreOptions opts;
  opts.threads = pool;
  Explorer ex(cfg, std::move(objects), opts);
  return ex.run();
}

/// The MS queue under TSO: an enqueue-then-dequeue thread racing a
/// dequeuer.
ExploreResult explore_ms_queue_tso(std::size_t pool) {
  const SeqAsCaSpec spec(std::make_shared<QueueSpec>(Symbol{"Q"}));
  WorldConfig cfg;
  cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"enq"}, iv(1)},
                                    Call{0, Symbol{"deq"}, Value::unit()}}},
                  ThreadProgram{1, {Call{0, Symbol{"deq"}, Value::unit()}}}};
  cfg.object_names = {Symbol{"Q"}};
  cfg.memory_model = MemoryModel::kTso;
  return explore_object(pool, std::make_unique<SimMsQueue>(Symbol{"Q"}), spec,
                        cfg);
}

/// The central stack with address reuse under hazard pointers: a popped
/// block can come back for the other thread's push.
ExploreResult explore_recycling_stack(std::size_t pool) {
  const SeqAsCaSpec spec(std::make_shared<CentralStackSpec>(Symbol{"S"}));
  WorldConfig cfg;
  cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"push"}, iv(1)},
                                    Call{0, Symbol{"pop"}, Value::unit()}}},
                  ThreadProgram{1, {Call{0, Symbol{"pop"}, Value::unit()},
                                    Call{0, Symbol{"push"}, iv(2)}}}};
  cfg.object_names = {Symbol{"S"}};
  cfg.recycle_addresses = true;
  cfg.reclaim_policy = runtime::ReclaimPolicy::kHp;
  return explore_object(pool, std::make_unique<SimCentralStack>(Symbol{"S"}),
                        spec, cfg);
}

TEST(ParallelExplorerEquivalence, CleanExplorationCountersMatch) {
  // No violations, no caps, merging on: every engine must visit exactly
  // the same reachable state set, so the counters agree exactly.
  const std::vector<
      std::pair<const char*, std::function<ExploreResult(std::size_t)>>>
      configs = {
          {"exchanger 3x1",
           [](std::size_t pool) { return explore(pool, 3, 1); }},
          {"ms-queue tso", explore_ms_queue_tso},
          {"central stack, hp recycling", explore_recycling_stack},
      };
  for (const auto& [name, run] : configs) {
    const ExploreResult seq = run(1);
    for (std::size_t pool : {std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(name) + " pool=" + std::to_string(pool));
      const ExploreResult par = run(pool);
      EXPECT_EQ(seq.ok(), par.ok());
      EXPECT_TRUE(par.ok());
      EXPECT_EQ(seq.states, par.states);
      EXPECT_EQ(seq.terminals, par.terminals);
      EXPECT_EQ(seq.transitions, par.transitions);
      EXPECT_EQ(seq.events, par.events);
      EXPECT_EQ(seq.flush_steps, par.flush_steps);
      EXPECT_EQ(seq.recycled_allocs, par.recycled_allocs);
    }
  }
}

TEST(ParallelExplorerEquivalence, NoMergeCountersMatch) {
  ExploreOptions opts;
  opts.merge_states = false;
  const ExploreResult seq = explore(1, 2, 2, opts);
  for (std::size_t pool : {std::size_t{2}, std::size_t{8}}) {
    const ExploreResult par = explore(pool, 2, 2, opts);
    EXPECT_EQ(seq.ok(), par.ok());
    EXPECT_EQ(seq.states, par.states) << "pool=" << pool;
    EXPECT_EQ(seq.terminals, par.terminals) << "pool=" << pool;
    EXPECT_EQ(seq.transitions, par.transitions) << "pool=" << pool;
  }
}

TEST(ParallelExplorerEquivalence, RgAuditedExplorationStaysClean) {
  // The full Fig. 4 rely/guarantee audit runs on every worker; the
  // verified exchanger must stay violation-free at every thread count.
  for (std::size_t pool :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const ExploreResult r = explore(pool, 2, 2, {}, /*with_auditor=*/true);
    EXPECT_TRUE(r.ok()) << "pool=" << pool << ": "
                        << (r.violations.empty()
                                ? ""
                                : r.violations.front().to_string());
    EXPECT_GT(r.states, 0u);
  }
}

TEST(ParallelExplorerEquivalence, TerminalHistorySetsMatch) {
  ExploreOptions opts;
  opts.merge_states = false;
  opts.collect_terminals = true;
  auto collect_sorted = [&](std::size_t pool) {
    const ExploreResult r = explore(pool, 2, 1, opts, false, /*record=*/true);
    std::vector<std::string> out;
    out.reserve(r.histories.size());
    for (const History& h : r.histories) out.push_back(h.to_string());
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto seq = collect_sorted(1);
  ASSERT_FALSE(seq.empty());
  EXPECT_EQ(seq, collect_sorted(2));
  EXPECT_EQ(seq, collect_sorted(8));
}

/// Flags an invariant violation at every terminal state — a deterministic,
/// machine-independent way to seed violations deep in the schedule tree.
class TerminalFlagAuditor final : public TransitionAuditor {
 public:
  [[nodiscard]] std::optional<std::string> check_transition(
      const World&, const World&, ThreadId) const override {
    return std::nullopt;
  }
  [[nodiscard]] std::optional<std::string> check_invariant(
      const World& world) const override {
    if (world.all_done()) return "terminal reached";
    return std::nullopt;
  }
};

TEST(ParallelExplorerViolations, FirstViolationIsDeterministicAndReplayable) {
  ExploreOptions opts;
  opts.merge_states = false;  // branch-local search: fully deterministic
  std::vector<ScheduleStep> first_schedule;
  for (int run = 0; run < 3; ++run) {
    ExchangerWorld w = make_exchanger_world(2, 1);
    opts.threads = 8;
    TerminalFlagAuditor auditor;
    Explorer ex(w.config, std::move(w.objects), opts);
    ex.set_auditor(&auditor);
    ExploreResult r = ex.run();
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.violations.size(), 1u);
    const auto& v = r.violations.front();
    EXPECT_EQ(v.what, "invariant: terminal reached");
    // Replaying the reported schedule must reach the flagged state.
    World replayed = ex.replay(v.schedule);
    EXPECT_TRUE(replayed.all_done()) << v.to_string();
    if (run == 0) {
      first_schedule = v.schedule;
    } else {
      EXPECT_EQ(first_schedule, v.schedule) << "run " << run
                                            << " chose a different violation";
    }
  }
}

TEST(ParallelExplorerViolations, FirstViolationMatchesSequential) {
  // Without merging both drivers keep the violation whose schedule sorts
  // first in expansion order, so the parallel report is the sequential one.
  ExploreOptions opts;
  opts.merge_states = false;
  auto first_violation = [&](std::size_t pool, std::size_t n_threads,
                             std::size_t ops) {
    ExchangerWorld w = make_exchanger_world(n_threads, ops);
    opts.threads = pool;
    TerminalFlagAuditor auditor;
    Explorer ex(w.config, std::move(w.objects), opts);
    ex.set_auditor(&auditor);
    ExploreResult r = ex.run();
    EXPECT_EQ(r.violations.size(), 1u);
    return r.violations.empty() ? std::string()
                                : r.violations.front().to_string();
  };
  for (const auto& [n_threads, ops] :
       {std::pair<std::size_t, std::size_t>{2, 1}, {2, 2}, {3, 1}}) {
    const std::string seq = first_violation(1, n_threads, ops);
    ASSERT_FALSE(seq.empty());
    for (std::size_t pool : {std::size_t{2}, std::size_t{8}}) {
      for (int run = 0; run < 10; ++run) {
        EXPECT_EQ(seq, first_violation(pool, n_threads, ops))
            << n_threads << "x" << ops << " pool=" << pool << " run " << run;
      }
    }
  }
}

TEST(ParallelExplorerViolations, AllViolationsModeFindsEveryTerminal) {
  ExploreOptions opts;
  opts.merge_states = false;
  opts.stop_on_first_violation = false;
  auto count = [&](std::size_t pool) {
    ExchangerWorld w = make_exchanger_world(2, 1);
    opts.threads = pool;
    TerminalFlagAuditor auditor;
    Explorer ex(w.config, std::move(w.objects), opts);
    ex.set_auditor(&auditor);
    return ex.run().violations.size();
  };
  const std::size_t seq = count(1);
  ASSERT_GT(seq, 0u);
  EXPECT_EQ(seq, count(2));
  EXPECT_EQ(seq, count(8));
}

TEST(ParallelExplorerViolations, MaxStatesCapTripsExhausted) {
  ExploreOptions opts;
  opts.max_states = 10;
  opts.threads = 8;
  ExchangerWorld w = make_exchanger_world(3, 2);
  Explorer ex(w.config, std::move(w.objects), opts);
  ExploreResult r = ex.run();
  EXPECT_TRUE(r.exhausted);
}

TEST(ParallelExplorerStress, RepeatedRunsStayConsistent) {
  // Back-to-back full-pool explorations of the 3-thread configuration:
  // shared visited-set contention plus worker cancellation paths.
  const ExploreResult seq = explore(1, 3, 1);
  for (int round = 0; round < 4; ++round) {
    const ExploreResult par = explore(8, 3, 1);
    EXPECT_TRUE(par.ok());
    EXPECT_EQ(seq.states, par.states);
    EXPECT_EQ(seq.terminals, par.terminals);
  }
}

}  // namespace
}  // namespace cal::sched
