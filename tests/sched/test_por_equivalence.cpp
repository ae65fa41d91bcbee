// Reduction equivalence: exploring with sleep-set POR and/or thread-symmetry
// canonicalization must change only the cost of the search, never its
// answers. For every corpus machine this suite checks, against the
// unreduced baseline:
//
//   * verdicts (ok / first violation) are identical,
//   * the reachability event mask is identical,
//   * in enumeration mode the *exact set* of terminal histories is
//     identical under POR, and identical modulo a renaming of
//     identically-programmed threads under symmetry,
//   * an attached TransitionAuditor forces both reductions off (the audit
//     must observe every transition),
//   * a violation found under reduction replays deterministically, and the
//     replayed schedule reproduces it with reductions off too.
//
// The checker-side analogue: CalChecker verdicts with
// CalCheckOptions::symmetry on equal those with it off.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/specs/elim_views.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "sched/explorer.hpp"
#include "sched/rg.hpp"
#include "sched/sim_objects.hpp"

namespace cal::sched {
namespace {

using objects::core::ExchangerPc;
using objects::core::ExchangerReg;

Value iv(std::int64_t x) { return Value::integer(x); }

// ------------------------------------------------------------------ //
// History serialization helpers.

std::string serialize(const History& h) {
  std::string out;
  for (const Action& a : h.actions()) {
    out += a.to_string();
    out += '\n';
  }
  return out;
}

/// Serialization invariant under thread renaming: tids are replaced by
/// their order of first appearance. Two histories that differ only by a
/// permutation of identically-programmed threads canonicalize equal.
std::string canon_serialize(const History& h) {
  std::map<ThreadId, ThreadId> rename;
  std::string out;
  for (const Action& a : h.actions()) {
    auto it = rename.emplace(a.tid, static_cast<ThreadId>(rename.size()))
                  .first;
    Action copy = a;
    copy.tid = it->second;
    out += copy.to_string();
    out += '\n';
  }
  return out;
}

template <typename Serialize>
std::vector<std::string> history_set(const ExploreResult& r, Serialize ser) {
  std::vector<std::string> out;
  out.reserve(r.histories.size());
  for (const History& h : r.histories) out.push_back(ser(h));
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------------ //
// Corpus configurations.

WorldConfig exchanger_config(const CaSpec* spec, std::size_t threads,
                             bool symmetric) {
  WorldConfig cfg;
  for (std::size_t i = 0; i < threads; ++i) {
    ThreadProgram p;
    // The symmetry discipline wants interchangeable tids outside the
    // address range; distinct args make the threads non-interchangeable
    // and keep the canonicalizer inactive.
    p.tid = static_cast<ThreadId>(symmetric ? 1000 + i : i);
    p.calls = {Call{0, Symbol{"exchange"},
                    symmetric ? iv(7)
                              : iv(static_cast<std::int64_t>(10 * (i + 1)))}};
    cfg.programs.push_back(std::move(p));
  }
  cfg.object_names = {Symbol{"E"}};
  cfg.spec = spec;
  cfg.record_trace = true;
  cfg.heap_cells = 16;
  cfg.global_cells = 8;
  return cfg;
}

std::vector<std::unique_ptr<SimObject>> one_exchanger() {
  std::vector<std::unique_ptr<SimObject>> objects;
  objects.push_back(std::make_unique<SimExchanger>(Symbol{"E"}));
  return objects;
}

ExploreOptions reduction(bool por, bool symmetry) {
  ExploreOptions opts;
  opts.por = por;
  opts.symmetry = symmetry;
  return opts;
}

ExploreOptions enumerating(ExploreOptions opts, const CaSpec* spec) {
  opts.merge_states = false;
  opts.collect_terminals = true;
  opts.check_spec = spec;
  return opts;
}

// ------------------------------------------------------------------ //
// POR preserves the exact terminal-history set (enumeration mode).

TEST(PorEquivalence, ExchangerHistorySetExactUnderPor) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig cfg = exchanger_config(&spec, 3, /*symmetric=*/false);
  cfg.record_history = true;

  ExploreResult base;
  {
    Explorer ex(cfg, one_exchanger(), enumerating({}, &spec));
    base = ex.run();
  }
  Explorer ex(cfg, one_exchanger(),
              enumerating(reduction(true, false), &spec));
  ExploreResult por = ex.run();

  EXPECT_EQ(base.ok(), por.ok());
  EXPECT_EQ(base.events, por.events);
  EXPECT_EQ(history_set(base, serialize), history_set(por, serialize));
  EXPECT_TRUE(base.ok());
  // The reduction actually engaged.
  EXPECT_GT(por.por_pruned, 0u);
}

// Merged mode, across sequential and parallel drivers: verdicts, events,
// and (POR keeps every state reachable) the terminal count all match.
TEST(PorEquivalence, MergedVerdictsAcrossThreadCounts) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig cfg = exchanger_config(&spec, 3, /*symmetric=*/false);

  ExploreResult base;
  {
    Explorer ex(cfg, one_exchanger());
    base = ex.run();
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (bool por : {false, true}) {
      for (bool symmetry : {false, true}) {
        if (!por && !symmetry) continue;
        ExploreOptions opts = reduction(por, symmetry);
        opts.threads = threads;
        Explorer ex(cfg, one_exchanger(), opts);
        ExploreResult r = ex.run();
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " por=" + std::to_string(por) +
                     " symmetry=" + std::to_string(symmetry));
        EXPECT_EQ(base.ok(), r.ok());
        EXPECT_EQ(base.events, r.events);
        EXPECT_EQ(base.terminals, r.terminals);
        // Distinct args: every symmetry class is a singleton, so the
        // canonicalizer deactivates itself and merges nothing.
        if (symmetry) {
          EXPECT_EQ(r.symmetry_merged, 0u);
        }
      }
    }
  }
}

// Identically-programmed threads: symmetry merges states, and merged-mode
// terminal collection keeps one representative history per canonical
// terminal class. Every collected history must be a genuine run — a
// renaming of something in the full enumerated set — and the reduction
// must actually shrink the state count while preserving the verdict and
// the event mask. (Exact history-set preservation is an enumeration-mode
// guarantee of POR, above; merged-mode collection is representative-based
// with or without reduction.)
TEST(PorEquivalence, SymmetricCollectionIsSubsetOfEnumeration) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig cfg = exchanger_config(&spec, 3, /*symmetric=*/true);
  cfg.record_history = true;

  ExploreOptions enumerate;
  enumerate.merge_states = false;
  enumerate.collect_terminals = true;
  ExploreResult full;
  {
    Explorer ex(cfg, one_exchanger(), enumerate);
    full = ex.run();
  }
  const std::vector<std::string> all = history_set(full, canon_serialize);

  ExploreOptions base_opts;
  base_opts.collect_terminals = true;
  ExploreResult base;
  {
    Explorer ex(cfg, one_exchanger(), base_opts);
    base = ex.run();
  }
  for (bool por : {false, true}) {
    ExploreOptions opts = reduction(por, true);
    opts.collect_terminals = true;
    Explorer ex(cfg, one_exchanger(), opts);
    ExploreResult r = ex.run();
    SCOPED_TRACE(por ? "por+symmetry" : "symmetry");
    EXPECT_EQ(full.ok(), r.ok());
    EXPECT_EQ(full.events, r.events);
    ASSERT_FALSE(r.histories.empty());
    for (const History& h : r.histories) {
      EXPECT_TRUE(std::binary_search(all.begin(), all.end(),
                                     canon_serialize(h)));
    }
    // Symmetry delivered an actual state reduction.
    EXPECT_LT(r.states, base.states);
    EXPECT_GT(r.symmetry_merged, 0u);
  }
}

// The parallel driver under full reduction agrees with the sequential one
// on everything order-independent: verdict, events, and the number of
// canonical terminal classes. (State counts under POR may differ by
// driver: which sleep masks reach the subsumption table first depends on
// walk order; soundness does not.)
TEST(PorEquivalence, ParallelDriverAgreesUnderReduction) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig cfg = exchanger_config(&spec, 4, /*symmetric=*/true);

  ExploreOptions seq = reduction(true, true);
  ExploreOptions par = seq;
  par.threads = 8;

  ExploreResult a;
  {
    Explorer ex(cfg, one_exchanger(), seq);
    a = ex.run();
  }
  Explorer ex(cfg, one_exchanger(), par);
  ExploreResult b = ex.run();

  EXPECT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.terminals, b.terminals);
}

// ------------------------------------------------------------------ //
// An attached auditor must see every transition: both reduction flags are
// forced off, bit-for-bit the unreduced exploration.

TEST(PorEquivalence, AuditorForcesReductionsOff) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig cfg = exchanger_config(&spec, 3, /*symmetric=*/false);

  // Each explorer initializes its own machine instance; the auditor must
  // watch the instance whose global refs that explorer's world assigned.
  ExploreResult base;
  {
    auto objects = one_exchanger();
    ExchangerRgAuditor auditor(static_cast<SimExchanger&>(*objects[0]));
    Explorer ex(cfg, std::move(objects));
    ex.set_auditor(&auditor);
    base = ex.run();
  }
  auto objects = one_exchanger();
  ExchangerRgAuditor auditor(static_cast<SimExchanger&>(*objects[0]));
  Explorer ex(cfg, std::move(objects), reduction(true, true));
  ex.set_auditor(&auditor);
  ExploreResult r = ex.run();

  EXPECT_EQ(base.states, r.states);
  EXPECT_EQ(base.transitions, r.transitions);
  EXPECT_EQ(base.terminals, r.terminals);
  EXPECT_EQ(base.ok(), r.ok());
  EXPECT_EQ(r.por_pruned, 0u);
  EXPECT_EQ(r.symmetry_merged, 0u);
}

// ------------------------------------------------------------------ //
// The wider machine corpus: verdicts and events under reduction.

TEST(PorEquivalence, EliminationStackVerdictsUnderReduction) {
  auto seq = std::make_shared<StackSpec>(Symbol{"ES"});
  SeqAsCaSpec spec(seq);
  auto view = make_elimination_stack_view(Symbol{"ES"}, Symbol{"ES.S"},
                                          Symbol{"ES.AR"}, 1);
  WorldConfig cfg;
  ThreadProgram pusher1{0, {Call{0, Symbol{"push"}, iv(10)}}};
  ThreadProgram pusher2{1, {Call{0, Symbol{"push"}, iv(20)}}};
  ThreadProgram popper{2, {Call{0, Symbol{"pop"}, Value::unit()}}};
  cfg.programs = {pusher1, pusher2, popper};
  cfg.object_names = {Symbol{"ES"}};
  cfg.spec = &spec;
  cfg.view = view.get();
  cfg.record_trace = true;
  cfg.heap_cells = 24;
  cfg.global_cells = 8;

  auto make_objects = [] {
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(std::make_unique<SimElimStack>(
        Symbol{"ES"}, Symbol{"ES.S"}, Symbol{"ES.AR"}, 1, 2));
    return objects;
  };
  ExploreResult base;
  {
    Explorer ex(cfg, make_objects());
    base = ex.run();
  }
  for (bool symmetry : {false, true}) {
    Explorer ex(cfg, make_objects(), reduction(true, symmetry));
    ExploreResult r = ex.run();
    SCOPED_TRACE(symmetry ? "por+symmetry" : "por");
    EXPECT_EQ(base.ok(), r.ok());
    // The elimination-path reachability beacon survives the reduction.
    EXPECT_EQ(base.events, r.events);
  }
}

TEST(PorEquivalence, SyncQueueHistorySetExactUnderPor) {
  SyncQueueSpec spec(Symbol{"SQ"});
  WorldConfig cfg;
  ThreadProgram put1{0, {Call{0, Symbol{"put"}, iv(10)}}};
  ThreadProgram take{1, {Call{0, Symbol{"take"}, Value::unit()}}};
  cfg.programs = {put1, take};
  cfg.object_names = {Symbol{"SQ"}};
  cfg.spec = &spec;
  cfg.record_history = true;
  cfg.record_trace = true;
  cfg.heap_cells = 16;
  cfg.global_cells = 8;

  auto make_objects = [] {
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(std::make_unique<SimSyncQueue>(Symbol{"SQ"}, 1));
    return objects;
  };
  ExploreResult base;
  {
    Explorer ex(cfg, make_objects(), enumerating({}, &spec));
    base = ex.run();
  }
  Explorer ex(cfg, make_objects(), enumerating(reduction(true, false), &spec));
  ExploreResult por = ex.run();

  EXPECT_EQ(base.ok(), por.ok());
  EXPECT_EQ(base.events, por.events);
  EXPECT_EQ(history_set(base, serialize), history_set(por, serialize));
}

TEST(PorEquivalence, MsQueueHistorySetExactUnderPor) {
  auto seq = std::make_shared<QueueSpec>(Symbol{"Q"});
  SeqAsCaSpec spec(seq);
  WorldConfig cfg;
  ThreadProgram enq{0, {Call{0, Symbol{"enq"}, iv(7)}}};
  ThreadProgram deq{1, {Call{0, Symbol{"deq"}, Value::unit()}}};
  cfg.programs = {enq, deq};
  cfg.object_names = {Symbol{"Q"}};
  cfg.spec = &spec;
  cfg.record_history = true;
  cfg.record_trace = true;
  cfg.heap_cells = 16;
  cfg.global_cells = 4;

  auto make_objects = [] {
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(std::make_unique<SimMsQueue>(Symbol{"Q"}));
    return objects;
  };
  ExploreResult base;
  {
    Explorer ex(cfg, make_objects(), enumerating({}, &spec));
    base = ex.run();
  }
  Explorer ex(cfg, make_objects(), enumerating(reduction(true, false), &spec));
  ExploreResult por = ex.run();

  EXPECT_EQ(base.ok(), por.ok());
  EXPECT_EQ(history_set(base, serialize), history_set(por, serialize));
}

// ------------------------------------------------------------------ //
// Replay under reduction (the regression this PR fixes: replay() used to
// reuse the exploration config, so a reduced exploration's recording
// flags leaked and a second replay dangled the first world's config).

std::unique_ptr<SimExchanger> echo_bug(Symbol name) {
  auto object = std::make_unique<SimExchanger>(name);
  SimHooks hooks;
  hooks.respond = [](const ThreadCtx& t, Value ret) {
    if (t.pc == ExchangerPc::kSuccessReturnB) {
      return Value::pair(true, t.regs[ExchangerReg::kV]);
    }
    return ret;
  };
  object->set_hooks(std::move(hooks));
  return object;
}

TEST(PorEquivalence, ViolationUnderReductionReplays) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig cfg = exchanger_config(&spec, 2, /*symmetric=*/false);
  std::vector<std::unique_ptr<SimObject>> objects;
  objects.push_back(echo_bug(Symbol{"E"}));
  Explorer ex(cfg, std::move(objects), reduction(true, false));
  ExploreResult r = ex.run();
  ASSERT_FALSE(r.ok());
  const ScheduleViolation& v = r.violations.front();
  ASSERT_FALSE(v.schedule.empty());

  // The schedule found under reduction replays to the same violation.
  World replayed = ex.replay(v.schedule);
  ASSERT_TRUE(replayed.violated());
  EXPECT_EQ(*replayed.violation(), v.what);

  // Regression: a second replay must not invalidate the first world (each
  // replay owns its recording config now).
  World second = ex.replay(v.schedule);
  ASSERT_TRUE(second.violated());
  EXPECT_EQ(*replayed.violation(), *second.violation());
  EXPECT_FALSE(replayed.history().actions().empty());

  // Re-validate with reductions off: the same schedule reproduces the
  // violation on a fresh unreduced explorer.
  std::vector<std::unique_ptr<SimObject>> fresh;
  fresh.push_back(echo_bug(Symbol{"E"}));
  Explorer plain(cfg, std::move(fresh));
  World unreduced = plain.replay(v.schedule);
  ASSERT_TRUE(unreduced.violated());
  EXPECT_EQ(*unreduced.violation(), v.what);
}

// ------------------------------------------------------------------ //
// Checker-side symmetry: verdicts with CalCheckOptions::symmetry on equal
// those with it off, accept and reject alike.

History wide_overlap(std::size_t width, bool poison_last) {
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

TEST(PorEquivalence, CheckerSymmetryVerdictEquivalence) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  std::vector<std::pair<std::string, History>> corpus;
  for (std::size_t w : {2u, 4u, 7u}) {
    corpus.emplace_back("overlap-" + std::to_string(w), wide_overlap(w, false));
    corpus.emplace_back("reject-" + std::to_string(w), wide_overlap(w, true));
  }
  corpus.emplace_back("mixed", HistoryBuilder()
                                   .call(1, "E", "exchange", iv(3))
                                   .call(2, "E", "exchange", iv(4))
                                   .ret(2, Value::pair(true, 3))
                                   .ret(1, Value::pair(true, 4))
                                   .op(3, "E", "exchange", iv(7),
                                       Value::pair(false, 7))
                                   .history());

  for (const auto& [name, h] : corpus) {
    SCOPED_TRACE(name);
    CalCheckOptions opts;
    opts.order_check = false;  // symmetry is a reduction of the engine
    CalChecker plain(spec, opts);
    opts.symmetry = true;
    CalChecker reduced(spec, opts);
    const CalCheckResult a = plain.check(h);
    const CalCheckResult b = reduced.check(h);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_LE(b.visited_states, a.visited_states);
  }
}

// The reduction itself: on the all-fail overlap rejection the symmetric
// checker visits O(width) states where the plain one visits O(2^width).
TEST(PorEquivalence, CheckerSymmetryReductionIsSuperlinear) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  const History h = wide_overlap(7, /*poison_last=*/true);
  CalCheckOptions opts;
  opts.order_check = false;  // symmetry is a reduction of the engine
  CalChecker plain(spec, opts);
  opts.symmetry = true;
  CalChecker reduced(spec, opts);
  const CalCheckResult a = plain.check(h);
  const CalCheckResult b = reduced.check(h);
  ASSERT_FALSE(a.ok);
  ASSERT_FALSE(b.ok);
  EXPECT_GE(a.visited_states, 5 * b.visited_states);
  EXPECT_GT(b.symmetry_merged, 0u);
}

}  // namespace
}  // namespace cal::sched
