// Engine equivalence: all three checkers run on the unified search core
// (src/cal/engine/), so exact and fingerprint dedup must agree — on
// verdicts, and byte-for-byte on witnesses.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/engine/cal_policy.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/interval_lin.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "corpus.hpp"
#include "policy_pins.hpp"

namespace cal {
namespace {

const Symbol kE{"E"};
const Symbol kEx{"exchange"};
const Symbol kS{"S"};
const Symbol kQ{"Q"};

Value iv(std::int64_t x) { return Value::integer(x); }

// ---------------------------------------------------------------------------
// Witness validity: a linearization must replay through the sequential
// spec (backtracking over outcome choices — specs may be nondeterministic).

bool replay_lin_from(const SequentialSpec& spec, const SpecState& state,
                     const std::vector<Operation>& ops, std::size_t i) {
  if (i == ops.size()) return true;
  const Operation& op = ops[i];
  for (const SeqStepResult& sr :
       spec.step(state, op.tid, op.object, op.method, op.arg, op.ret)) {
    if (replay_lin_from(spec, sr.next, ops, i + 1)) return true;
  }
  return false;
}

bool replay_lin(const SequentialSpec& spec,
                const std::vector<Operation>& witness) {
  return replay_lin_from(spec, spec.initial(), witness, 0);
}

// ---------------------------------------------------------------------------
// LinChecker across both dedup modes.

void expect_lin_grid_equivalent(const SequentialSpec& spec, const History& h,
                                std::optional<bool> expect = std::nullopt) {
  std::optional<bool> verdict;
  std::optional<std::vector<Operation>> sequential_witness;
  for (bool exact : {false, true}) {
    LinCheckOptions opts;
    opts.exact_visited = exact;
    opts.order_check = false;  // the subject is the engine grid
    LinChecker checker(spec, opts);
    LinCheckResult r = checker.check(h);
    if (!verdict) {
      verdict = r.ok;
    } else {
      ASSERT_EQ(r.ok, *verdict) << "exact=" << exact << " diverged on\n"
                                << h.to_string();
    }
    if (r.visited_states > 0) {
      EXPECT_GT(r.visited_bytes, 0u) << "exact=" << exact;
    }
    if (r.ok) {
      ASSERT_TRUE(r.witness.has_value());
      EXPECT_TRUE(replay_lin(spec, *r.witness))
          << "witness does not replay, exact=" << exact << "\n"
          << h.to_string();
      if (h.complete()) {
        // Every operation of a complete history must appear in the
        // linearization, with its recorded return value.
        std::vector<Operation> expected;
        for (const OpRecord& rec : h.operations()) expected.push_back(rec.op);
        std::vector<Operation> got = *r.witness;
        std::sort(expected.begin(), expected.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected) << h.to_string();
      }
      // The driver is deterministic: exact and fingerprint dedup walk the
      // same order, so the witness is byte-identical.
      if (!sequential_witness) {
        sequential_witness = *r.witness;
      } else {
        EXPECT_EQ(*r.witness, *sequential_witness)
            << "sequential witness changed with exact=" << exact;
      }
    }
  }
  if (expect) {
    EXPECT_EQ(*verdict, *expect) << h.to_string();
  }
}

TEST(LinEngineEquivalence, HandcraftedStackHistories) {
  StackSpec spec(kS);
  expect_lin_grid_equivalent(spec, History{}, true);
  expect_lin_grid_equivalent(spec,
                             HistoryBuilder()
                                 .op(1, "S", "push", iv(1),
                                     Value::boolean(true))
                                 .op(2, "S", "pop", Value::unit(),
                                     Value::pair(true, 1))
                                 .history(),
                             true);
  expect_lin_grid_equivalent(spec,
                             HistoryBuilder()
                                 .op(1, "S", "push", iv(1),
                                     Value::boolean(true))
                                 .op(2, "S", "pop", Value::unit(),
                                     Value::pair(true, 2))
                                 .history(),
                             false);
  // Concurrent push/pop: both orders must be explored.
  expect_lin_grid_equivalent(spec,
                             HistoryBuilder()
                                 .call(1, "S", "push", iv(7))
                                 .call(2, "S", "pop")
                                 .ret(2, Value::pair(true, 7))
                                 .ret(1, Value::boolean(true))
                                 .history(),
                             true);
}

class LinEngineSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(LinEngineSeeds, GarbageStackRuns) {
  std::mt19937 rng(GetParam() + 100);
  StackSpec spec(kS);
  for (int round = 0; round < 3; ++round) {
    expect_lin_grid_equivalent(spec, garbage_stack_history(rng, 6));
  }
}

TEST_P(LinEngineSeeds, AgreesWithCalOverAdapter) {
  // Lin(S) and CAL(SeqAsCa(S)) decide the same membership problem, and
  // LinChecker's engine path runs exactly that CAL search, so this checks
  // its front end (options, witness flattening); LinEnginePins pins the
  // search itself to values recorded from the dedicated lin policy it
  // replaced.
  std::mt19937 rng(GetParam() + 200);
  auto stack = std::make_shared<StackSpec>(kS);
  SeqAsCaSpec adapter(stack);
  LinCheckOptions lin_opts;
  lin_opts.order_check = false;
  CalCheckOptions cal_opts;
  cal_opts.order_check = false;
  for (int round = 0; round < 3; ++round) {
    const History h = garbage_stack_history(rng, 6);
    const bool lin = static_cast<bool>(LinChecker(*stack, lin_opts).check(h));
    const bool cal = static_cast<bool>(CalChecker(adapter, cal_opts).check(h));
    EXPECT_EQ(lin, cal) << h.to_string();
  }
}

TEST_P(LinEngineSeeds, PendingInvocations) {
  std::mt19937 rng(GetParam() + 300);
  StackSpec spec(kS);
  History h = garbage_stack_history(rng, 5);
  std::vector<Action> actions = h.actions();
  if (!actions.empty()) actions.pop_back();  // drop the last response
  const History pending{std::move(actions)};
  if (!pending.well_formed()) GTEST_SKIP();
  expect_lin_grid_equivalent(spec, pending);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinEngineSeeds, ::testing::Range(0u, 10u));

TEST(LinEnginePins, RecordedCountersAndWitnesses) {
  // Verdict, visited states, step-memo hits and misses, and witness of
  // every lin-corpus history in both dedup modes, as the dedicated lin
  // policy produced them before LinChecker moved onto CalPolicy.
  const std::vector<std::string> expected = pins::expected_lines(
      std::string(CAL_TEST_DATA_DIR) + "/policy_pins.txt", "lin ");
  const std::vector<std::string> got = pins::lin_pin_lines();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]);
  }
}

// ---------------------------------------------------------------------------
// IntervalLinChecker across both dedup modes.

void expect_interval_grid_equivalent(
    const IntervalSpec& spec, const History& h,
    std::optional<bool> expect = std::nullopt) {
  const std::vector<OpRecord> recs = h.operations();
  std::optional<bool> verdict;
  for (bool exact : {false, true}) {
    IntervalCheckOptions opts;
    opts.exact_visited = exact;
    IntervalLinChecker checker(spec, opts);
    IntervalCheckResult r = checker.check(h);
    if (!verdict) {
      verdict = r.ok;
    } else {
      ASSERT_EQ(r.ok, *verdict) << "exact=" << exact << " diverged on\n"
                                << h.to_string();
    }
    if (r.ok) {
      ASSERT_TRUE(r.intervals.has_value());
      ASSERT_EQ(r.intervals->size(), recs.size());
      // Intervals must be well-formed and respect the real-time order.
      for (std::size_t i = 0; i < recs.size(); ++i) {
        if (recs[i].is_pending()) continue;
        EXPECT_LE((*r.intervals)[i].first, (*r.intervals)[i].second);
        for (std::size_t j = 0; j < recs.size(); ++j) {
          if (recs[j].is_pending() || !History::precedes(recs[i], recs[j]))
            continue;
          EXPECT_LT((*r.intervals)[i].second, (*r.intervals)[j].first)
              << "real-time order violated, exact=" << exact << "\n"
              << h.to_string();
        }
      }
    }
  }
  if (expect) {
    EXPECT_EQ(*verdict, *expect) << h.to_string();
  }
}

TEST(IntervalEngineEquivalence, SyncQueueScenarios) {
  SyncQueueIntervalSpec spec(kQ);
  expect_interval_grid_equivalent(spec, History{}, true);
  expect_interval_grid_equivalent(spec,
                                  HistoryBuilder()
                                      .call(1, "Q", "put", iv(5))
                                      .call(2, "Q", "take")
                                      .ret(1, Value::boolean(true))
                                      .ret(2, Value::pair(true, 5))
                                      .history(),
                                  true);
  expect_interval_grid_equivalent(spec,
                                  HistoryBuilder()
                                      .op(1, "Q", "put", iv(5),
                                          Value::boolean(true))
                                      .op(2, "Q", "take", Value::unit(),
                                          Value::pair(true, 5))
                                      .history(),
                                  false);
  expect_interval_grid_equivalent(spec,
                                  HistoryBuilder()
                                      .call(1, "Q", "put", iv(1))
                                      .call(2, "Q", "put", iv(2))
                                      .call(3, "Q", "take")
                                      .call(4, "Q", "take")
                                      .ret(3, Value::pair(true, 2))
                                      .ret(4, Value::pair(true, 1))
                                      .ret(1, Value::boolean(true))
                                      .ret(2, Value::boolean(true))
                                      .history(),
                                  true);
  // Pending take completed to explain the successful put.
  expect_interval_grid_equivalent(spec,
                                  HistoryBuilder()
                                      .call(2, "Q", "take")
                                      .call(1, "Q", "put", iv(9))
                                      .ret(1, Value::boolean(true))
                                      .history(),
                                  true);
}

TEST(IntervalEngineEquivalence, TimeoutLadders) {
  // Sequences of timed-out puts/takes with varying overlap: bigger state
  // spaces.
  SyncQueueIntervalSpec spec(kQ);
  for (std::size_t width : {2u, 3u, 4u}) {
    HistoryBuilder b;
    for (std::size_t t = 1; t <= width; ++t) {
      b.call(static_cast<ThreadId>(t), "Q",
             t % 2 == 0 ? "take" : "put",
             t % 2 == 0 ? Value::unit() : iv(static_cast<std::int64_t>(t)));
    }
    for (std::size_t t = 1; t <= width; ++t) {
      b.ret(static_cast<ThreadId>(t), t % 2 == 0 ? Value::pair(false, 0)
                                                 : Value::boolean(false));
    }
    expect_interval_grid_equivalent(spec, b.history(), true);
  }
}

// ---------------------------------------------------------------------------
// CAL witness determinism: the sequential driver must produce the same
// witness bytes regardless of dedup mode (test_state_compression covers
// the verdict grid; this pins the witness itself).

TEST(CalEngineEquivalence, SequentialWitnessIsDedupModeInvariant) {
  std::mt19937 rng(42);
  ExchangerSpec spec(kE, kEx);
  for (unsigned seed = 0; seed < 10; ++seed) {
    rng.seed(seed);
    const History h = random_exchanger_history(rng, 4, 3);
    CalCheckOptions fp_opts;
    fp_opts.order_check = false;  // the subject is the engine's witness
    CalCheckOptions exact_opts = fp_opts;
    exact_opts.exact_visited = true;
    const CalCheckResult a = CalChecker(spec, fp_opts).check(h);
    const CalCheckResult b = CalChecker(spec, exact_opts).check(h);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.witness->elements(), b.witness->elements()) << h.to_string();
    EXPECT_EQ(a.visited_states, b.visited_states);
    EXPECT_EQ(a.fired_elements, b.fired_elements);
  }
}

// ---------------------------------------------------------------------------
// Nested searches. The CAL expansion keeps its per-node scratch in frames
// leased from a per-thread stack, so a search started from inside another
// search on the same thread — from a spec step, or from a collect sink —
// must leave the outer search's enumeration untouched.

/// Engine-only options: the nested searches are the subject, and the
/// exchanger's order path would answer without one.
CalCheckOptions engine_opts() {
  CalCheckOptions opts;
  opts.order_check = false;
  return opts;
}

/// The exchanger spec, running a whole inner CAL check on every step.
class NestingSpec final : public CaSpec {
 public:
  NestingSpec(const CaSpec& inner, History nested)
      : inner_(inner), nested_(std::move(nested)) {}

  SpecState initial() const override { return inner_.initial(); }
  std::size_t max_element_size() const override {
    return inner_.max_element_size();
  }
  std::vector<CaStepResult> step(
      const SpecState& state, Symbol object,
      const std::vector<Operation>& ops) const override {
    EXPECT_TRUE(CalChecker(inner_, engine_opts()).check(nested_).ok);
    return inner_.step(state, object, ops);
  }
  bool compatible(Symbol object,
                  const std::vector<Operation>& ops) const override {
    return inner_.compatible(object, ops);
  }

 private:
  const CaSpec& inner_;
  History nested_;
};

TEST(CalEngineEquivalence, NestedCheckInsideSpecStepLeavesOuterIntact) {
  std::mt19937 rng(7);
  ExchangerSpec spec(kE, kEx);
  const History nested = wide_overlap_history(5, false);
  NestingSpec nesting(spec, nested);
  for (unsigned seed = 0; seed < 6; ++seed) {
    rng.seed(seed);
    const History h = random_exchanger_history(rng, 4, 3);
    const CalCheckOptions opts = engine_opts();
    const CalCheckResult plain = CalChecker(spec, opts).check(h);
    const CalCheckResult nested_run = CalChecker(nesting, opts).check(h);
    ASSERT_EQ(plain.ok, nested_run.ok);
    EXPECT_EQ(plain.witness->elements(), nested_run.witness->elements());
    EXPECT_EQ(plain.visited_states, nested_run.visited_states);
    EXPECT_EQ(plain.fired_elements, nested_run.fired_elements);
    EXPECT_EQ(plain.pruned_subsets, nested_run.pruned_subsets);
  }
}

TEST(CalEngineEquivalence, NestedCheckInsideCollectSinkLeavesOuterIntact) {
  ExchangerSpec spec(kE, kEx);
  const History outer = wide_overlap_history(6, false);
  const History nested = wide_overlap_history(4, false);
  const std::vector<OpRecord> ops = outer.operations();
  const auto collect = [&](bool nest) {
    engine::CalPolicy policy(ops, spec, engine::Pending::kComplete,
                             engine::CalPolicy::batch_roots(spec, ops));
    engine::SequentialSearch<engine::CalPolicy> driver(
        policy, engine::SearchOptions{});
    std::vector<std::vector<CaElement>> goals;
    const engine::SearchStats stats = driver.run_collect(
        [&](const auto&, const std::vector<CaElement>& path) {
          if (nest) {
            EXPECT_TRUE(CalChecker(spec, engine_opts()).check(nested).ok);
          }
          goals.push_back(path);
        });
    return std::make_tuple(goals, stats.visited_states,
                           policy.fired_elements());
  };
  const auto plain = collect(false);
  const auto nested_run = collect(true);
  EXPECT_FALSE(std::get<0>(plain).empty());
  EXPECT_EQ(plain, nested_run);
}

}  // namespace
}  // namespace cal
