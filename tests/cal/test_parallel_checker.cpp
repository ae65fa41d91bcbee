// Parallel batch checking: `cal_check --jobs` runs many independent
// checks at once on par::TaskPool workers, each one a sequential search,
// all of them through one shared spec. Checks that run side by side must
// reach exactly what the same checks reach one after another — verdict,
// witness and every counter — on the engine and on the order path alike:
// per-check memo tables, per-thread leased scratch and the shared spec
// must never leak between concurrent checks. Every accepting witness must
// also agree (Def. 5) with its history. The stress cases flood the pool
// with the wide-overlap workload, the subset enumeration's adversarial
// case. As `cal_check --jobs` workers do, every pool task also parses the
// history's text itself and checks that copy, which reads the records the
// parse kept (and runs the parser's per-thread caches on every worker).
// The CI TSan job runs this suite.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/parallel/task_pool.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/text.hpp"
#include "corpus.hpp"

namespace cal {
namespace {

const Symbol kE{"E"};
const Symbol kEx{"exchange"};
const Symbol kS{"S"};

/// Pool workers, and how many times each history is checked at once.
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kCopies = 8;

/// Everything a check reports; none of it may depend on what else runs.
struct Outcome {
  bool ok = false;
  bool exhausted = false;
  bool order_checked = false;
  std::optional<std::vector<CaElement>> witness;
  std::size_t visited_states = 0;
  std::size_t visited_bytes = 0;
  std::size_t fired_elements = 0;
  std::size_t step_cache_hits = 0;
  std::size_t step_cache_misses = 0;
  std::size_t pruned_subsets = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const CalCheckResult& r) {
  Outcome o;
  o.ok = r.ok;
  o.exhausted = r.exhausted;
  o.order_checked = r.order_checked;
  if (r.witness) o.witness = r.witness->elements();
  o.visited_states = r.visited_states;
  o.visited_bytes = r.visited_bytes;
  o.fired_elements = r.fired_elements;
  o.step_cache_hits = r.step_cache_hits;
  o.step_cache_misses = r.step_cache_misses;
  o.pruned_subsets = r.pruned_subsets;
  return o;
}

/// Checks every history one after another, then kCopies times each, all
/// at once on a pool of `workers` (0 = one per hardware thread, as
/// `--jobs 0`) through one shared checker: each task checks the shared
/// history and a copy it parses from the history's text. Every concurrent
/// outcome must equal the sequential one, which is returned.
std::vector<Outcome> expect_parallel_matches_sequential(
    const CaSpec& spec, const std::vector<History>& histories,
    const CalCheckOptions& opts, std::size_t workers = kWorkers) {
  const CalChecker checker(spec, opts);
  std::vector<Outcome> want;
  std::vector<std::string> texts;
  want.reserve(histories.size());
  for (const History& h : histories) {
    want.push_back(outcome_of(checker.check(h)));
    texts.push_back(format_history(h));
  }

  std::vector<Outcome> got(histories.size() * kCopies);
  std::vector<Outcome> got_parsed(got.size());
  {
    par::TaskPool pool(workers);
    for (std::size_t i = 0; i < got.size(); ++i) {
      pool.submit([&, i] {
        const std::size_t k = i % histories.size();
        got[i] = outcome_of(checker.check(histories[k]));
        const ParseResult<History> parsed = parse_history(texts[k]);
        if (parsed) got_parsed[i] = outcome_of(checker.check(*parsed.value));
      });
    }
    pool.wait_idle();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::size_t k = i % histories.size();
    EXPECT_EQ(got[i], want[k])
        << "order_check=" << opts.order_check << " copy "
        << i / histories.size() << " diverged on\n"
        << histories[k].to_string();
    EXPECT_EQ(got_parsed[i], want[k])
        << "order_check=" << opts.order_check << " parsed copy "
        << i / histories.size() << " diverged on\n"
        << texts[k];
  }
  return want;
}

/// Runs `histories` through both paths (the engine, and the default that
/// consults the spec's order path first): parallel equals sequential, the
/// two paths agree on every verdict, and every accepting witness of a
/// complete history agrees with it. `expect` pins the verdict.
void expect_equivalent(const CaSpec& spec,
                       const std::vector<History>& histories,
                       std::optional<bool> expect = std::nullopt) {
  std::vector<Outcome> engine;
  for (bool order_check : {false, true}) {
    CalCheckOptions opts;
    opts.order_check = order_check;
    const std::vector<Outcome> outcomes =
        expect_parallel_matches_sequential(spec, histories, opts);
    for (std::size_t k = 0; k < histories.size(); ++k) {
      const History& h = histories[k];
      const Outcome& o = outcomes[k];
      if (!order_check) {
        EXPECT_FALSE(o.order_checked);
      } else {
        EXPECT_EQ(o.ok, engine[k].ok) << "paths disagree on\n"
                                      << h.to_string();
      }
      if (expect) {
        EXPECT_EQ(o.ok, *expect) << h.to_string();
      }
      if (o.ok && h.complete()) {
        const AgreeResult a = agrees_with(h, CaTrace(*o.witness));
        EXPECT_TRUE(a.agrees) << "order_check=" << order_check << ": "
                              << a.reason << "\n"
                              << h.to_string();
      }
    }
    if (!order_check) engine = outcomes;
  }
}

class ParallelCheckerEquivalence : public ::testing::TestWithParam<unsigned> {
};

TEST_P(ParallelCheckerEquivalence, ValidExchangerRuns) {
  std::mt19937 rng(GetParam());
  ExchangerSpec spec(kE, kEx);
  const History h = random_exchanger_history(rng, 4, 3);
  ASSERT_TRUE(h.well_formed());
  expect_equivalent(spec, {h}, true);
}

TEST_P(ParallelCheckerEquivalence, CorruptedExchangerRuns) {
  std::mt19937 rng(GetParam() + 100);
  ExchangerSpec spec(kE, kEx);
  const auto bad = corrupt(random_exchanger_history(rng, 4, 3));
  if (!bad) GTEST_SKIP() << "run had no successful exchange";
  expect_equivalent(spec, {*bad}, false);
}

TEST_P(ParallelCheckerEquivalence, PendingInvocations) {
  // Drop the tail of the responses: concurrent checks must agree on
  // completions (response extension vs invocation removal) too.
  std::mt19937 rng(GetParam() + 200);
  ExchangerSpec spec(kE, kEx);
  History h = random_exchanger_history(rng, 3, 2);
  std::vector<Action> actions = h.actions();
  std::size_t responses_dropped = 0;
  while (!actions.empty() && responses_dropped < 2) {
    if (actions.back().is_respond()) ++responses_dropped;
    actions.pop_back();
  }
  const History pending{std::move(actions)};
  if (!pending.well_formed()) GTEST_SKIP();
  expect_equivalent(spec, {pending});
}

TEST_P(ParallelCheckerEquivalence, SequentialSpecOverAdapter) {
  // Three different histories share the pool, so unlike searches run side
  // by side on one SeqAsCaSpec.
  std::mt19937 rng(GetParam() + 300);
  SeqAsCaSpec spec(std::make_shared<StackSpec>(kS));
  std::vector<History> histories;
  for (int round = 0; round < 3; ++round) {
    histories.push_back(garbage_stack_history(rng, 6));
  }
  expect_equivalent(spec, histories);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCheckerEquivalence,
                         ::testing::Range(0u, 15u));

TEST(ParallelCheckerStress, WideOverlapUnderContention) {
  // Every worker runs the adversarial workload at once, accepting and
  // rejecting copies interleaved, through one shared engine checker.
  ExchangerSpec spec(kE, kEx);
  CalCheckOptions opts;
  opts.order_check = false;  // the subject is the engine's search
  std::vector<History> histories;
  for (int round = 0; round < 5; ++round) {
    histories.push_back(wide_overlap_history(7, /*corrupt_one=*/false));
    histories.push_back(wide_overlap_history(7, /*corrupt_one=*/true));
  }
  const std::vector<Outcome> want =
      expect_parallel_matches_sequential(spec, histories, opts);
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(want[k].ok, k % 2 == 0);
  }
}

TEST(ParallelCheckerStress, MaxVisitedCapStillTerminates) {
  // The cap is per check: every concurrent copy trips it on its own.
  ExchangerSpec spec(kE, kEx);
  CalCheckOptions opts;
  opts.max_visited = 16;
  opts.order_check = false;  // the cap binds the engine
  const std::vector<Outcome> want = expect_parallel_matches_sequential(
      spec, {wide_overlap_history(8, /*corrupt_one=*/true)}, opts);
  EXPECT_FALSE(want[0].ok);
  EXPECT_TRUE(want[0].exhausted);
}

TEST(ParallelChecker, ZeroThreadsMeansHardwareConcurrency) {
  // `--jobs 0`: a pool of one worker per hardware thread.
  EXPECT_GE(par::resolve_threads(0), 1u);
  ExchangerSpec spec(kE, kEx);
  CalCheckOptions opts;
  opts.order_check = false;  // the subject is the engine's search
  const std::vector<Outcome> want = expect_parallel_matches_sequential(
      spec, {wide_overlap_history(4, false)}, opts, /*workers=*/0);
  EXPECT_TRUE(want[0].ok);
}

}  // namespace
}  // namespace cal
