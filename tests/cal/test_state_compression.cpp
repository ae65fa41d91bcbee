// State-space compression equivalence: the fingerprinted visited set
// (default) and the exact stored-key set (CalCheckOptions::exact_visited)
// must produce identical verdicts on the whole corpus — the checked-in
// example histories plus the generated stress families of tests/cal/
// corpus.hpp. Every accepting witness must additionally replay against
// the spec (T ∈ 𝒯) and agree (Def. 5) with the history. Plus unit tests
// for the fingerprint primitives themselves.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/fingerprint.hpp"
#include "cal/replay.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/text.hpp"
#include "corpus.hpp"

namespace cal {
namespace {

const Symbol kE{"E"};
const Symbol kEx{"exchange"};
const Symbol kS{"S"};

// ---------------------------------------------------------------------------
// Fingerprint primitives.

TEST(Fingerprint, DeterministicAndSensitive) {
  const std::vector<std::int64_t> a{1, 2, 3};
  const std::vector<std::int64_t> b{1, 2, 4};
  const std::vector<std::int64_t> c{1, 2};
  EXPECT_EQ(fingerprint_key(a), fingerprint_key(a));
  EXPECT_NE(fingerprint_key(a), fingerprint_key(b));
  EXPECT_NE(fingerprint_key(a), fingerprint_key(c));
  // Length participates in the seed: a zero-extended key differs.
  EXPECT_NE(fingerprint_key({0}), fingerprint_key({0, 0}));
  EXPECT_NE(fingerprint_key({}), fingerprint_key({0}));
}

TEST(Fingerprint, NeverAllZero) {
  // The all-zero fingerprint marks an empty slot; the empty key (and any
  // other) must be remapped away from it.
  const Fingerprint128 fp = fingerprint_key({});
  EXPECT_FALSE(fp.lo == 0 && fp.hi == 0);
}

TEST(FingerprintSet, InsertContainsGrow) {
  FingerprintSet set(4);
  std::vector<Fingerprint128> fps;
  for (std::int64_t i = 0; i < 1000; ++i) {
    fps.push_back(fingerprint_key({i, i * 7, i ^ 42}));
  }
  for (const Fingerprint128& fp : fps) {
    EXPECT_FALSE(set.contains(fp));
    EXPECT_TRUE(set.insert(fp));   // new
    EXPECT_FALSE(set.insert(fp));  // duplicate
    EXPECT_TRUE(set.contains(fp));
  }
  EXPECT_EQ(set.size(), fps.size());
  // Open addressing at load factor <= 1/2: table is bounded but nontrivial.
  EXPECT_GE(set.bytes(), fps.size() * sizeof(Fingerprint128));
}

TEST(FingerprintSet, CompressesAgainstStoredKeys) {
  // The point of the tentpole: 16 bytes per state instead of the full key.
  FingerprintSet set(64);
  std::vector<std::int64_t> key(64, 0);
  std::size_t exact_bytes = 0;
  for (std::int64_t i = 0; i < 512; ++i) {
    key[0] = i;
    set.insert(fingerprint_key(key));
    exact_bytes += key.size() * sizeof(std::int64_t);
  }
  EXPECT_EQ(set.size(), 512u);
  EXPECT_LT(set.bytes(), exact_bytes / 2);
}

// ---------------------------------------------------------------------------
// Equivalence harness: fingerprint vs exact.

void expect_modes_equivalent(const CaSpec& spec, const History& h,
                             std::optional<bool> expect = std::nullopt) {
  std::optional<bool> verdict;
  for (bool exact : {false, true}) {
    CalCheckOptions opts;
    opts.exact_visited = exact;
    opts.order_check = false;  // the subject is the engine's visited set
    CalChecker checker(spec, opts);
    CalCheckResult r = checker.check(h);
    if (!verdict) {
      verdict = r.ok;
    } else {
      ASSERT_EQ(r.ok, *verdict) << "exact=" << exact << " diverged on\n"
                                << h.to_string();
    }
    EXPECT_GT(r.visited_bytes, 0u) << "exact=" << exact;
    if (r.ok) {
      // The witness must be spec-admissible, not just present.
      ReplayResult replayed = replay_ca(*r.witness, spec);
      EXPECT_TRUE(replayed.ok) << "exact=" << exact << ": " << replayed.reason;
      if (h.complete()) {
        AgreeResult a = agrees_with(h, *r.witness);
        EXPECT_TRUE(a.agrees) << "exact=" << exact << ": " << a.reason
                              << "\n"
                              << h.to_string() << r.witness->to_string();
      }
    }
  }
  if (expect) {
    EXPECT_EQ(*verdict, *expect) << h.to_string();
  }
}


TEST(StateCompressionCorpus, ExampleHistories) {
  ExchangerSpec ex(kE, kEx);
  expect_modes_equivalent(ex, load_history("fig3_h1.history"), true);
  expect_modes_equivalent(ex, load_history("fig3_h3.history"), false);
  SeqAsCaSpec stack(std::make_shared<StackSpec>(kS));
  expect_modes_equivalent(stack, load_history("stack.history"), true);
}

class StateCompressionEquivalence : public ::testing::TestWithParam<unsigned> {
};

TEST_P(StateCompressionEquivalence, ValidExchangerRuns) {
  std::mt19937 rng(GetParam());
  ExchangerSpec spec(kE, kEx);
  const History h = random_exchanger_history(rng, 4, 3);
  ASSERT_TRUE(h.well_formed());
  expect_modes_equivalent(spec, h, true);
}

TEST_P(StateCompressionEquivalence, CorruptedExchangerRuns) {
  std::mt19937 rng(GetParam() + 500);
  ExchangerSpec spec(kE, kEx);
  const auto bad = corrupt(random_exchanger_history(rng, 4, 3));
  if (!bad) GTEST_SKIP() << "run had no successful exchange";
  expect_modes_equivalent(spec, *bad, false);
}

TEST_P(StateCompressionEquivalence, PendingInvocations) {
  std::mt19937 rng(GetParam() + 600);
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
  expect_modes_equivalent(spec, pending);
}

TEST_P(StateCompressionEquivalence, SequentialSpecOverAdapter) {
  std::mt19937 rng(GetParam() + 700);
  SeqAsCaSpec spec(std::make_shared<StackSpec>(kS));
  for (int round = 0; round < 3; ++round) {
    expect_modes_equivalent(spec, garbage_stack_history(rng, 6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateCompressionEquivalence,
                         ::testing::Range(0u, 10u));

TEST(StateCompressionStress, WideOverlapBothModes) {
  ExchangerSpec spec(kE, kEx);
  expect_modes_equivalent(spec, wide_overlap_history(6, false), true);
  expect_modes_equivalent(spec, wide_overlap_history(6, true), false);
}

TEST(StateCompressionStress, FingerprintsUseLessMemory) {
  // On the subset-enumeration blowup the fingerprinted set must be at
  // least 2x smaller than the stored-key set (acceptance criterion).
  ExchangerSpec spec(kE, kEx);
  const History h = wide_overlap_history(7, /*corrupt_one=*/true);
  CalCheckOptions fp_opts;
  fp_opts.order_check = false;  // the subject is the engine's visited set
  CalCheckOptions exact_opts = fp_opts;
  exact_opts.exact_visited = true;
  CalCheckResult fp = CalChecker(spec, fp_opts).check(h);
  CalCheckResult exact = CalChecker(spec, exact_opts).check(h);
  EXPECT_EQ(fp.ok, exact.ok);
  EXPECT_EQ(fp.visited_states, exact.visited_states);
  EXPECT_GE(exact.visited_bytes, 2 * fp.visited_bytes)
      << "fingerprints=" << fp.visited_bytes
      << " exact=" << exact.visited_bytes;
}

TEST(StateCompression, MemoAndPruningCountersPopulated) {
  // The wide-overlap workload revisits states: the step cache must see
  // hits, and the exchanger pre-filter must prune mismatched pairs.
  ExchangerSpec spec(kE, kEx);
  const History h = wide_overlap_history(6, /*corrupt_one=*/true);
  CalCheckOptions opts;
  opts.order_check = false;  // the counters are the engine's
  CalCheckResult r = CalChecker(spec, opts).check(h);
  EXPECT_FALSE(r.ok);
  EXPECT_GT(r.step_cache_hits + r.step_cache_misses, 0u);
  EXPECT_GT(r.pruned_subsets, 0u);
}

}  // namespace
}  // namespace cal
