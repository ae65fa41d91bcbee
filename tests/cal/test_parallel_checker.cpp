// Parallel-vs-sequential equivalence for the CAL membership checker: the
// same history corpus the property tests draw from, checked at
// threads ∈ {1, 2, 8}, must produce identical verdicts — and every
// parallel witness must itself satisfy the Def. 5 agreement with the
// history. Plus a stress run on the wide-overlap workload, the subset
// enumeration's adversarial case, under full pool contention.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"

namespace cal {
namespace {

const Symbol kE{"E"};
const Symbol kEx{"exchange"};
const Symbol kS{"S"};

Value iv(std::int64_t x) { return Value::integer(x); }

/// Valid exchanger execution (same shape as the property-test generator):
/// threads invoke, overlapping undecided operations pair up or fail,
/// responses are emitted after commitment.
History random_exchanger_history(std::mt19937& rng, std::size_t n_threads,
                                 std::size_t ops_per_thread) {
  struct Active {
    ThreadId tid;
    std::int64_t v;
    bool decided = false;
    Value ret;
  };
  History h;
  std::vector<std::size_t> remaining(n_threads, ops_per_thread);
  std::vector<std::optional<Active>> active(n_threads);
  std::int64_t next_value = 1;
  auto rnd = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  auto some_left = [&] {
    for (std::size_t t = 0; t < n_threads; ++t) {
      if (remaining[t] > 0 || active[t].has_value()) return true;
    }
    return false;
  };
  while (some_left()) {
    switch (rnd(3)) {
      case 0: {
        std::vector<std::size_t> can;
        for (std::size_t t = 0; t < n_threads; ++t) {
          if (remaining[t] > 0 && !active[t]) can.push_back(t);
        }
        if (can.empty()) break;
        const std::size_t t = can[rnd(can.size())];
        const std::int64_t v = next_value++;
        active[t] = Active{static_cast<ThreadId>(t + 1), v, false,
                           Value::unit()};
        remaining[t] -= 1;
        h.invoke(static_cast<ThreadId>(t + 1), kE, kEx, iv(v));
        break;
      }
      case 1: {
        std::vector<std::size_t> undecided;
        for (std::size_t t = 0; t < n_threads; ++t) {
          if (active[t] && !active[t]->decided) undecided.push_back(t);
        }
        if (undecided.empty()) break;
        if (undecided.size() >= 2 && rnd(2) == 0) {
          const std::size_t i = undecided[rnd(undecided.size())];
          std::size_t j = i;
          while (j == i) j = undecided[rnd(undecided.size())];
          active[i]->decided = true;
          active[j]->decided = true;
          active[i]->ret = Value::pair(true, active[j]->v);
          active[j]->ret = Value::pair(true, active[i]->v);
        } else {
          const std::size_t i = undecided[rnd(undecided.size())];
          active[i]->decided = true;
          active[i]->ret = Value::pair(false, active[i]->v);
        }
        break;
      }
      case 2: {
        std::vector<std::size_t> decided;
        for (std::size_t t = 0; t < n_threads; ++t) {
          if (active[t] && active[t]->decided) decided.push_back(t);
        }
        if (decided.empty()) break;
        const std::size_t t = decided[rnd(decided.size())];
        h.respond(active[t]->tid, kE, kEx, active[t]->ret);
        active[t].reset();
        break;
      }
    }
  }
  return h;
}

/// Corrupts the first successful response to a value nobody offered
/// (rejected by the spec). Returns nullopt when the run had no swap.
std::optional<History> corrupt(const History& h) {
  std::vector<Action> actions = h.actions();
  for (Action& a : actions) {
    if (a.is_respond() && a.payload.kind() == Value::Kind::kPair &&
        a.payload.pair_ok()) {
      a.payload = Value::pair(true, 99999);
      return History(std::move(actions));
    }
  }
  return std::nullopt;
}

/// Fully random (usually invalid) stack history.
History garbage_stack_history(std::mt19937& rng, std::size_t n_ops) {
  auto rnd = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  HistoryBuilder b;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const ThreadId tid = static_cast<ThreadId>(rnd(3) + 1);
    if (rnd(2) == 0) {
      b.op(tid, "S", "push", iv(static_cast<std::int64_t>(rnd(3) + 1)),
           Value::boolean(true));
    } else {
      b.op(tid, "S", "pop", Value::unit(),
           Value::pair(true, static_cast<std::int64_t>(rnd(3) + 1)));
    }
  }
  return b.history();
}

/// All operations pairwise concurrent — the subset-enumeration blowup.
History wide_overlap_history(std::size_t width, bool corrupt_one) {
  HistoryBuilder b;
  for (std::size_t t = 1; t <= width; ++t) {
    b.call(static_cast<ThreadId>(t), "E", "exchange",
           iv(static_cast<std::int64_t>(t)));
  }
  for (std::size_t t = 1; t <= width; ++t) {
    const auto v = static_cast<std::int64_t>(t);
    b.ret(static_cast<ThreadId>(t),
          corrupt_one && t == width ? Value::pair(true, 424242)
                                    : Value::pair(false, v));
  }
  return b.history();
}

/// Checks `h` at every thread count and asserts one common verdict; when
/// accepting, every engine's witness must agree (Def. 5) with the history
/// if it is complete.
void expect_equivalent(const CaSpec& spec, const History& h,
                       std::optional<bool> expect = std::nullopt) {
  std::optional<bool> verdict;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    CalCheckOptions opts;
    opts.threads = threads;
    opts.order_check = false;  // the subject is the parallel engine
    CalChecker checker(spec, opts);
    CalCheckResult r = checker.check(h);
    if (!verdict) {
      verdict = r.ok;
    } else {
      ASSERT_EQ(r.ok, *verdict)
          << "threads=" << threads << " diverged on\n"
          << h.to_string();
    }
    if (r.ok && h.complete()) {
      AgreeResult a = agrees_with(h, *r.witness);
      EXPECT_TRUE(a.agrees) << "threads=" << threads << ": " << a.reason
                            << "\n"
                            << h.to_string() << r.witness->to_string();
    }
  }
  if (expect) {
    EXPECT_EQ(*verdict, *expect) << h.to_string();
  }
}

class ParallelCheckerEquivalence : public ::testing::TestWithParam<unsigned> {
};

TEST_P(ParallelCheckerEquivalence, ValidExchangerRuns) {
  std::mt19937 rng(GetParam());
  ExchangerSpec spec(kE, kEx);
  const History h = random_exchanger_history(rng, 4, 3);
  ASSERT_TRUE(h.well_formed());
  expect_equivalent(spec, h, true);
}

TEST_P(ParallelCheckerEquivalence, CorruptedExchangerRuns) {
  std::mt19937 rng(GetParam() + 100);
  ExchangerSpec spec(kE, kEx);
  const auto bad = corrupt(random_exchanger_history(rng, 4, 3));
  if (!bad) GTEST_SKIP() << "run had no successful exchange";
  expect_equivalent(spec, *bad, false);
}

TEST_P(ParallelCheckerEquivalence, PendingInvocations) {
  // Drop the tail of the responses: the checker must agree on completions
  // (response extension vs invocation removal) at every thread count.
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
  expect_equivalent(spec, pending);
}

TEST_P(ParallelCheckerEquivalence, SequentialSpecOverAdapter) {
  std::mt19937 rng(GetParam() + 300);
  auto seq = std::make_shared<StackSpec>(kS);
  SeqAsCaSpec spec(seq);
  for (int round = 0; round < 3; ++round) {
    expect_equivalent(spec, garbage_stack_history(rng, 6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCheckerEquivalence,
                         ::testing::Range(0u, 15u));

TEST(ParallelCheckerStress, WideOverlapUnderContention) {
  // Repeated full-pool checks of the adversarial workload: all operations
  // overlap, so the top-level fan-out floods the task pool and the shared
  // visited set sees maximal contention.
  ExchangerSpec spec(kE, kEx);
  CalCheckOptions opts;
  opts.threads = 8;
  CalChecker parallel(spec, opts);
  CalChecker sequential(spec);
  for (int round = 0; round < 5; ++round) {
    const History ok = wide_overlap_history(7, /*corrupt_one=*/false);
    const History bad = wide_overlap_history(7, /*corrupt_one=*/true);
    EXPECT_EQ(static_cast<bool>(sequential.check(ok)),
              static_cast<bool>(parallel.check(ok)));
    EXPECT_EQ(static_cast<bool>(sequential.check(bad)),
              static_cast<bool>(parallel.check(bad)));
  }
}

TEST(ParallelCheckerStress, MaxVisitedCapStillTerminates) {
  ExchangerSpec spec(kE, kEx);
  CalCheckOptions opts;
  opts.threads = 8;
  opts.max_visited = 16;
  CalChecker checker(spec, opts);
  const History h = wide_overlap_history(8, /*corrupt_one=*/true);
  CalCheckResult r = checker.check(h);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.exhausted);
}

TEST(ParallelChecker, ZeroThreadsMeansHardwareConcurrency) {
  ExchangerSpec spec(kE, kEx);
  CalCheckOptions opts;
  opts.threads = 0;
  CalChecker checker(spec, opts);
  EXPECT_TRUE(checker.check(wide_overlap_history(4, false)));
}

}  // namespace
}  // namespace cal
