// Classical linearizability checker tests, including the formal bridge to
// CAL (a history is linearizable iff CAL w.r.t. the singleton adapter).
#include <gtest/gtest.h>

#include "cal/cal_checker.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"

namespace cal {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

TEST(LinChecker, EmptyHistoryLinearizable) {
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  EXPECT_TRUE(checker.check(History{}));
}

TEST(LinChecker, IllFormedHistoriesRejectOnBothPaths) {
  // Each is a linearizable push(1) / pop ▷ 1 run but for one action that
  // breaks well-formedness: a nested invocation, a stray response, a
  // response naming another method. The walk that extracts the
  // operations finds it; neither the order path nor the engine runs.
  const Symbol s{"S"};
  const Symbol push{"push"};
  const Symbol pop{"pop"};
  std::vector<History> bad(3);
  bad[0].invoke(1, s, push, iv(1));
  bad[0].invoke(1, s, pop);
  bad[0].respond(1, s, pop, Value::pair(true, 1));
  bad[1].invoke(1, s, push, iv(1));
  bad[1].respond(1, s, push, Value::boolean(true));
  bad[1].respond(2, s, pop, Value::pair(true, 1));
  bad[2].invoke(1, s, push, iv(1));
  bad[2].respond(1, s, pop, Value::boolean(true));
  StackSpec spec(s);
  for (const bool order_check : {true, false}) {
    LinCheckOptions opts;
    opts.order_check = order_check;
    for (const History& h : bad) {
      ASSERT_FALSE(h.well_formed()) << h.to_string();
      const LinCheckResult r = LinChecker(spec, opts).check(h);
      EXPECT_FALSE(r.ok) << h.to_string();
      EXPECT_FALSE(r.order_checked);
      EXPECT_EQ(r.visited_states, 0u);
    }
  }
}

TEST(LinChecker, SequentialStackRuns) {
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  auto h = HistoryBuilder()
               .op(1, "S", "push", iv(1), Value::boolean(true))
               .op(1, "S", "push", iv(2), Value::boolean(true))
               .op(1, "S", "pop", Value::unit(), Value::pair(true, 2))
               .op(1, "S", "pop", Value::unit(), Value::pair(true, 1))
               .history();
  EXPECT_TRUE(checker.check(h));
}

TEST(LinChecker, LifoViolationRejected) {
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  auto h = HistoryBuilder()
               .op(1, "S", "push", iv(1), Value::boolean(true))
               .op(1, "S", "push", iv(2), Value::boolean(true))
               .op(1, "S", "pop", Value::unit(), Value::pair(true, 1))
               .history();
  EXPECT_FALSE(checker.check(h));
}

TEST(LinChecker, ConcurrentPushesLinearizeInEitherOrder) {
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  for (std::int64_t first : {1, 2}) {
    auto h = HistoryBuilder()
                 .call(1, "S", "push", iv(1))
                 .call(2, "S", "push", iv(2))
                 .ret(1, Value::boolean(true))
                 .ret(2, Value::boolean(true))
                 .op(3, "S", "pop", Value::unit(), Value::pair(true, first))
                 .history();
    EXPECT_TRUE(checker.check(h)) << "first=" << first;
  }
}

TEST(LinChecker, PopOverlappingPushMaySeeIt) {
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  auto h = HistoryBuilder()
               .call(1, "S", "push", iv(7))
               .call(2, "S", "pop")
               .ret(2, Value::pair(true, 7))
               .ret(1, Value::boolean(true))
               .history();
  EXPECT_TRUE(checker.check(h));
}

TEST(LinChecker, PopCannotSeeLaterPush) {
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  auto h = HistoryBuilder()
               .op(2, "S", "pop", Value::unit(), Value::pair(true, 7))
               .op(1, "S", "push", iv(7), Value::boolean(true))
               .history();
  EXPECT_FALSE(checker.check(h));
}

TEST(LinChecker, PendingPushMayBeCompletedToExplainPop) {
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  auto h = HistoryBuilder()
               .call(1, "S", "push", iv(7))
               .op(2, "S", "pop", Value::unit(), Value::pair(true, 7))
               .history();
  EXPECT_TRUE(checker.check(h));

  LinCheckOptions opts;
  opts.complete_pending = false;
  LinChecker strict(spec, opts);
  EXPECT_FALSE(strict.check(h));
}

TEST(LinChecker, QueueFifoSemantics) {
  QueueSpec spec(Symbol{"Q"});
  LinChecker checker(spec);
  auto ok = HistoryBuilder()
                .op(1, "Q", "enq", iv(1), Value::boolean(true))
                .op(1, "Q", "enq", iv(2), Value::boolean(true))
                .op(2, "Q", "deq", Value::unit(), Value::pair(true, 1))
                .op(2, "Q", "deq", Value::unit(), Value::pair(true, 2))
                .history();
  EXPECT_TRUE(checker.check(ok));
  auto bad = HistoryBuilder()
                 .op(1, "Q", "enq", iv(1), Value::boolean(true))
                 .op(1, "Q", "enq", iv(2), Value::boolean(true))
                 .op(2, "Q", "deq", Value::unit(), Value::pair(true, 2))
                 .history();
  EXPECT_FALSE(checker.check(bad));
}

TEST(LinChecker, QueueEmptyDeqOnlyWhenEmptyIsPossible) {
  QueueSpec spec(Symbol{"Q"});
  LinChecker checker(spec);
  // deq ▷ empty while an enq is concurrent: the deq may linearize first.
  auto ok = HistoryBuilder()
                .call(1, "Q", "enq", iv(1))
                .op(2, "Q", "deq", Value::unit(), Value::pair(false, 0))
                .ret(1, Value::boolean(true))
                .history();
  EXPECT_TRUE(checker.check(ok));
  // deq ▷ empty strictly after a completed enq with no other deq: rejected.
  auto bad = HistoryBuilder()
                 .op(1, "Q", "enq", iv(1), Value::boolean(true))
                 .op(2, "Q", "deq", Value::unit(), Value::pair(false, 0))
                 .history();
  EXPECT_FALSE(checker.check(bad));
}

TEST(LinChecker, WitnessIsAValidLinearization) {
  QueueSpec spec(Symbol{"Q"});
  LinChecker checker(spec);
  auto h = HistoryBuilder()
               .call(1, "Q", "enq", iv(1))
               .call(2, "Q", "enq", iv(2))
               .ret(1, Value::boolean(true))
               .ret(2, Value::boolean(true))
               .op(3, "Q", "deq", Value::unit(), Value::pair(true, 2))
               .history();
  LinCheckResult r = checker.check(h);
  ASSERT_TRUE(r);
  ASSERT_TRUE(r.witness.has_value());
  ASSERT_EQ(r.witness->size(), 3u);
  // First linearized op must be enq(2) for deq to return 2.
  EXPECT_EQ((*r.witness)[0].arg, iv(2));
}

TEST(LinChecker, CrossValidatesWithCalCheckerOnSingletonAdapter) {
  // The formal bridge: lin(H, S) ⟺ CAL(H, SeqAsCaSpec(S)). Spot-check on a
  // batch of hand-picked histories (the property test sweeps random ones).
  // Both checkers search, so the two engines are what is compared; the
  // order path both consult by default must then agree with them.
  const Symbol s{"S"};
  StackSpec seq(s);
  auto shared = std::make_shared<StackSpec>(s);
  SeqAsCaSpec ca(shared);
  LinCheckOptions lin_opts;
  lin_opts.order_check = false;
  CalCheckOptions cal_opts;
  cal_opts.order_check = false;
  LinChecker lin(seq, lin_opts);
  CalChecker cal(ca, cal_opts);
  LinChecker ordered(seq);

  std::vector<History> histories;
  histories.push_back(HistoryBuilder()
                          .op(1, "S", "push", iv(1), Value::boolean(true))
                          .op(2, "S", "pop", Value::unit(),
                              Value::pair(true, 1))
                          .history());
  histories.push_back(HistoryBuilder()
                          .op(1, "S", "push", iv(1), Value::boolean(true))
                          .op(2, "S", "pop", Value::unit(),
                              Value::pair(true, 2))
                          .history());
  histories.push_back(HistoryBuilder()
                          .call(1, "S", "push", iv(1))
                          .call(2, "S", "pop")
                          .ret(2, Value::pair(true, 1))
                          .ret(1, Value::boolean(true))
                          .history());
  for (const History& h : histories) {
    const LinCheckResult want = lin.check(h);
    EXPECT_FALSE(want.order_checked);
    EXPECT_EQ(static_cast<bool>(want), static_cast<bool>(cal.check(h)))
        << h.to_string();
    const LinCheckResult fast = ordered.check(h);
    EXPECT_TRUE(fast.order_checked) << h.to_string();
    EXPECT_EQ(static_cast<bool>(fast), static_cast<bool>(want))
        << h.to_string();
  }
}

}  // namespace
}  // namespace cal
