// Interval-linearizability checker tests (§6 related work, Castañeda et
// al.), using the dual-data-structure style synchronous queue spec.
#include <gtest/gtest.h>

#include "cal/cal_checker.hpp"
#include "cal/interval_lin.hpp"
#include "cal/specs/sync_queue_spec.hpp"

namespace cal {
namespace {

const Symbol kQ{"Q"};
Value iv(std::int64_t x) { return Value::integer(x); }

TEST(IntervalLin, EmptyHistoryAccepted) {
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  EXPECT_TRUE(checker.check(History{}));
}

TEST(IntervalLin, IllFormedHistoriesRejected) {
  // A hand-off that would be accepted but for one action breaking
  // well-formedness: a nested invocation, a stray response, a response
  // naming another method.
  const Symbol put{"put"};
  const Symbol take{"take"};
  std::vector<History> bad(3);
  bad[0].invoke(1, kQ, put, iv(5));
  bad[0].invoke(1, kQ, take);
  bad[0].respond(1, kQ, take, Value::pair(false, 0));
  bad[1].invoke(1, kQ, put, iv(5));
  bad[1].respond(2, kQ, take, Value::pair(true, 5));
  bad[1].respond(1, kQ, put, Value::boolean(true));
  bad[2].invoke(1, kQ, put, iv(5));
  bad[2].respond(1, kQ, take, Value::boolean(false));
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  for (const History& h : bad) {
    ASSERT_FALSE(h.well_formed()) << h.to_string();
    const IntervalCheckResult r = checker.check(h);
    EXPECT_FALSE(r.ok) << h.to_string();
    EXPECT_EQ(r.visited_states, 0u);
  }
}

TEST(IntervalLin, OverlappingHandoffAccepted) {
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  auto h = HistoryBuilder()
               .call(1, "Q", "put", iv(5))
               .call(2, "Q", "take")
               .ret(1, Value::boolean(true))
               .ret(2, Value::pair(true, 5))
               .history();
  EXPECT_TRUE(checker.check(h));
}

TEST(IntervalLin, NonOverlappingHandoffRejected) {
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  auto h = HistoryBuilder()
               .op(1, "Q", "put", iv(5), Value::boolean(true))
               .op(2, "Q", "take", Value::unit(), Value::pair(true, 5))
               .history();
  EXPECT_FALSE(checker.check(h));
}

TEST(IntervalLin, TimeoutsAccepted) {
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  auto h = HistoryBuilder()
               .op(1, "Q", "put", iv(5), Value::boolean(false))
               .op(2, "Q", "take", Value::unit(), Value::pair(false, 0))
               .history();
  EXPECT_TRUE(checker.check(h));
}

TEST(IntervalLin, WrongValueRejected) {
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  auto h = HistoryBuilder()
               .call(1, "Q", "put", iv(5))
               .call(2, "Q", "take")
               .ret(1, Value::boolean(true))
               .ret(2, Value::pair(true, 6))
               .history();
  EXPECT_FALSE(checker.check(h));
}

TEST(IntervalLin, PairedPutAndTakeByChainOfOverlaps) {
  // put overlaps take only transitively is NOT enough: here t1's put and
  // t2's take never co-exist (t1 returns before t2 starts), so pairing them
  // is impossible even though both overlap t3's long take.
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  auto h = HistoryBuilder()
               .call(3, "Q", "take")
               .op(1, "Q", "put", iv(5), Value::boolean(true))
               .op(2, "Q", "take", Value::unit(), Value::pair(true, 5))
               .ret(3, Value::pair(false, 0))
               .history();
  EXPECT_FALSE(checker.check(h));
  // But pairing t1's put with t3's long take is fine.
  auto h2 = HistoryBuilder()
                .call(3, "Q", "take")
                .op(1, "Q", "put", iv(5), Value::boolean(true))
                .ret(3, Value::pair(true, 5))
                .history();
  EXPECT_TRUE(checker.check(h2));
}

TEST(IntervalLin, TwoConcurrentHandoffs) {
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  auto h = HistoryBuilder()
               .call(1, "Q", "put", iv(1))
               .call(2, "Q", "put", iv(2))
               .call(3, "Q", "take")
               .call(4, "Q", "take")
               .ret(3, Value::pair(true, 2))
               .ret(4, Value::pair(true, 1))
               .ret(1, Value::boolean(true))
               .ret(2, Value::boolean(true))
               .history();
  EXPECT_TRUE(checker.check(h));
}

TEST(IntervalLin, PendingOpsCanBeDroppedOrCompleted) {
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  // t2's take is pending but t1's put claims success: only completing the
  // take explains it.
  auto h = HistoryBuilder()
               .call(2, "Q", "take")
               .call(1, "Q", "put", iv(9))
               .ret(1, Value::boolean(true))
               .history();
  EXPECT_TRUE(checker.check(h));

  IntervalCheckOptions opts;
  opts.complete_pending = false;
  IntervalLinChecker strict(spec, opts);
  EXPECT_FALSE(strict.check(h));
}

TEST(IntervalLin, AgreesWithCaSpecOnConcreteHistories) {
  // The CA-spec and the interval spec describe the same object; they must
  // accept/reject the same complete histories in these scenarios.
  SyncQueueIntervalSpec ispec(kQ);
  SyncQueueSpec cspec(kQ);
  IntervalLinChecker ichecker(ispec);
  CalChecker cchecker(cspec);

  std::vector<History> histories;
  histories.push_back(HistoryBuilder()
                          .call(1, "Q", "put", iv(5))
                          .call(2, "Q", "take")
                          .ret(2, Value::pair(true, 5))
                          .ret(1, Value::boolean(true))
                          .history());
  histories.push_back(HistoryBuilder()
                          .op(1, "Q", "put", iv(5), Value::boolean(true))
                          .op(2, "Q", "take", Value::unit(),
                              Value::pair(true, 5))
                          .history());
  histories.push_back(HistoryBuilder()
                          .op(1, "Q", "put", iv(5), Value::boolean(false))
                          .history());
  histories.push_back(HistoryBuilder()
                          .call(1, "Q", "put", iv(5))
                          .call(2, "Q", "take")
                          .ret(2, Value::pair(false, 0))
                          .ret(1, Value::boolean(false))
                          .history());
  for (const History& h : histories) {
    EXPECT_EQ(static_cast<bool>(ichecker.check(h)),
              static_cast<bool>(cchecker.check(h)))
        << h.to_string();
  }
}

TEST(IntervalLin, IntervalsWitnessRespectsRealTime) {
  SyncQueueIntervalSpec spec(kQ);
  IntervalLinChecker checker(spec);
  auto h = HistoryBuilder()
               .op(1, "Q", "put", iv(5), Value::boolean(false))
               .op(2, "Q", "take", Value::unit(), Value::pair(false, 0))
               .history();
  IntervalCheckResult r = checker.check(h);
  ASSERT_TRUE(r);
  ASSERT_TRUE(r.intervals.has_value());
  const auto& iv1 = (*r.intervals)[0];
  const auto& iv2 = (*r.intervals)[1];
  EXPECT_LE(iv1.first, iv1.second);
  EXPECT_LT(iv1.second, iv2.first);  // t1 precedes t2 in real time
}

}  // namespace
}  // namespace cal
