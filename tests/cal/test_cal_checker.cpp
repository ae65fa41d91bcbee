// CAL membership checker (Def. 6) unit tests beyond the Fig. 3 scenarios.
#include <gtest/gtest.h>

#include "cal/cal_checker.hpp"
#include "cal/agree.hpp"
#include "cal/replay.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/snapshot_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"

namespace cal {
namespace {

const Symbol kE{"E"};
const Symbol kEx{"exchange"};

Value iv(std::int64_t x) { return Value::integer(x); }

TEST(CalChecker, EmptyHistoryIsAlwaysMember) {
  ExchangerSpec spec(kE, kEx);
  CalChecker checker(spec);
  EXPECT_TRUE(checker.check(History{}));
}

TEST(CalChecker, WitnessAgreesWithTheHistory) {
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(3))
               .call(2, "E", "exchange", iv(4))
               .ret(2, Value::pair(true, 3))
               .ret(1, Value::pair(true, 4))
               .op(3, "E", "exchange", iv(7), Value::pair(false, 7))
               .history();
  ExchangerSpec spec(kE, kEx);
  CalChecker checker(spec);
  CalCheckResult r = checker.check(h);
  ASSERT_TRUE(r);
  // The returned witness must itself satisfy Def. 5 against the history
  // and be a member of the spec's trace-set.
  EXPECT_TRUE(agrees_with(h, *r.witness));
  EXPECT_TRUE(replay_ca(*r.witness, spec));
}

TEST(CalChecker, IllFormedHistoryRejected) {
  History h;
  h.respond(1, kE, kEx, Value::pair(false, 1));
  ExchangerSpec spec(kE, kEx);
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h));
}

/// One history per way to break well-formedness; each is otherwise a
/// member (every operation a failed exchange).
std::vector<History> ill_formed_exchanges() {
  std::vector<History> out;
  History nested;  // t1 invokes twice without responding
  nested.invoke(1, kE, kEx, iv(1));
  nested.invoke(1, kE, kEx, iv(2));
  nested.respond(1, kE, kEx, Value::pair(false, 2));
  out.push_back(nested);
  History stray;  // a response before any invocation of its thread
  stray.invoke(1, kE, kEx, iv(1));
  stray.respond(2, kE, kEx, Value::pair(false, 2));
  stray.respond(1, kE, kEx, Value::pair(false, 1));
  out.push_back(stray);
  History mismatched;  // answers another method than it invoked
  mismatched.invoke(1, kE, kEx, iv(1));
  mismatched.respond(1, kE, Symbol{"swap"}, Value::pair(false, 1));
  out.push_back(mismatched);
  return out;
}

TEST(CalChecker, EveryIllFormedShapeRejectsOnBothPaths) {
  // The checker finds ill-formedness in the same walk that extracts the
  // operations; none of these may reach the order path or the engine.
  ExchangerSpec spec(kE, kEx);
  for (const bool order_check : {true, false}) {
    CalCheckOptions opts;
    opts.order_check = order_check;
    for (const History& h : ill_formed_exchanges()) {
      ASSERT_FALSE(h.well_formed()) << h.to_string();
      const CalCheckResult r = CalChecker(spec, opts).check(h);
      EXPECT_FALSE(r.ok) << h.to_string();
      EXPECT_FALSE(r.order_checked);
      EXPECT_EQ(r.visited_states, 0u);
    }
  }
}

TEST(CalChecker, ChainOfSwapsAcrossThreeThreads) {
  // t1 swaps with t2, then t2 swaps with t3 — t2 has two operations.
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(1))
               .call(2, "E", "exchange", iv(2))
               .ret(1, Value::pair(true, 2))
               .ret(2, Value::pair(true, 1))
               .call(2, "E", "exchange", iv(20))
               .call(3, "E", "exchange", iv(30))
               .ret(2, Value::pair(true, 30))
               .ret(3, Value::pair(true, 20))
               .history();
  ExchangerSpec spec(kE, kEx);
  CalChecker checker(spec);
  CalCheckResult r = checker.check(h);
  ASSERT_TRUE(r);
  EXPECT_EQ(r.witness->size(), 2u);
}

TEST(CalChecker, SelfSwapIsImpossible) {
  // A thread cannot pair with itself even if values would line up, because
  // its two operations are real-time ordered.
  auto h = HistoryBuilder()
               .op(1, "E", "exchange", iv(1), Value::pair(true, 2))
               .op(1, "E", "exchange", iv(2), Value::pair(true, 1))
               .history();
  ExchangerSpec spec(kE, kEx);
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h));
}

TEST(CalChecker, MaxVisitedCapReportsExhaustion) {
  // A history that needs search: several concurrent failures. The cap
  // binds the engine, so the order path (which never searches) is off.
  HistoryBuilder b;
  for (ThreadId t = 1; t <= 6; ++t) b.call(t, "E", "exchange", iv(t));
  for (ThreadId t = 1; t <= 6; ++t) b.ret(t, Value::pair(false, t));
  ExchangerSpec spec(kE, kEx);
  CalCheckOptions opts;
  opts.max_visited = 1;
  opts.order_check = false;
  CalChecker checker(spec, opts);
  CalCheckResult r = checker.check(b.history());
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.exhausted);
}

TEST(CalChecker, ManyConcurrentFailuresAreMembers) {
  HistoryBuilder b;
  for (ThreadId t = 1; t <= 8; ++t) b.call(t, "E", "exchange", iv(t));
  for (ThreadId t = 1; t <= 8; ++t) b.ret(t, Value::pair(false, t));
  ExchangerSpec spec(kE, kEx);
  CalChecker checker(spec);
  CalCheckResult r = checker.check(b.history());
  ASSERT_TRUE(r);
  EXPECT_EQ(r.witness->size(), 8u);  // eight singleton failure elements
}

TEST(CalChecker, WrongObjectNameIsRejected) {
  auto h = HistoryBuilder()
               .op(1, "F", "exchange", iv(1), Value::pair(false, 1))
               .history();
  ExchangerSpec spec(kE, kEx);  // governs E, not F
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h));
}

// --- unbounded elements: the immediate-snapshot spec ---

TEST(CalChecker, ImmediateSnapshotTripleElement) {
  const Symbol is{"IS"};
  // Three overlapping us() operations all see {1,2,3}.
  const Value snap = Value::vec({1, 2, 3});
  auto h = HistoryBuilder()
               .call(1, "IS", "us", iv(1))
               .call(2, "IS", "us", iv(2))
               .call(3, "IS", "us", iv(3))
               .ret(1, snap)
               .ret(2, snap)
               .ret(3, snap)
               .history();
  SnapshotSpec spec(is);
  CalChecker checker(spec);
  CalCheckResult r = checker.check(h);
  ASSERT_TRUE(r);
  EXPECT_EQ(r.witness->size(), 1u);
  EXPECT_EQ((*r.witness)[0].size(), 3u);
}

TEST(CalChecker, ImmediateSnapshotNestedBlocks) {
  const Symbol is{"IS"};
  // t1 and t2 see {1,2}; t3 later sees {1,2,3}.
  const Value snap12 = Value::vec({1, 2});
  const Value snap123 = Value::vec({1, 2, 3});
  auto h = HistoryBuilder()
               .call(1, "IS", "us", iv(1))
               .call(2, "IS", "us", iv(2))
               .ret(1, snap12)
               .ret(2, snap12)
               .op(3, "IS", "us", iv(3), snap123)
               .history();
  SnapshotSpec spec(is);
  CalChecker checker(spec);
  EXPECT_TRUE(checker.check(h));
}

TEST(CalChecker, ImmediateSnapshotMissingOwnValueRejected) {
  const Symbol is{"IS"};
  // t1's snapshot omits its own written value — never admissible.
  auto h = HistoryBuilder()
               .op(1, "IS", "us", iv(1), Value::vec({}))
               .history();
  SnapshotSpec spec(is);
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h));
}

// --- synchronous queue CA-spec ---

TEST(CalChecker, SyncQueueHandoffIsMember) {
  const Symbol q{"Q"};
  auto h = HistoryBuilder()
               .call(1, "Q", "put", iv(42))
               .call(2, "Q", "take")
               .ret(1, Value::boolean(true))
               .ret(2, Value::pair(true, 42))
               .history();
  SyncQueueSpec spec(q);
  CalChecker checker(spec);
  EXPECT_TRUE(checker.check(h));
}

TEST(CalChecker, SyncQueueNonOverlappingHandoffRejected) {
  const Symbol q{"Q"};
  auto h = HistoryBuilder()
               .op(1, "Q", "put", iv(42), Value::boolean(true))
               .op(2, "Q", "take", Value::unit(), Value::pair(true, 42))
               .history();
  SyncQueueSpec spec(q);
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h)) << "a synchronous hand-off must overlap";
}

TEST(CalChecker, SyncQueueTimeoutsAreMembers) {
  const Symbol q{"Q"};
  auto h = HistoryBuilder()
               .op(1, "Q", "put", iv(1), Value::boolean(false))
               .op(2, "Q", "take", Value::unit(), Value::pair(false, 0))
               .history();
  SyncQueueSpec spec(q);
  CalChecker checker(spec);
  EXPECT_TRUE(checker.check(h));
}

TEST(CalChecker, SyncQueueWrongValueRejected) {
  const Symbol q{"Q"};
  auto h = HistoryBuilder()
               .call(1, "Q", "put", iv(42))
               .call(2, "Q", "take")
               .ret(1, Value::boolean(true))
               .ret(2, Value::pair(true, 43))
               .history();
  SyncQueueSpec spec(q);
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h));
}

// --- degenerate CA-spec = sequential spec via the adapter ---

TEST(CalChecker, SeqAdapterMatchesStackSemantics) {
  const Symbol s{"S"};
  auto seq = std::make_shared<StackSpec>(s);
  SeqAsCaSpec spec(seq);
  CalChecker checker(spec);

  auto ok = HistoryBuilder()
                .op(1, "S", "push", iv(10), Value::boolean(true))
                .op(2, "S", "pop", Value::unit(), Value::pair(true, 10))
                .history();
  EXPECT_TRUE(checker.check(ok));

  auto bad = HistoryBuilder()
                 .op(1, "S", "push", iv(10), Value::boolean(true))
                 .op(2, "S", "pop", Value::unit(), Value::pair(true, 99))
                 .history();
  EXPECT_FALSE(checker.check(bad));
}

TEST(CalChecker, SeqAdapterRespectsRealTimeOrder) {
  const Symbol s{"S"};
  auto seq = std::make_shared<StackSpec>(s);
  SeqAsCaSpec spec(seq);
  CalChecker checker(spec);
  // pop returns 20 although 10 was pushed after 20 and both pushes
  // completed before the pop began — LIFO forces 10 first.
  auto bad = HistoryBuilder()
                 .op(1, "S", "push", iv(20), Value::boolean(true))
                 .op(1, "S", "push", iv(10), Value::boolean(true))
                 .op(2, "S", "pop", Value::unit(), Value::pair(true, 20))
                 .history();
  EXPECT_FALSE(checker.check(bad));
  auto ok = HistoryBuilder()
                .op(1, "S", "push", iv(20), Value::boolean(true))
                .op(1, "S", "push", iv(10), Value::boolean(true))
                .op(2, "S", "pop", Value::unit(), Value::pair(true, 10))
                .history();
  EXPECT_TRUE(checker.check(ok));
}

}  // namespace
}  // namespace cal
