// History (Def. 2) and real-time order (Def. 3) unit tests.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/history.hpp"
#include "cal/interval_lin.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "cal/text.hpp"
#include "cal/thread_table.hpp"

namespace cal {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

TEST(History, EmptyIsWellFormedSequentialComplete) {
  History h;
  EXPECT_TRUE(h.well_formed());
  EXPECT_TRUE(h.sequential());
  EXPECT_TRUE(h.complete());
  EXPECT_TRUE(h.operations().empty());
}

TEST(History, SingleOperationIsSequential) {
  auto h = HistoryBuilder().op(1, "E", "exchange", iv(3), Value::pair(false, 3))
               .history();
  EXPECT_TRUE(h.well_formed());
  EXPECT_TRUE(h.sequential());
  EXPECT_TRUE(h.complete());
  ASSERT_EQ(h.operations().size(), 1u);
  EXPECT_FALSE(h.operations()[0].is_pending());
}

TEST(History, OverlappingOperationsAreWellFormedNotSequential) {
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(3))
               .call(2, "E", "exchange", iv(4))
               .ret(1, Value::pair(true, 4))
               .ret(2, Value::pair(true, 3))
               .history();
  EXPECT_TRUE(h.well_formed());
  EXPECT_FALSE(h.sequential());
  EXPECT_TRUE(h.complete());
}

TEST(History, PendingInvocationMakesHistoryIncomplete) {
  auto h = HistoryBuilder().call(1, "E", "exchange", iv(3)).history();
  EXPECT_TRUE(h.well_formed());
  EXPECT_FALSE(h.complete());
  ASSERT_EQ(h.operations().size(), 1u);
  EXPECT_TRUE(h.operations()[0].is_pending());
}

TEST(History, NestedInvocationBySameThreadIsIllFormed) {
  History h;
  Symbol e{"E"};
  Symbol f{"exchange"};
  h.invoke(1, e, f, iv(1));
  h.invoke(1, e, f, iv(2));
  EXPECT_FALSE(h.well_formed());
}

TEST(History, ResponseWithoutInvocationIsIllFormed) {
  History h;
  h.respond(1, Symbol{"E"}, Symbol{"exchange"}, Value::pair(false, 1));
  EXPECT_FALSE(h.well_formed());
}

TEST(History, MismatchedResponseMethodIsIllFormed) {
  History h;
  h.invoke(1, Symbol{"S"}, Symbol{"push"}, iv(1));
  h.respond(1, Symbol{"S"}, Symbol{"pop"}, Value::boolean(true));
  EXPECT_FALSE(h.well_formed());
}

TEST(History, ThreadProjectionIsSequential) {
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(3))
               .call(2, "E", "exchange", iv(4))
               .ret(2, Value::pair(true, 3))
               .ret(1, Value::pair(true, 4))
               .history();
  EXPECT_EQ(h.project_thread(1).size(), 2u);
  EXPECT_TRUE(h.project_thread(1).sequential());
  EXPECT_TRUE(h.project_thread(2).sequential());
  EXPECT_EQ(h.project_thread(3).size(), 0u);
}

TEST(History, ObjectProjectionKeepsOnlyThatObject) {
  auto h = HistoryBuilder()
               .op(1, "S", "push", iv(1), Value::boolean(true))
               .op(2, "E", "exchange", iv(2), Value::pair(false, 2))
               .history();
  EXPECT_EQ(h.project_object(Symbol{"S"}).size(), 2u);
  EXPECT_EQ(h.project_object(Symbol{"E"}).size(), 2u);
  EXPECT_EQ(h.project_object(Symbol{"Q"}).size(), 0u);
}

TEST(History, RealTimeOrderSequentialOpsAreOrdered) {
  auto h = HistoryBuilder()
               .op(1, "E", "exchange", iv(1), Value::pair(false, 1))
               .op(2, "E", "exchange", iv(2), Value::pair(false, 2))
               .history();
  auto ops = h.operations();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(History::precedes(ops[0], ops[1]));
  EXPECT_FALSE(History::precedes(ops[1], ops[0]));
}

TEST(History, RealTimeOrderOverlappingOpsAreUnordered) {
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(1))
               .call(2, "E", "exchange", iv(2))
               .ret(1, Value::pair(true, 2))
               .ret(2, Value::pair(true, 1))
               .history();
  auto ops = h.operations();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_FALSE(History::precedes(ops[0], ops[1]));
  EXPECT_FALSE(History::precedes(ops[1], ops[0]));
}

TEST(History, PendingOperationNeverPrecedes) {
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(1))
               .op(2, "E", "exchange", iv(2), Value::pair(false, 2))
               .history();
  auto ops = h.operations();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_FALSE(History::precedes(ops[0], ops[1]));
  // t2's operation responded before... no: t1 invoked first, t2 invoked
  // after t1's invocation but t1 never responded, so no order either way.
  EXPECT_FALSE(History::precedes(ops[1], ops[0]));
}

TEST(History, DropPendingRemovesExactlyUnansweredInvocations) {
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(1))
               .call(2, "E", "exchange", iv(2))
               .ret(2, Value::pair(false, 2))
               .call(3, "E", "exchange", iv(3))
               .history();
  History dropped = h.drop_pending();
  EXPECT_TRUE(dropped.complete());
  EXPECT_EQ(dropped.size(), 2u);  // t2's call and response only
  ASSERT_EQ(dropped.operations().size(), 1u);
  EXPECT_EQ(dropped.operations()[0].op.tid, 2u);
}

TEST(History, OperationsPairInvocationWithOwnThreadsResponse) {
  auto h = HistoryBuilder()
               .call(1, "S", "push", iv(10))
               .call(2, "S", "push", iv(20))
               .ret(1, Value::boolean(true))
               .ret(2, Value::boolean(false))
               .history();
  auto ops = h.operations();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op.tid, 1u);
  EXPECT_EQ(*ops[0].op.ret, Value::boolean(true));
  EXPECT_EQ(ops[1].op.tid, 2u);
  EXPECT_EQ(*ops[1].op.ret, Value::boolean(false));
}

TEST(History, RenderAsciiMentionsEveryThread) {
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(3))
               .call(2, "E", "exchange", iv(4))
               .ret(1, Value::pair(true, 4))
               .ret(2, Value::pair(true, 3))
               .history();
  const std::string art = h.render_ascii();
  EXPECT_NE(art.find("t1:"), std::string::npos);
  EXPECT_NE(art.find("t2:"), std::string::npos);
  EXPECT_NE(art.find("exchange"), std::string::npos);
}

// A parsed history keeps its records and verdict until a mutation; each
// mutator must drop them, or the checkers would read stale records.
constexpr const char* kSwap =
    "inv t1 E.exchange 3\n"
    "inv t2 E.exchange 4\n"
    "res t1 E.exchange (true,4)\n"
    "res t2 E.exchange (true,3)\n";

TEST(HistoryKeptRecords, ParsedHistoryKeepsRecordsUntilMutated) {
  ParseResult<History> parsed = parse_history(kSwap);
  ASSERT_TRUE(parsed);
  History& h = *parsed.value;
  ASSERT_NE(h.kept_operations(), nullptr);
  EXPECT_EQ(h.kept_operations()->size(), 2u);
  EXPECT_TRUE(h.well_formed());
  // Copies keep them too; histories built from actions have none.
  const History copy = h;
  EXPECT_NE(copy.kept_operations(), nullptr);
  EXPECT_EQ(History(h.actions()).kept_operations(), nullptr);
  h.append(Action::invoke(3, Symbol{"E"}, Symbol{"exchange"},
                          Value::integer(5)));
  EXPECT_EQ(h.kept_operations(), nullptr);
  EXPECT_TRUE(h.well_formed());
  ASSERT_EQ(h.operations().size(), 3u);
  EXPECT_TRUE(h.operations()[2].is_pending());
}

TEST(HistoryKeptRecords, AppendedStrayResponseIsNotReadFromStaleRecords) {
  const ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  ParseResult<History> parsed = parse_history(kSwap);
  ASSERT_TRUE(parsed);
  History& h = *parsed.value;
  ASSERT_TRUE(CalChecker(spec).check(h).ok);
  // t3 never invoked: the history is no longer well-formed.
  h.append(Action::respond(3, Symbol{"E"}, Symbol{"exchange"},
                           Value::pair(false, 9)));
  EXPECT_FALSE(h.well_formed());
  EXPECT_FALSE(h.well_formed_operations().has_value());
  for (const bool order_check : {true, false}) {
    CalCheckOptions opts;
    opts.order_check = order_check;
    EXPECT_FALSE(CalChecker(spec, opts).check(h).ok) << order_check;
  }
}

TEST(HistoryKeptRecords, EveryMutatorDropsTheKeptVerdict) {
  const ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  const Symbol e{"E"};
  const Symbol x{"exchange"};
  {
    ParseResult<History> parsed = parse_history(kSwap);
    History& h = *parsed.value;
    h.invoke(1, e, x, Value::integer(7));
    h.invoke(1, e, x, Value::integer(8));  // nested: ill-formed
    EXPECT_FALSE(h.well_formed());
    EXPECT_FALSE(CalChecker(spec).check(h).ok);
  }
  {
    ParseResult<History> parsed = parse_history(kSwap);
    History& h = *parsed.value;
    h.invoke(1, e, x, Value::integer(7));
    h.respond(1, e, Symbol{"other"}, Value::pair(false, 7));  // mismatched
    EXPECT_FALSE(h.well_formed());
    EXPECT_FALSE(CalChecker(spec).check(h).ok);
  }
  {
    // An ill-formed parse becomes well-formed once the missing response
    // arrives: the kept "ill-formed" verdict must not outlive it either.
    ParseResult<History> parsed = parse_history("inv t1 S.push 1\n");
    History& h = *parsed.value;
    h.append(Action::invoke(1, Symbol{"S"}, Symbol{"push"}, iv(2)));
    EXPECT_FALSE(h.well_formed());
    ParseResult<History> open = parse_history("inv t1 S.push 1\n");
    History& g = *open.value;
    g.respond(1, Symbol{"S"}, Symbol{"push"}, Value::boolean(true));
    EXPECT_TRUE(g.well_formed());
    EXPECT_TRUE(g.complete());
    const StackSpec stack(Symbol{"S"});
    EXPECT_TRUE(LinChecker(stack).check(g).ok);
  }
}

TEST(HistoryKeptRecords, IntervalCheckerDropsStaleRecordsToo) {
  ParseResult<History> parsed = parse_history(
      "inv t1 SQ.put 1\ninv t2 SQ.take\n"
      "res t2 SQ.take (true,1)\nres t1 SQ.put true\n");
  ASSERT_TRUE(parsed);
  History& h = *parsed.value;
  const SyncQueueIntervalSpec spec(Symbol{"SQ"});
  ASSERT_TRUE(IntervalLinChecker(spec).check(h).ok);
  h.respond(3, Symbol{"SQ"}, Symbol{"take"}, Value::pair(true, 1));
  EXPECT_FALSE(IntervalLinChecker(spec).check(h).ok);
}

TEST(HistoryKeptRecords, IllFormedParseIsRejectedFromTheKeptVerdict) {
  ParseResult<History> parsed =
      parse_history("inv t1 E.exchange 3\nres t2 E.exchange (false,3)\n");
  ASSERT_TRUE(parsed);
  const History& h = *parsed.value;
  EXPECT_EQ(h.kept_operations(), nullptr);
  EXPECT_FALSE(h.well_formed());
  EXPECT_FALSE(h.well_formed_operations().has_value());
  EXPECT_FALSE(
      CalChecker(ExchangerSpec(Symbol{"E"}, Symbol{"exchange"})).check(h).ok);
  // The lenient walk still skips the stray response.
  ASSERT_EQ(h.operations().size(), 1u);
  EXPECT_TRUE(h.operations()[0].is_pending());
}

TEST(ThreadTable, EraseKeepsEveryOtherThreadFindable) {
  // Many small tables, each over a few random thread ids: probe runs
  // collide and wrap past the last slot, so erasing one id shifts others,
  // and each must keep its value. The larger universes make tables grow.
  std::mt19937 rng(5);
  for (int round = 0; round < 600; ++round) {
    const std::size_t universe = round % 3 == 0 ? 40 : 7;
    std::vector<ThreadId> ids(universe);
    for (ThreadId& id : ids) id = static_cast<ThreadId>(rng());
    ThreadTable table;
    std::map<ThreadId, std::size_t> model;
    for (std::size_t step = 0; step < 200; ++step) {
      const ThreadId tid = ids[rng() % universe];
      if (rng() % 2 == 0) {
        table[tid] = step;
        model[tid] = step;
      } else {
        table.erase(tid);
        model.erase(tid);
      }
      ASSERT_EQ(table.size(), model.size()) << round << ' ' << step;
      for (const auto& [t, value] : model) {
        ASSERT_EQ(table[t], value) << round << ' ' << step;
      }
    }
    for (const auto& [t, value] : model) table.erase(t);
    ASSERT_EQ(table.size(), 0u);
    ASSERT_EQ(table[ids[0]], ThreadTable::kNone);
  }
}

TEST(HistoryBuilder, RetWithoutCallYieldsIllFormed) {
  auto h = HistoryBuilder().ret(7, Value::unit()).history();
  EXPECT_FALSE(h.well_formed());
}

}  // namespace
}  // namespace cal
