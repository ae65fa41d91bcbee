// Whole-program checking: one history over several objects, checked
// against the union of their specifications (the §2 ownership discipline).
#include <gtest/gtest.h>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/replay.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "cal/specs/union_spec.hpp"

namespace cal {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

UnionCaSpec make_union() {
  std::vector<UnionCaSpec::Entry> entries;
  entries.emplace_back(Symbol{"E"}, std::make_shared<ExchangerSpec>(
                                        Symbol{"E"}, Symbol{"exchange"}));
  entries.emplace_back(
      Symbol{"S"},
      std::make_shared<SeqAsCaSpec>(std::make_shared<StackSpec>(Symbol{"S"})));
  entries.emplace_back(Symbol{"SQ"},
                       std::make_shared<SyncQueueSpec>(Symbol{"SQ"}));
  return UnionCaSpec(std::move(entries));
}

TEST(UnionSpec, MixedObjectHistoryAccepted) {
  // t1/t2 swap on E while t3 pushes/pops on S and t1/t3 later hand off on
  // the synchronous queue.
  auto h = HistoryBuilder()
               .call(1, "E", "exchange", iv(1))
               .call(2, "E", "exchange", iv(2))
               .op(3, "S", "push", iv(7), Value::boolean(true))
               .ret(1, Value::pair(true, 2))
               .ret(2, Value::pair(true, 1))
               .op(3, "S", "pop", Value::unit(), Value::pair(true, 7))
               .call(1, "SQ", "put", iv(9))
               .call(3, "SQ", "take")
               .ret(1, Value::boolean(true))
               .ret(3, Value::pair(true, 9))
               .history();
  UnionCaSpec spec = make_union();
  CalChecker checker(spec);
  CalCheckResult r = checker.check(h);
  ASSERT_TRUE(r);
  // Four elements: the swap, the push, the pop, and the hand-off.
  EXPECT_EQ(r.witness->size(), 4u);
}

TEST(UnionSpec, CrossObjectStateIsIndependent) {
  // The stack's LIFO discipline must still bite inside a union.
  auto h = HistoryBuilder()
               .op(1, "S", "push", iv(1), Value::boolean(true))
               .op(1, "S", "push", iv(2), Value::boolean(true))
               .op(2, "E", "exchange", iv(5), Value::pair(false, 5))
               .op(1, "S", "pop", Value::unit(), Value::pair(true, 1))
               .history();
  UnionCaSpec spec = make_union();
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h)) << "LIFO violation must survive the union";
}

TEST(UnionSpec, UnregisteredObjectRejected) {
  auto h = HistoryBuilder()
               .op(1, "X", "frob", iv(1), Value::boolean(true))
               .history();
  UnionCaSpec spec = make_union();
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h));
}

TEST(UnionSpec, ExchangerRulesSurviveTheUnion) {
  auto h = HistoryBuilder()
               .op(1, "E", "exchange", iv(1), Value::pair(true, 2))
               .op(2, "E", "exchange", iv(2), Value::pair(true, 1))
               .history();
  UnionCaSpec spec = make_union();
  CalChecker checker(spec);
  EXPECT_FALSE(checker.check(h)) << "sequential swap must still be rejected";
}

TEST(UnionSpec, ObjectByObjectMatchesTheProduct) {
  // Every history of this suite, decided object by object (order_check
  // on: the exchanger and sync queue by pairing, the stack by its order
  // path) and as the product (order_check off): equal verdicts, and the
  // split's merged witness replays and agrees.
  const std::vector<History> histories = {
      HistoryBuilder()
          .call(1, "E", "exchange", iv(1))
          .call(2, "E", "exchange", iv(2))
          .op(3, "S", "push", iv(7), Value::boolean(true))
          .ret(1, Value::pair(true, 2))
          .ret(2, Value::pair(true, 1))
          .op(3, "S", "pop", Value::unit(), Value::pair(true, 7))
          .call(1, "SQ", "put", iv(9))
          .call(3, "SQ", "take")
          .ret(1, Value::boolean(true))
          .ret(3, Value::pair(true, 9))
          .history(),
      HistoryBuilder()
          .op(1, "S", "push", iv(1), Value::boolean(true))
          .op(1, "S", "push", iv(2), Value::boolean(true))
          .op(2, "E", "exchange", iv(5), Value::pair(false, 5))
          .op(1, "S", "pop", Value::unit(), Value::pair(true, 1))
          .history(),
      HistoryBuilder()
          .op(1, "X", "frob", iv(1), Value::boolean(true))
          .history(),
      HistoryBuilder()
          .op(1, "E", "exchange", iv(1), Value::pair(true, 2))
          .op(2, "E", "exchange", iv(2), Value::pair(true, 1))
          .history(),
      // Real-time order across objects: the merged witness must keep the
      // stack's push before the swap that started after it returned, and
      // the swap before the hand-off.
      HistoryBuilder()
          .call(3, "S", "push", iv(4))
          .call(1, "E", "exchange", iv(1))
          .ret(3, Value::boolean(true))
          .call(2, "E", "exchange", iv(2))
          .ret(2, Value::pair(true, 1))
          .call(3, "SQ", "take")
          .ret(1, Value::pair(true, 2))
          .op(2, "SQ", "put", iv(6), Value::boolean(true))
          .ret(3, Value::pair(true, 6))
          .op(1, "S", "pop", Value::unit(), Value::pair(true, 4))
          .history()};
  UnionCaSpec spec = make_union();
  CalCheckOptions product_opts;
  product_opts.order_check = false;
  for (const History& h : histories) {
    const CalCheckResult product = CalChecker(spec, product_opts).check(h);
    const CalCheckResult split = CalChecker(spec).check(h);
    ASSERT_EQ(split.ok, product.ok) << h.to_string();
    EXPECT_TRUE(product.parts.empty());
    if (!split.ok) continue;
    ASSERT_EQ(split.parts.size(), 3u);
    for (const CalCheckPart& part : split.parts) {
      EXPECT_TRUE(part.result.order_checked) << part.object.str();
      EXPECT_FALSE(part.result.witness.has_value());
    }
    EXPECT_TRUE(split.order_checked);
    EXPECT_EQ(split.visited_states, 0u);
    const ReplayResult replayed = replay_ca(*split.witness, spec);
    EXPECT_TRUE(replayed.ok) << replayed.reason;
    const AgreeResult agree = agrees_with(h, *split.witness);
    EXPECT_TRUE(agree.agrees) << agree.reason << "\n"
                              << split.witness->to_string();
  }
}

TEST(UnionSpec, SplitCountersSumAndNameEachPath) {
  // A part without an order path (central-stack) runs the engine; the
  // union's counters are the parts' sums.
  std::vector<UnionCaSpec::Entry> entries;
  entries.emplace_back(Symbol{"E"}, std::make_shared<ExchangerSpec>(
                                        Symbol{"E"}, Symbol{"exchange"}));
  entries.emplace_back(Symbol{"C"},
                       std::make_shared<SeqAsCaSpec>(
                           std::make_shared<CentralStackSpec>(Symbol{"C"})));
  const UnionCaSpec spec(std::move(entries));
  const History h = HistoryBuilder()
                        .call(1, "E", "exchange", iv(1))
                        .op(2, "C", "push", iv(3), Value::boolean(true))
                        .ret(1, Value::pair(false, 1))
                        .op(2, "C", "pop", Value::unit(), Value::pair(true, 3))
                        .history();
  const CalCheckResult r = CalChecker(spec).check(h);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.parts.size(), 2u);
  EXPECT_EQ(r.parts[0].object, Symbol{"E"});
  EXPECT_TRUE(r.parts[0].result.order_checked);
  EXPECT_EQ(r.parts[1].object, Symbol{"C"});
  EXPECT_FALSE(r.parts[1].result.order_checked);
  EXPECT_GT(r.parts[1].result.visited_states, 0u);
  EXPECT_FALSE(r.order_checked);
  EXPECT_EQ(r.visited_states, r.parts[1].result.visited_states);
  EXPECT_EQ(r.witness->size(), 3u);
  EXPECT_TRUE(agrees_with(h, *r.witness).agrees);
}

TEST(UnionSpec, RejectingPartOutranksAnExhaustedOne) {
  // The exchanger part rejects; the central-stack part trips the cap. The
  // verdict is a definite REJECT, not an inconclusive one.
  std::vector<UnionCaSpec::Entry> entries;
  entries.emplace_back(Symbol{"E"}, std::make_shared<ExchangerSpec>(
                                        Symbol{"E"}, Symbol{"exchange"}));
  entries.emplace_back(Symbol{"C"},
                       std::make_shared<SeqAsCaSpec>(
                           std::make_shared<CentralStackSpec>(Symbol{"C"})));
  const UnionCaSpec spec(std::move(entries));
  HistoryBuilder b;
  b.op(1, "E", "exchange", iv(1), Value::pair(true, 2));
  for (std::int64_t v = 1; v <= 4; ++v) {
    b.op(2, "C", "push", iv(v), Value::boolean(true));
  }
  CalCheckOptions capped;
  capped.max_visited = 1;
  const CalCheckResult r = CalChecker(spec, capped).check(b.history());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.exhausted);
  ASSERT_EQ(r.parts.size(), 2u);
  EXPECT_TRUE(r.parts[1].result.exhausted);
  // Alone, the capped part is inconclusive.
  const History c_only = HistoryBuilder()
                             .op(2, "C", "push", iv(1), Value::boolean(true))
                             .op(2, "C", "push", iv(2), Value::boolean(true))
                             .history();
  const CalCheckResult alone = CalChecker(spec, capped).check(c_only);
  EXPECT_FALSE(alone.ok);
  EXPECT_TRUE(alone.exhausted);
}

TEST(UnionSpec, MaxElementSizeIsTheMaximum) {
  UnionCaSpec spec = make_union();
  EXPECT_EQ(spec.max_element_size(), 2u);
}

TEST(UnionSpec, InitialStateConcatenatesSubStates) {
  UnionCaSpec spec = make_union();
  // Three sub-specs, each with an empty initial state: [0, 0, 0].
  EXPECT_EQ(spec.initial(), (SpecState{0, 0, 0}));
}

}  // namespace
}  // namespace cal
