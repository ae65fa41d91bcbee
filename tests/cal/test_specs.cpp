// Unit tests for the concrete specifications and trace replay.
#include <gtest/gtest.h>

#include "cal/replay.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/snapshot_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"

namespace cal {
namespace {

const Symbol kE{"E"};
const Symbol kEx{"exchange"};
Value iv(std::int64_t x) { return Value::integer(x); }

Operation op(ThreadId t, Symbol o, const char* m, Value arg, Value ret) {
  return Operation::make(t, o, Symbol{m}, std::move(arg), std::move(ret));
}

TEST(ExchangerSpecTest, AcceptsSwapElement) {
  ExchangerSpec spec(kE, kEx);
  auto steps = spec.step(spec.initial(), kE,
                         CaElement::swap(kE, kEx, 1, 3, 2, 4).ops());
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].element, CaElement::swap(kE, kEx, 1, 3, 2, 4));
}

TEST(ExchangerSpecTest, AcceptsFailureSingleton) {
  ExchangerSpec spec(kE, kEx);
  auto e = CaElement::singleton(
      kE, op(1, kE, "exchange", iv(7), Value::pair(false, 7)));
  EXPECT_EQ(spec.step(spec.initial(), kE, e.ops()).size(), 1u);
}

TEST(ExchangerSpecTest, RejectsSuccessSingleton) {
  ExchangerSpec spec(kE, kEx);
  auto e = CaElement::singleton(
      kE, op(1, kE, "exchange", iv(7), Value::pair(true, 8)));
  EXPECT_TRUE(spec.step(spec.initial(), kE, e.ops()).empty());
}

TEST(ExchangerSpecTest, RejectsFailureEchoingWrongValue) {
  ExchangerSpec spec(kE, kEx);
  auto e = CaElement::singleton(
      kE, op(1, kE, "exchange", iv(7), Value::pair(false, 8)));
  EXPECT_TRUE(spec.step(spec.initial(), kE, e.ops()).empty());
}

TEST(ExchangerSpecTest, RejectsSameThreadPair) {
  ExchangerSpec spec(kE, kEx);
  std::vector<Operation> ops = {
      op(1, kE, "exchange", iv(1), Value::pair(true, 2)),
      op(1, kE, "exchange", iv(2), Value::pair(true, 1))};
  EXPECT_TRUE(spec.step(spec.initial(), kE, ops).empty());
}

TEST(ExchangerSpecTest, RejectsMismatchedSwapValues) {
  ExchangerSpec spec(kE, kEx);
  std::vector<Operation> ops = {
      op(1, kE, "exchange", iv(1), Value::pair(true, 9)),
      op(2, kE, "exchange", iv(2), Value::pair(true, 1))};
  EXPECT_TRUE(spec.step(spec.initial(), kE, ops).empty());
}

TEST(ExchangerSpecTest, FillsPendingReturnsInSwap) {
  ExchangerSpec spec(kE, kEx);
  std::vector<Operation> ops = {
      op(1, kE, "exchange", iv(1), Value::pair(true, 2)),
      Operation::pending(2, kE, kEx, iv(2))};
  auto steps = spec.step(spec.initial(), kE, ops);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].element, CaElement::swap(kE, kEx, 1, 1, 2, 2));
}

TEST(ExchangerSpecTest, FillsPendingFailure) {
  ExchangerSpec spec(kE, kEx);
  std::vector<Operation> ops = {Operation::pending(1, kE, kEx, iv(5))};
  auto steps = spec.step(spec.initial(), kE, ops);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(*steps[0].element.ops().front().ret, Value::pair(false, 5));
}

TEST(CentralStackSpecTest, PushMaySpuriouslyFail) {
  CentralStackSpec spec(Symbol{"S"});
  auto steps = spec.step({}, 1, Symbol{"S"}, Symbol{"push"}, iv(3),
                         std::nullopt);
  ASSERT_EQ(steps.size(), 2u);  // success and spurious failure
  // Failure leaves the state unchanged.
  bool saw_noop_failure = false;
  for (const auto& s : steps) {
    if (s.ret == Value::boolean(false)) saw_noop_failure = s.next.empty();
  }
  EXPECT_TRUE(saw_noop_failure);
}

TEST(CentralStackSpecTest, PopOnEmptyOnlyFails) {
  CentralStackSpec spec(Symbol{"S"});
  auto steps =
      spec.step({}, 1, Symbol{"S"}, Symbol{"pop"}, Value::unit(),
                std::nullopt);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].ret, Value::pair(false, 0));
}

TEST(StackSpecTest, PushAlwaysSucceedsPopBlocksOnEmpty) {
  StackSpec spec(Symbol{"S"});
  auto push = spec.step({}, 1, Symbol{"S"}, Symbol{"push"}, iv(3),
                        std::nullopt);
  ASSERT_EQ(push.size(), 1u);
  EXPECT_EQ(push[0].ret, Value::boolean(true));
  EXPECT_TRUE(spec.step({}, 1, Symbol{"S"}, Symbol{"pop"}, Value::unit(),
                        std::nullopt)
                  .empty());
  auto pop = spec.step({3}, 1, Symbol{"S"}, Symbol{"pop"}, Value::unit(),
                       std::nullopt);
  ASSERT_EQ(pop.size(), 1u);
  EXPECT_EQ(pop[0].ret, Value::pair(true, 3));
  EXPECT_TRUE(pop[0].next.empty());
}

TEST(QueueSpecTest, FifoOrder) {
  QueueSpec spec(Symbol{"Q"});
  SpecState s;
  s = spec.step(s, 1, Symbol{"Q"}, Symbol{"enq"}, iv(1), std::nullopt)[0]
          .next;
  s = spec.step(s, 1, Symbol{"Q"}, Symbol{"enq"}, iv(2), std::nullopt)[0]
          .next;
  auto deq =
      spec.step(s, 2, Symbol{"Q"}, Symbol{"deq"}, Value::unit(),
                std::nullopt);
  ASSERT_EQ(deq.size(), 1u);
  EXPECT_EQ(deq[0].ret, Value::pair(true, 1));
}

TEST(RegisterSpecTest, ReadsLastWrite) {
  RegisterSpec spec(Symbol{"R"});
  SpecState s = spec.initial();
  auto r0 = spec.step(s, 1, Symbol{"R"}, Symbol{"read"}, Value::unit(),
                      std::nullopt);
  ASSERT_EQ(r0.size(), 1u);
  EXPECT_EQ(r0[0].ret, iv(0));
  s = spec.step(s, 1, Symbol{"R"}, Symbol{"write"}, iv(42), std::nullopt)[0]
          .next;
  auto r1 = spec.step(s, 2, Symbol{"R"}, Symbol{"read"}, Value::unit(),
                      std::nullopt);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].ret, iv(42));
}

TEST(SnapshotSpecTest, SnapshotAccumulates) {
  SnapshotSpec spec(Symbol{"IS"});
  const Symbol is{"IS"};
  SpecState s = spec.initial();
  auto step1 = spec.step(
      s, is, {Operation::pending(1, is, Symbol{"us"}, iv(4))});
  ASSERT_EQ(step1.size(), 1u);
  EXPECT_EQ(*step1[0].element.ops().front().ret, Value::vec({4}));
  auto step2 = spec.step(
      step1[0].next, is, {Operation::pending(2, is, Symbol{"us"}, iv(2))});
  ASSERT_EQ(step2.size(), 1u);
  EXPECT_EQ(*step2[0].element.ops().front().ret, Value::vec({2, 4}));
}

TEST(SyncQueueSpecTest, HandoffAndTimeouts) {
  SyncQueueSpec spec(Symbol{"Q"});
  const Symbol q{"Q"};
  std::vector<Operation> pair = {
      op(1, q, "put", iv(5), Value::boolean(true)),
      op(2, q, "take", Value::unit(), Value::pair(true, 5))};
  EXPECT_EQ(spec.step({}, q, pair).size(), 1u);

  std::vector<Operation> same_thread = {
      op(1, q, "put", iv(5), Value::boolean(true)),
      op(1, q, "take", Value::unit(), Value::pair(true, 5))};
  EXPECT_TRUE(spec.step({}, q, same_thread).empty());

  std::vector<Operation> two_puts = {
      op(1, q, "put", iv(5), Value::boolean(true)),
      op(2, q, "put", iv(6), Value::boolean(true))};
  EXPECT_TRUE(spec.step({}, q, two_puts).empty());

  auto put_timeout = CaElement::singleton(
      q, op(1, q, "put", iv(5), Value::boolean(false)));
  EXPECT_EQ(spec.step({}, q, put_timeout.ops()).size(), 1u);
}

TEST(ReplayTest, CaTraceMembership) {
  ExchangerSpec spec(kE, kEx);
  CaTrace good;
  good.append(CaElement::swap(kE, kEx, 1, 3, 2, 4));
  good.append(CaElement::singleton(
      kE, op(3, kE, "exchange", iv(7), Value::pair(false, 7))));
  EXPECT_TRUE(replay_ca(good, spec));

  CaTrace bad = good;
  bad.append(CaElement::singleton(
      kE, op(3, kE, "exchange", iv(7), Value::pair(true, 9))));
  ReplayResult r = replay_ca(bad, spec);
  EXPECT_FALSE(r);
  EXPECT_EQ(r.failed_at, 2u);
}

/// A coin: `flip` lands on side 1 or 2 (two successors with the same
/// CA-element), and `see(v)` is admissible only on side v. A trace that
/// sees side 2 replays only by backtracking past the first successor.
class CoinSpec final : public CaSpec {
 public:
  SpecState initial() const override { return {0}; }
  std::size_t max_element_size() const override { return 1; }
  std::vector<CaStepResult> step(const SpecState& state, Symbol object,
                                 const std::vector<Operation>& ops)
      const override {
    const Operation& o = ops.front();
    const CaElement element = CaElement::singleton(object, o);
    if (o.method == Symbol{"flip"}) {
      return {{{1}, element}, {{2}, element}};
    }
    if (state.front() == o.arg.as_int()) return {{state, element}};
    return {};
  }
};

TEST(ReplayTest, BacktracksOverNondeterministicSteps) {
  const Symbol c{"C"};
  CoinSpec spec;
  CaTrace trace;
  trace.append(CaElement::singleton(c, op(1, c, "flip", iv(0), iv(0))));
  trace.append(CaElement::singleton(c, op(1, c, "see", iv(2), iv(0))));
  const ReplayResult r = replay_ca(trace, spec);
  ASSERT_TRUE(r) << r.reason;
  EXPECT_EQ(r.final_state, SpecState{2});

  trace.append(CaElement::singleton(c, op(1, c, "see", iv(1), iv(0))));
  const ReplayResult bad = replay_ca(trace, spec);
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.failed_at, 2u);
}

TEST(ReplayTest, LongTraceReplaysWithoutRecursion) {
  // Replay depth is the trace length; a recursive walk overflows the
  // stack long before 2^17 elements.
  constexpr std::int64_t kElements = std::int64_t{1} << 17;
  ExchangerSpec spec(kE, kEx);
  CaTrace trace;
  for (std::int64_t v = 0; v < kElements; ++v) {
    trace.append(CaElement::singleton(
        kE, op(1, kE, "exchange", iv(v), Value::pair(false, v))));
  }
  EXPECT_TRUE(replay_ca(trace, spec));
}

TEST(ReplayTest, SequentialReplayTracksState) {
  StackSpec spec(Symbol{"S"});
  const Symbol s{"S"};
  CaTrace t;
  t.append(CaElement::singleton(
      s, op(1, s, "push", iv(1), Value::boolean(true))));
  t.append(CaElement::singleton(
      s, op(1, s, "push", iv(2), Value::boolean(true))));
  t.append(CaElement::singleton(
      s, op(2, s, "pop", Value::unit(), Value::pair(true, 2))));
  ReplayResult r = replay_sequential(t, spec);
  ASSERT_TRUE(r) << r.reason;
  EXPECT_EQ(r.final_state, SpecState{1});
}

TEST(ReplayTest, SequentialReplayRejectsNonSingleton) {
  StackSpec spec(Symbol{"S"});
  CaTrace t;
  t.append(CaElement::swap(kE, kEx, 1, 3, 2, 4));
  ReplayResult r = replay_sequential(t, spec);
  EXPECT_FALSE(r);
  EXPECT_NE(r.reason.find("non-singleton"), std::string::npos);
}

}  // namespace
}  // namespace cal
