// Streaming (incremental) CAL checking — engine/incremental.hpp.
//
// The load-bearing property is batch equivalence: for every history in the
// corpus and every window size, pushing the actions one at a time and
// calling finish() must reach exactly the verdict CalChecker reaches on the
// whole history, and an accepting stream must be able to produce a witness
// that replays and agrees. On top of that: bounded violation-detection
// latency (within the window containing the bad response), frontier
// compaction (retirement) on long runs, state bounded by the active set on
// streams of tens of thousands of operations, and live streaming from a
// runtime::Recorder cursor while worker threads are still recording. The
// order paths — the online pairing monitor and the union split by object —
// must give the batch verdict too, and never report a violation later than
// the engine windows (order_check = false), which serve as their oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/engine/incremental.hpp"
#include "cal/replay.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "cal/specs/union_spec.hpp"
#include "corpus.hpp"
#include "policy_pins.hpp"
#include "objects/exchanger.hpp"
#include "runtime/reclaim/ebr.hpp"
#include "runtime/recorder.hpp"

namespace cal {
namespace {

using engine::IncrementalChecker;
using engine::IncrementalOptions;
using engine::IncrementalStatus;
using engine::WitnessSegment;

const Symbol kE{"E"};
const Symbol kEx{"exchange"};
const Symbol kS{"S"};

Value iv(std::int64_t x) { return Value::integer(x); }

constexpr std::size_t kWindowGrid[] = {1, 3, 16, 256};

// ---------------------------------------------------------------------------
// Batch equivalence on the corpus.

void expect_incremental_matches_batch(const CaSpec& spec, const History& h,
                                      bool complete_pending = true) {
  CalCheckOptions batch_opts;
  batch_opts.complete_pending = complete_pending;
  const CalCheckResult batch = CalChecker(spec, batch_opts).check(h);
  for (bool order_check : {true, false}) {
    for (std::size_t window : kWindowGrid) {
      IncrementalOptions opts;
      opts.window = window;
      opts.complete_pending = complete_pending;
      opts.order_check = order_check;
      IncrementalChecker inc(spec, opts);
      inc.push(h);
      inc.finish();
      const std::string where = "window=" + std::to_string(window) +
                                " order_check=" +
                                (order_check ? "1" : "0");
      ASSERT_EQ(inc.ok(), batch.ok)
          << where << " reason=" << inc.status().reason << "\n"
          << h.to_string();
      EXPECT_TRUE(inc.status().finished);
      if (inc.ok()) {
        // An accepting stream consumed everything; a rejecting one stops
        // at the violation and ignores the rest by design.
        EXPECT_EQ(inc.status().actions_consumed, h.actions().size());
        const std::optional<CaTrace> w = inc.witness();
        ASSERT_TRUE(w.has_value()) << where;
        const ReplayResult replayed = replay_ca(*w, spec);
        EXPECT_TRUE(replayed.ok) << where << ": " << replayed.reason;
        if (h.complete()) {
          const AgreeResult a = agrees_with(h, *w);
          EXPECT_TRUE(a.agrees) << where << ": " << a.reason << "\n"
                                << h.to_string() << w->to_string();
        }
      } else {
        EXPECT_GT(inc.status().violation_window, 0u);
        EXPECT_FALSE(inc.status().reason.empty());
      }
    }
  }
}

TEST(IncrementalCorpus, ExampleHistories) {
  ExchangerSpec ex(kE, kEx);
  expect_incremental_matches_batch(ex, load_history("fig3_h1.history"));
  expect_incremental_matches_batch(ex, load_history("fig3_h3.history"));
  SeqAsCaSpec stack(std::make_shared<StackSpec>(kS));
  expect_incremental_matches_batch(stack, load_history("stack.history"));
}

class IncrementalEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(IncrementalEquivalence, ValidExchangerRuns) {
  std::mt19937 rng(GetParam());
  ExchangerSpec spec(kE, kEx);
  const History h = random_exchanger_history(rng, 4, 3);
  ASSERT_TRUE(h.well_formed());
  expect_incremental_matches_batch(spec, h);
}

TEST_P(IncrementalEquivalence, CorruptedExchangerRuns) {
  std::mt19937 rng(GetParam() + 500);
  ExchangerSpec spec(kE, kEx);
  const auto bad = corrupt(random_exchanger_history(rng, 4, 3));
  if (!bad) GTEST_SKIP() << "run had no successful exchange";
  expect_incremental_matches_batch(spec, *bad);
}

TEST_P(IncrementalEquivalence, PendingInvocations) {
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
  expect_incremental_matches_batch(spec, pending);
  expect_incremental_matches_batch(spec, pending, /*complete_pending=*/false);
}

TEST_P(IncrementalEquivalence, SequentialSpecOverAdapter) {
  std::mt19937 rng(GetParam() + 700);
  SeqAsCaSpec spec(std::make_shared<StackSpec>(kS));
  for (int round = 0; round < 3; ++round) {
    expect_incremental_matches_batch(spec, garbage_stack_history(rng, 6));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Range(0u, 10u));

TEST(IncrementalCorpus, WideOverlapBothVerdicts) {
  ExchangerSpec spec(kE, kEx);
  expect_incremental_matches_batch(spec, wide_overlap_history(6, false));
  expect_incremental_matches_batch(spec, wide_overlap_history(6, true));
}

TEST(IncrementalPins, RecordedCountersAndWitnesses) {
  // Final windows, visited states, frontier size, retired operations and
  // witness of the example-history and wide-overlap streams at windows 1,
  // 2 and 16 in both dedup modes, as the streaming checker's own window
  // policy produced them before the windows moved onto CalPolicy.
  const std::vector<std::string> expected = pins::expected_lines(
      std::string(CAL_TEST_DATA_DIR) + "/policy_pins.txt", "inc ");
  const std::vector<std::string> got = pins::incremental_pin_lines();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]);
  }
}

// ---------------------------------------------------------------------------
// Committed pending returns are keyed by value, not by hash.

/// `h` with every 63 in a payload (a bare integer or a pair's integer)
/// replaced by `v`.
History with_63_as(const History& h, std::int64_t v) {
  std::vector<Action> actions = h.actions();
  for (Action& a : actions) {
    if (a.payload == iv(63)) a.payload = iv(v);
    if (a.payload == Value::pair(true, 63)) a.payload = Value::pair(true, v);
  }
  return History(std::move(actions));
}

TEST(IncrementalPendingReturns, HashCollidingReturnsStayDistinct) {
  // Two dequeues stay pending while 63 is enqueued; they return (true,63)
  // and (false,0), which Value::hash() maps to one word. With committed
  // returns keyed by hash, a window merged "t1 took 63, t2 found it
  // empty" with the swapped explanation and could keep the one the
  // responses then contradict: windows 1, 2, 5 and 10 rejected this
  // linearizable stream. The twin with 64 never collided.
  SeqAsCaSpec queue(std::make_shared<QueueSpec>(Symbol{"Q"}));
  const History h63 = load_history("queue_pending_63.history");
  for (const History& h : {h63, with_63_as(h63, 64)}) {
    ASSERT_TRUE(CalChecker(queue).check(h).ok) << h.to_string();
    for (std::size_t window = 1; window <= 12; ++window) {
      for (bool exact : {false, true}) {
        IncrementalOptions opts;
        opts.window = window;
        opts.exact_visited = exact;
        IncrementalChecker inc(queue, opts);
        inc.push(h);
        inc.finish();
        ASSERT_TRUE(inc.ok()) << "window=" << window << " exact=" << exact
                              << ": " << inc.status().reason << "\n"
                              << h.to_string();
        const std::optional<CaTrace> w = inc.witness();
        ASSERT_TRUE(w.has_value());
        EXPECT_TRUE(replay_ca(*w, queue).ok) << "window=" << window;
        EXPECT_TRUE(agrees_with(h, *w).agrees) << "window=" << window;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded violation-detection latency: the window check that first covers
// the corrupted response must already fail — no later than the next window
// boundary after it, never dependent on the rest of the stream.

TEST(IncrementalLatency, ViolationDetectedWithinOneWindow) {
  constexpr std::size_t kWindow = 4;
  ExchangerSpec spec(kE, kEx);
  std::mt19937 rng(0);
  std::size_t runs_with_violation = 0;
  for (unsigned seed = 0; seed < 10; ++seed) {
    rng.seed(seed);
    const auto bad = corrupt(random_exchanger_history(rng, 4, 3));
    if (!bad) continue;
    ++runs_with_violation;
    const std::vector<Action> actions = bad->actions();
    std::size_t corrupt_idx = actions.size();
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (actions[i].is_respond() &&
          actions[i].payload == Value::pair(true, 99999)) {
        corrupt_idx = i;
        break;
      }
    }
    ASSERT_LT(corrupt_idx, actions.size());

    for (bool order_check : {true, false}) {
      IncrementalOptions opts;
      opts.window = kWindow;
      opts.order_check = order_check;
      IncrementalChecker inc(spec, opts);
      std::size_t flip_at = 0;  // actions consumed when ok() first went false
      for (std::size_t i = 0; i < actions.size(); ++i) {
        inc.push(actions[i]);
        if (!inc.ok()) {
          flip_at = i + 1;
          break;
        }
      }
      // The first window boundary at or after the corrupted response.
      const std::size_t boundary = ((corrupt_idx / kWindow) + 1) * kWindow;
      if (flip_at == 0) {
        // Stream ended before that boundary; finish() must still catch it.
        ASSERT_GT(boundary, actions.size());
        inc.finish();
        EXPECT_FALSE(inc.ok());
      } else {
        EXPECT_LE(flip_at, boundary) << "seed=" << seed;
        EXPECT_GT(flip_at, corrupt_idx)
            << "seed=" << seed << ": flagged before the bad response";
      }
      EXPECT_GT(inc.status().violation_window, 0u);
      // Once failed, further pushes are ignored.
      const std::size_t consumed = inc.status().actions_consumed;
      inc.push(Action::invoke(99, kE, kEx, iv(1)));
      EXPECT_EQ(inc.status().actions_consumed, consumed);
    }
  }
  ASSERT_GT(runs_with_violation, 0u);
}

// ---------------------------------------------------------------------------
// Status accounting and frontier compaction.

TEST(IncrementalStatusCounters, WindowAndOperationCounts) {
  ExchangerSpec spec(kE, kEx);
  std::mt19937 rng(7);
  const History h = random_exchanger_history(rng, 4, 3);
  const std::size_t n = h.actions().size();
  constexpr std::size_t kWindow = 5;
  IncrementalOptions opts;
  opts.window = kWindow;
  opts.order_check = false;  // visited_states counts the engine windows
  IncrementalChecker inc(spec, opts);
  inc.push(h);
  EXPECT_EQ(inc.status().windows_checked, n / kWindow);
  inc.finish();
  EXPECT_EQ(inc.status().windows_checked,
            n / kWindow + (n % kWindow == 0 ? 0 : 1));
  EXPECT_EQ(inc.status().actions_consumed, n);
  EXPECT_EQ(inc.status().operations, 12u);
  EXPECT_EQ(inc.status().completed, 12u);
  EXPECT_GT(inc.status().visited_states, 0u);
}

TEST(IncrementalCompaction, LongRunRetiresDecidedOperations) {
  // 60 back-to-back timed-out exchanges: every operation is decided as
  // soon as its window closes, so the active set must stay O(window) and
  // the frontier must not accumulate explanations.
  constexpr std::size_t kOps = 60;
  ExchangerSpec spec(kE, kEx);
  HistoryBuilder b;
  for (std::size_t i = 1; i <= kOps; ++i) {
    const auto v = static_cast<std::int64_t>(i);
    b.call(1, "E", "exchange", iv(v));
    b.ret(1, Value::pair(false, v));
  }
  const History h = b.history();
  IncrementalOptions opts;
  opts.window = 8;
  opts.order_check = false;  // retirement is the engine windows'
  IncrementalChecker inc(spec, opts);
  inc.push(h);
  inc.finish();
  ASSERT_TRUE(inc.ok()) << inc.status().reason;
  EXPECT_GE(inc.status().retired_ops, kOps - 2);
  EXPECT_LE(inc.status().active_ops, 2u);
  EXPECT_LE(inc.status().frontier_size, 2u);
  // The witness still spans the whole stream.
  const std::optional<CaTrace> w = inc.witness();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->elements().size(), kOps);
  EXPECT_TRUE(replay_ca(*w, spec).ok);
}

/// Valid exchanger run of `n_ops` operations: pairs of adjacent threads
/// overlap and swap, one in four pairs times out (the T-STREAM bench shape).
History exchanger_history(std::size_t n_ops) {
  HistoryBuilder b;
  std::int64_t v = 1;
  ThreadId t = 1;
  for (std::size_t i = 0; i + 1 < n_ops; i += 2) {
    if (i % 8 == 6) {
      b.op(t, "E", "exchange", iv(v), Value::pair(false, v));
      b.op(t + 1, "E", "exchange", iv(v + 1), Value::pair(false, v + 1));
    } else {
      b.call(t, "E", "exchange", iv(v));
      b.call(t + 1, "E", "exchange", iv(v + 1));
      b.ret(t, Value::pair(true, v + 1));
      b.ret(t + 1, Value::pair(true, v));
    }
    v += 2;
    t = (t % 6) + 1;
  }
  return b.history();
}

/// agrees_with on a long complete history, one quiescent segment at a time
/// (agrees_with itself is quadratic). Every operation before a quiescent cut
/// precedes every operation after it, so segment-wise agreement composes to
/// agreement of the whole history.
void expect_agrees_by_segment(const History& h, const CaTrace& w) {
  constexpr std::size_t kMinSegmentOps = 256;
  const std::vector<Action>& actions = h.actions();
  const std::vector<CaElement>& elements = w.elements();
  std::size_t begin = 0;
  std::size_t next_element = 0;
  std::size_t open = 0;
  std::size_t ops = 0;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].is_invoke()) {
      ++open;
      ++ops;
    } else {
      --open;
    }
    const bool last = i + 1 == actions.size();
    if (open != 0 || (ops < kMinSegmentOps && !last)) continue;
    std::vector<CaElement> part;
    std::size_t covered = 0;
    while (covered < ops && next_element < elements.size()) {
      covered += elements[next_element].size();
      part.push_back(elements[next_element++]);
    }
    ASSERT_EQ(covered, ops) << "witness does not split at action " << i + 1;
    const History segment{std::vector<Action>(
        actions.begin() + static_cast<std::ptrdiff_t>(begin),
        actions.begin() + static_cast<std::ptrdiff_t>(i + 1))};
    const AgreeResult a = agrees_with(segment, CaTrace{std::move(part)});
    ASSERT_TRUE(a.agrees) << "segment ending at action " << i + 1 << ": "
                          << a.reason;
    begin = i + 1;
    ops = 0;
  }
  EXPECT_EQ(next_element, elements.size());
}

TEST(IncrementalCompaction, LongStreamStateStaysBounded) {
  // 2^15 operations: every window's active set and frontier stay as small
  // as the stream's overlap, however long the stream has run.
  constexpr std::size_t kOps = std::size_t{1} << 15;
  constexpr std::size_t kBound = 2;  // at most one swapping pair is open
  ExchangerSpec spec(kE, kEx);
  const History h = exchanger_history(kOps);
  for (std::size_t window : {std::size_t{1}, std::size_t{16}}) {
    IncrementalOptions opts;
    opts.window = window;
    opts.order_check = false;  // retirement is the engine windows'
    IncrementalChecker inc(spec, opts);
    std::size_t windows = 0;
    std::size_t worst_active = 0;
    std::size_t worst_frontier = 0;
    for (const Action& a : h.actions()) {
      inc.push(a);
      if (inc.status().windows_checked == windows) continue;
      windows = inc.status().windows_checked;
      worst_active = std::max(worst_active, inc.status().active_ops);
      worst_frontier = std::max(worst_frontier, inc.status().frontier_size);
    }
    inc.finish();
    ASSERT_TRUE(inc.ok()) << "window=" << window << ": "
                          << inc.status().reason;
    EXPECT_EQ(inc.status().windows_checked,
              (h.actions().size() + window - 1) / window);
    EXPECT_LE(worst_active, kBound) << "window=" << window;
    EXPECT_LE(worst_frontier, kBound) << "window=" << window;
    EXPECT_EQ(inc.status().retired_ops, kOps);
    const std::optional<CaTrace> w = inc.witness();
    ASSERT_TRUE(w.has_value());
    const ReplayResult replayed = replay_ca(*w, spec);
    EXPECT_TRUE(replayed.ok) << "window=" << window << ": " << replayed.reason;
    expect_agrees_by_segment(h, *w);
  }
}

TEST(IncrementalWitness, LongSegmentChainTearsDownIteratively) {
  // Releasing a chain this long recursively overflows the stack (under
  // ASan already at 2^16 segments). Every 4096th segment carries one
  // element so the flattened traces can be counted.
  constexpr std::size_t kSegments = std::size_t{1} << 20;
  constexpr std::size_t kMarkEvery = 4096;
  const CaElement mark = CaElement::swap(kE, kEx, 1, 1, 2, 2);
  std::shared_ptr<const WitnessSegment> tail;
  std::shared_ptr<const WitnessSegment> middle;
  for (std::size_t i = 0; i < kSegments; ++i) {
    std::vector<CaElement> elements;
    if (i % kMarkEvery == 0) elements.push_back(mark);
    tail = std::make_shared<const WitnessSegment>(std::move(tail),
                                                  std::move(elements));
    if (i == kSegments / 2) middle = tail;
  }
  EXPECT_EQ(WitnessSegment::trace(tail.get()).size(), kSegments / kMarkEvery);
  // Frees the upper half only: the lower half is still shared by `middle`.
  tail.reset();
  const std::vector<CaElement> lower = WitnessSegment::trace(middle.get());
  EXPECT_EQ(lower.size(), kSegments / 2 / kMarkEvery + 1);
  EXPECT_TRUE(std::all_of(lower.begin(), lower.end(),
                          [&](const CaElement& e) { return e == mark; }));
  middle.reset();
  EXPECT_TRUE(WitnessSegment::trace(nullptr).empty());
}

TEST(IncrementalWitness, SharedChainTearsDownFromTwoThreads) {
  // Two threads each grow a long private suffix on one shared prefix and
  // drop it at the same time: whichever lets go of the prefix last frees
  // it, and neither release recurses.
  constexpr std::size_t kSegments = std::size_t{1} << 16;
  const auto grow = [](std::shared_ptr<const WitnessSegment> tail) {
    for (std::size_t i = 0; i < kSegments; ++i) {
      tail = std::make_shared<const WitnessSegment>(std::move(tail),
                                                    std::vector<CaElement>{});
    }
    return tail;
  };
  std::shared_ptr<const WitnessSegment> prefix = grow(nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> owners;
  for (int i = 0; i < 2; ++i) {
    owners.emplace_back([&grow, &ready, copy = prefix]() mutable {
      std::shared_ptr<const WitnessSegment> tail = grow(std::move(copy));
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      tail.reset();
    });
  }
  prefix.reset();
  for (std::thread& t : owners) t.join();
}

// ---------------------------------------------------------------------------
// A violation empties the frontier, and the status says so.

TEST(IncrementalViolation, ContradictedGuessEmptiesFrontier) {
  // t1's swap fires t2 while t2 is still pending, committing t2 to return
  // (true,1); t2's real response then contradicts every explanation.
  ExchangerSpec spec(kE, kEx);
  IncrementalOptions opts;
  opts.window = 1;
  opts.order_check = false;  // committed guesses are the engine windows'
  IncrementalChecker inc(spec, opts);
  inc.push(Action::invoke(1, kE, kEx, iv(1)));
  inc.push(Action::invoke(2, kE, kEx, iv(2)));
  inc.push(Action::respond(1, kE, kEx, Value::pair(true, 2)));
  ASSERT_TRUE(inc.ok()) << inc.status().reason;
  EXPECT_EQ(inc.status().frontier_size, 1u);
  inc.push(Action::respond(2, kE, kEx, Value::pair(true, 99)));
  ASSERT_FALSE(inc.ok());
  EXPECT_NE(inc.status().reason.find("different return value"),
            std::string::npos)
      << inc.status().reason;
  EXPECT_EQ(inc.status().violation_window, 4u);
  EXPECT_EQ(inc.status().frontier_size, 0u);
  inc.finish();
  EXPECT_EQ(inc.status().frontier_size, 0u);
  EXPECT_FALSE(inc.witness().has_value());
}

TEST(IncrementalViolation, UnexplainedWindowEmptiesFrontier) {
  // A swap with a value nobody offered: the window search finds no goal.
  ExchangerSpec spec(kE, kEx);
  IncrementalOptions opts;
  opts.window = 1;
  opts.order_check = false;  // the window search is the engine's
  IncrementalChecker inc(spec, opts);
  inc.push(Action::invoke(1, kE, kEx, iv(1)));
  ASSERT_TRUE(inc.ok());
  EXPECT_EQ(inc.status().frontier_size, 1u);
  inc.push(Action::respond(1, kE, kEx, Value::pair(true, 5)));
  ASSERT_FALSE(inc.ok());
  EXPECT_NE(inc.status().reason.find("no explanation"), std::string::npos)
      << inc.status().reason;
  EXPECT_EQ(inc.status().violation_window, 2u);
  EXPECT_EQ(inc.status().frontier_size, 0u);
  inc.finish();
  EXPECT_EQ(inc.status().frontier_size, 0u);
  EXPECT_FALSE(inc.witness().has_value());
}

TEST(IncrementalEdgeCases, EmptyStreamAccepts) {
  ExchangerSpec spec(kE, kEx);
  IncrementalChecker inc(spec);
  inc.finish();
  EXPECT_TRUE(inc.ok());
  EXPECT_TRUE(inc.status().finished);
  const std::optional<CaTrace> w = inc.witness();
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->elements().empty());
}

TEST(IncrementalEdgeCases, MalformedStreamsAreRejected) {
  ExchangerSpec spec(kE, kEx);
  {
    IncrementalChecker inc(spec);
    inc.push(Action::respond(1, kE, kEx, Value::pair(false, 1)));
    EXPECT_FALSE(inc.ok());
    EXPECT_NE(inc.status().reason.find("not well-formed"), std::string::npos);
  }
  {
    IncrementalChecker inc(spec);
    inc.push(Action::invoke(1, kE, kEx, iv(1)));
    inc.push(Action::invoke(1, kE, kEx, iv(2)));  // same thread, still open
    EXPECT_FALSE(inc.ok());
    EXPECT_NE(inc.status().reason.find("not well-formed"), std::string::npos);
  }
  for (const auto& [object, method] :
       {std::pair{Symbol{"F"}, kEx}, std::pair{kE, Symbol{"swap"}}}) {
    // The response names another object or method than the open call.
    IncrementalChecker inc(spec);
    inc.push(Action::invoke(1, kE, kEx, iv(1)));
    inc.push(Action::respond(1, object, method, Value::pair(false, 1)));
    EXPECT_FALSE(inc.ok());
    EXPECT_NE(inc.status().reason.find("does not match"), std::string::npos);
  }
  {
    // Many thread ids (the open-call table grows past its first size),
    // each calling again once it has responded.
    IncrementalChecker inc(spec);
    for (int round = 0; round < 2; ++round) {
      for (ThreadId t = 0; t < 64; ++t) {
        inc.push(Action::invoke(t * 16, kE, kEx, iv(t)));
        inc.push(Action::respond(t * 16, kE, kEx, Value::pair(false, t)));
      }
    }
    inc.finish();
    EXPECT_TRUE(inc.ok()) << inc.status().reason;
    EXPECT_EQ(inc.status().completed, 128u);
  }
}

TEST(IncrementalEdgeCases, OpenCallTableStaysSmallOverManyThreadIds) {
  // A monitored log may give every call a new thread id; each response
  // must free its thread's slot, or the table grows with the stream.
  ExchangerSpec spec(kE, kEx);
  IncrementalChecker inc(spec);
  std::size_t most = 0;
  for (ThreadId t = 0; t < 20000; t += 2) {
    inc.push(Action::invoke(t, kE, kEx, iv(t)));
    inc.push(Action::invoke(t + 1, kE, kEx, iv(t + 1)));
    most = std::max(most, inc.open_threads());
    inc.push(Action::respond(t, kE, kEx, Value::pair(false, t)));
    inc.push(Action::respond(t + 1, kE, kEx, Value::pair(false, t + 1)));
    ASSERT_EQ(inc.open_threads(), 0u) << t;
  }
  EXPECT_EQ(most, 2u);
  inc.finish();
  EXPECT_TRUE(inc.ok()) << inc.status().reason;
  EXPECT_EQ(inc.status().completed, 20000u);
}

TEST(IncrementalEdgeCases, WindowSearchCapReportsExhausted) {
  ExchangerSpec spec(kE, kEx);
  IncrementalOptions opts;
  opts.window = 64;
  opts.max_visited = 1;
  opts.order_check = false;  // the cap bounds the engine windows
  IncrementalChecker inc(spec, opts);
  inc.push(wide_overlap_history(6, false));
  inc.finish();
  EXPECT_FALSE(inc.ok());
  EXPECT_TRUE(inc.status().exhausted);
  EXPECT_NE(inc.status().reason.find("exhausted"), std::string::npos);
}

TEST(IncrementalEdgeCases, TrackWitnessOffStillDecides) {
  ExchangerSpec spec(kE, kEx);
  for (bool order_check : {true, false}) {
    IncrementalOptions opts;
    opts.track_witness = false;
    opts.order_check = order_check;
    IncrementalChecker inc(spec, opts);
    inc.push(wide_overlap_history(5, false));
    inc.finish();
    EXPECT_TRUE(inc.ok());
    EXPECT_FALSE(inc.witness().has_value());
  }
}

// ---------------------------------------------------------------------------
// Order paths in streams: the online pairing monitor and the object split,
// against the batch check and against the engine windows (order_check
// off), which must never report a violation earlier than they do.

struct StreamTally {
  std::size_t accepts = 0;
  std::size_t rejects = 0;
};

/// Streams `h` with order_check on and off at `window` and checks both
/// against CalChecker: equal verdicts, valid witnesses, and a violation no
/// later than the engine windows report it.
void expect_stream_paths_agree(const CaSpec& spec, const History& h,
                               std::size_t window, bool complete_pending,
                               StreamTally& tally) {
  const std::string where = "window=" + std::to_string(window) +
                            " complete_pending=" +
                            (complete_pending ? "1" : "0") + "\n" +
                            h.to_string();
  CalCheckOptions batch_opts;
  batch_opts.complete_pending = complete_pending;
  const CalCheckResult batch = CalChecker(spec, batch_opts).check(h);
  IncrementalOptions opts;
  opts.window = window;
  opts.complete_pending = complete_pending;
  IncrementalChecker ordered(spec, opts);
  opts.order_check = false;
  opts.max_visited = std::size_t{1} << 20;
  IncrementalChecker engine(spec, opts);
  ordered.push(h);
  ordered.finish();
  engine.push(h);
  engine.finish();
  ASSERT_FALSE(engine.status().exhausted) << where;
  EXPECT_FALSE(ordered.status().exhausted) << where;
  ASSERT_EQ(engine.ok(), batch.ok) << where;
  ASSERT_EQ(ordered.ok(), batch.ok)
      << ordered.status().reason << "\n" << where;
  (batch.ok ? tally.accepts : tally.rejects) += 1;
  if (!batch.ok) {
    const IncrementalStatus& o = ordered.status();
    const IncrementalStatus& e = engine.status();
    EXPECT_GT(o.violation_window, 0u) << where;
    EXPECT_LE(o.violation_window, e.violation_window) << where;
    EXPECT_LE(o.actions_consumed, e.actions_consumed) << where;
    EXPECT_FALSE(o.reason.empty()) << where;
    return;
  }
  EXPECT_EQ(ordered.status().actions_consumed, h.actions().size());
  const std::optional<CaTrace> w = ordered.witness();
  ASSERT_TRUE(w.has_value()) << where;
  EXPECT_EQ(witness_fault(h, *w, spec), "") << where << w->to_string();
}

class PairingStreams : public ::testing::TestWithParam<PairingCase> {};

TEST_P(PairingStreams, MonitorMatchesBatchAndEngineWindows) {
  const PairingCase& pc = GetParam();
  std::unique_ptr<CaSpec> spec;
  if (pc.sync_queue) {
    spec = std::make_unique<SyncQueueSpec>(Symbol{"Y"});
  } else {
    spec = std::make_unique<ExchangerSpec>(kE, pc.method);
  }
  std::mt19937 rng(pc.seed);
  StreamTally tally;
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t threads = 2 + rng() % 4;
    const std::size_t per_thread = 1 + rng() % 3;
    const auto values = static_cast<std::int64_t>(1 + rng() % 4);
    History h = pairing_run(rng, pc, threads, per_thread, values);
    const std::size_t edits = rng() % 3;
    for (std::size_t e = 0; e < edits; ++e) h = mutate_pairing(rng, h);
    if (rng() % 3 == 0) h = drop_responses(h, 1 + rng() % 3);
    if (!h.well_formed()) continue;
    for (std::size_t window : {1, 2, 16}) {
      for (bool cp : {true, false}) {
        expect_stream_paths_agree(*spec, h, window, cp, tally);
      }
    }
  }
  EXPECT_GT(tally.accepts, 0u);
  EXPECT_GT(tally.rejects, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, PairingStreams,
    ::testing::Values(
        PairingCase{"Exchanger", false, Symbol{"exchange"}, 20261030u},
        PairingCase{"Rendezvous", false, Symbol{"rendezvous"}, 20261031u},
        PairingCase{"SyncQueue", true, Symbol{}, 20261032u}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(PairingStreams, OverlappingFailuresTakeNoSearch) {
  // 64 overlapping failed exchanges: the engine windows enumerate subsets
  // of them (exponential); the monitor decides each at its response.
  constexpr std::size_t kWidth = 64;
  ExchangerSpec spec(kE, kEx);
  const History h = wide_overlap_history(kWidth, false);
  IncrementalChecker inc(spec);
  inc.push(h);
  inc.finish();
  ASSERT_TRUE(inc.ok()) << inc.status().reason;
  EXPECT_EQ(inc.status().visited_states, 0u);
  EXPECT_EQ(inc.status().retired_ops, kWidth);
  EXPECT_EQ(inc.status().frontier_size, 1u);
  EXPECT_TRUE(inc.order_decided());
  const std::optional<CaTrace> w = inc.witness();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->size(), kWidth);
  EXPECT_EQ(witness_fault(h, *w, spec), "");
}

TEST(PairingStreams, ViolationReportedAtTheResponse) {
  // t1 swaps for 2 while t2 (offering 2) is open; t2 then returns
  // (true,99): no candidate is left for t1 or t2, so the monitor fails at
  // that response — the 4th action, in window 1 of 16.
  ExchangerSpec spec(kE, kEx);
  IncrementalChecker inc(spec);
  inc.push(Action::invoke(1, kE, kEx, iv(1)));
  inc.push(Action::invoke(2, kE, kEx, iv(2)));
  inc.push(Action::respond(1, kE, kEx, Value::pair(true, 2)));
  ASSERT_TRUE(inc.ok());
  inc.push(Action::respond(2, kE, kEx, Value::pair(true, 99)));
  ASSERT_FALSE(inc.ok());
  EXPECT_EQ(inc.status().violation_window, 1u);
  EXPECT_EQ(inc.status().windows_checked, 0u);
  EXPECT_EQ(inc.status().frontier_size, 0u);
  EXPECT_NE(inc.status().reason.find("partner"), std::string::npos)
      << inc.status().reason;
}

TEST(PairingStreams, OwedOperationsCompeteForOneCandidate) {
  // t1 and t2 both swapped for 3 while only t3 offers 3: one of them can
  // never be paid, so the stream fails at t2's response, before t3
  // responds (the engine windows reject there too).
  ExchangerSpec spec(kE, kEx);
  for (bool order_check : {true, false}) {
    IncrementalOptions opts;
    opts.window = 1;
    opts.order_check = order_check;
    IncrementalChecker inc(spec, opts);
    inc.push(Action::invoke(3, kE, kEx, iv(3)));
    inc.push(Action::invoke(1, kE, kEx, iv(1)));
    inc.push(Action::invoke(2, kE, kEx, iv(2)));
    inc.push(Action::respond(1, kE, kEx, Value::pair(true, 3)));
    ASSERT_TRUE(inc.ok()) << inc.status().reason;
    inc.push(Action::respond(2, kE, kEx, Value::pair(true, 3)));
    EXPECT_FALSE(inc.ok()) << "order_check=" << order_check;
    EXPECT_EQ(inc.status().violation_window, 5u);
  }
}

TEST(PairingStreams, PendingPartnerOnlyUnderCompletion) {
  // t1 swapped with t2, whose call never returns.
  ExchangerSpec spec(kE, kEx);
  const History h = HistoryBuilder()
                        .call(1, "E", "exchange", iv(1))
                        .call(2, "E", "exchange", iv(2))
                        .ret(1, Value::pair(true, 2))
                        .history();
  for (bool cp : {true, false}) {
    IncrementalOptions opts;
    opts.complete_pending = cp;
    IncrementalChecker inc(spec, opts);
    inc.push(h);
    inc.finish();
    EXPECT_EQ(inc.ok(), cp) << inc.status().reason;
    if (!cp) continue;
    const std::optional<CaTrace> w = inc.witness();
    ASSERT_TRUE(w.has_value());
    ASSERT_EQ(w->size(), 1u);
    EXPECT_EQ((*w)[0], CaElement::swap(kE, kEx, 1, 1, 2, 2));
  }
}

// ---------------------------------------------------------------------------
// Object split: a union stream decided object by object.

const Symbol kQ{"Q"};

UnionCaSpec exchanger_and_queue() {
  return UnionCaSpec(
      {{kE, std::make_shared<ExchangerSpec>(kE, kEx)},
       {kQ, std::make_shared<SeqAsCaSpec>(std::make_shared<QueueSpec>(kQ))}});
}

/// A valid FIFO-queue run on Q with real overlap, tids from 101: each
/// operation takes effect at a random micro-step between its invocation
/// and its response, on a queue of at most `bound` values.
History queue_run(std::mt19937& rng, std::size_t threads,
                  std::size_t ops_per_thread, std::size_t bound) {
  struct ThreadState {
    std::size_t done = 0;
    int phase = 0;  // 0 idle, 1 invoked, 2 took effect
    bool enq = false;
    Value ret;
  };
  const Symbol enq{"enq"};
  const Symbol deq{"deq"};
  History h;
  std::vector<ThreadState> ts(threads);
  std::deque<std::int64_t> queue;
  std::int64_t next = 1;
  for (;;) {
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < threads; ++i) {
      if (ts[i].done < ops_per_thread || ts[i].phase != 0) {
        runnable.push_back(i);
      }
    }
    if (runnable.empty()) break;
    const std::size_t me = runnable[rng() % runnable.size()];
    ThreadState& t = ts[me];
    const auto tid = static_cast<ThreadId>(101 + me);
    if (t.phase == 0) {
      t.enq = queue.size() < bound && rng() % 2 == 0;
      if (t.enq) {
        t.ret = iv(next++);  // the value, until it takes effect
        h.invoke(tid, kQ, enq, t.ret);
      } else {
        h.invoke(tid, kQ, deq);
      }
      t.phase = 1;
    } else if (t.phase == 1) {
      if (t.enq) {
        queue.push_back(t.ret.as_int());
        t.ret = Value::boolean(true);
      } else if (queue.empty()) {
        t.ret = Value::pair(false, 0);
      } else {
        t.ret = Value::pair(true, queue.front());
        queue.pop_front();
      }
      t.phase = 2;
    } else {
      h.respond(tid, kQ, t.enq ? enq : deq, t.ret);
      t.phase = 0;
      ++t.done;
    }
  }
  return h;
}

/// `a` and `b` (disjoint threads) interleaved at random, each in order.
History interleave(std::mt19937& rng, const History& a, const History& b) {
  std::vector<Action> out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a = j == b.size() || (i < a.size() && rng() % 2 == 0);
    out.push_back(take_a ? a[i++] : b[j++]);
  }
  return History(std::move(out));
}

TEST(UnionStreams, SplitMatchesProduct) {
  // Exchanger + queue streams shaped like perfbench's stream-long (narrow
  // overlap, a queue of at most four values), one in four with six
  // exchanges open at once; some edited or cut short.
  const UnionCaSpec spec = exchanger_and_queue();
  const PairingCase exchanges{"Exchanger", false, kEx, 0};
  std::mt19937 rng(20261033u);
  StreamTally tally;
  for (int iter = 0; iter < 150; ++iter) {
    const bool wide = iter % 4 == 0;
    const History x = pairing_run(rng, exchanges, wide ? 6 : 2 + rng() % 2,
                                  wide ? 1 : 1 + rng() % 3,
                                  static_cast<std::int64_t>(1 + rng() % 4));
    const History q = queue_run(rng, 2 + rng() % 2, 1 + rng() % 3, 4);
    History h = interleave(rng, x, q);
    if (rng() % 3 == 0) h = mutate_pairing(rng, h);
    if (rng() % 4 == 0) h = drop_responses(h, 1 + rng() % 2);
    if (!h.well_formed()) continue;
    for (bool cp : {true, false}) {
      CalCheckOptions product_opts;
      product_opts.order_check = false;
      product_opts.complete_pending = cp;
      product_opts.max_visited = std::size_t{1} << 20;
      const CalCheckResult product = CalChecker(spec, product_opts).check(h);
      ASSERT_FALSE(product.exhausted) << h.to_string();
      CalCheckOptions split_opts;
      split_opts.complete_pending = cp;
      const CalCheckResult split = CalChecker(spec, split_opts).check(h);
      ASSERT_EQ(split.ok, product.ok) << h.to_string();
      EXPECT_EQ(split.parts.size(), 2u);
      if (split.ok) {
        EXPECT_EQ(witness_fault(h, *split.witness, spec), "")
            << h.to_string() << split.witness->to_string();
      }
      for (std::size_t window : {1, 2, 16}) {
        expect_stream_paths_agree(spec, h, window, cp, tally);
      }
    }
  }
  EXPECT_GT(tally.accepts, 0u);
  EXPECT_GT(tally.rejects, 0u);
}

TEST(UnionStreams, CompletedCallOnUnregisteredObjectRejects) {
  const UnionCaSpec spec = exchanger_and_queue();
  const History completed =
      HistoryBuilder()
          .op(1, "E", "exchange", iv(1), Value::pair(false, 1))
          .op(2, "X", "frob", iv(1), Value::boolean(true))
          .history();
  const History pending = HistoryBuilder()
                              .op(1, "E", "exchange", iv(1),
                                  Value::pair(false, 1))
                              .call(2, "X", "frob", iv(1))
                              .history();
  for (bool order_check : {true, false}) {
    CalCheckOptions batch;
    batch.order_check = order_check;
    EXPECT_FALSE(CalChecker(spec, batch).check(completed).ok);
    EXPECT_TRUE(CalChecker(spec, batch).check(pending).ok);
    IncrementalOptions opts;
    opts.order_check = order_check;
    IncrementalChecker bad(spec, opts);
    bad.push(completed);
    bad.finish();
    EXPECT_FALSE(bad.ok()) << "order_check=" << order_check;
    EXPECT_EQ(bad.status().violation_window, 1u);
    IncrementalChecker good(spec, opts);
    good.push(pending);
    good.finish();
    EXPECT_TRUE(good.ok()) << good.status().reason;
  }
}

TEST(UnionStreams, CrossObjectNestedCallIsIllFormed) {
  // Thread 1 invokes on Q while its exchange on E is still open: the
  // well-formedness rules hold on the whole stream, not per object.
  const UnionCaSpec spec = exchanger_and_queue();
  for (bool order_check : {true, false}) {
    IncrementalOptions opts;
    opts.order_check = order_check;
    IncrementalChecker inc(spec, opts);
    inc.push(Action::invoke(1, kE, kEx, iv(1)));
    inc.push(Action::invoke(1, kQ, Symbol{"enq"}, iv(5)));
    EXPECT_FALSE(inc.ok());
    EXPECT_NE(inc.status().reason.find("not well-formed"), std::string::npos)
        << inc.status().reason;
  }
}

TEST(UnionStreams, WindowsCountTheWholeStream) {
  // The parts close their windows at the union's boundaries, so the
  // counters read as one stream's: windows, operations and retirements.
  const UnionCaSpec spec = exchanger_and_queue();
  std::mt19937 rng(5);
  const History h =
      interleave(rng, pairing_run(rng, {"Exchanger", false, kEx, 0}, 3, 4, 3),
                 queue_run(rng, 3, 4, 4));
  ASSERT_TRUE(h.well_formed());
  for (bool order_check : {true, false}) {
    IncrementalOptions opts;
    opts.window = 3;
    opts.order_check = order_check;
    IncrementalChecker inc(spec, opts);
    inc.push(h);
    inc.finish();
    ASSERT_TRUE(inc.ok()) << inc.status().reason;
    EXPECT_EQ(inc.status().windows_checked, (h.size() + 2) / 3);
    EXPECT_EQ(inc.status().operations, h.size() / 2);
    EXPECT_EQ(inc.status().retired_ops, h.size() / 2);
    EXPECT_EQ(inc.order_decided(), order_check);
    const std::optional<CaTrace> w = inc.witness();
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(witness_fault(h, *w, spec), "");
  }
}

// ---------------------------------------------------------------------------
// Live streaming from the runtime recorder: a cursor feeds the checker
// while worker threads are still publishing.

TEST(IncrementalStreaming, FollowsRecorderCursorDuringExecution) {
  runtime::EpochDomain ebr;
  objects::Exchanger ex(ebr, kE);
  runtime::Recorder rec(1 << 12);
  ExchangerSpec spec(ex.name(), ex.method());
  IncrementalOptions opts;
  opts.window = 8;
  IncrementalChecker inc(spec, opts);
  opts.order_check = false;
  IncrementalChecker engine(spec, opts);  // the engine windows, alongside
  runtime::Recorder::Cursor cursor = rec.cursor();

  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      const auto tid = static_cast<ThreadId>(i);
      for (int r = 0; r < kRounds; ++r) {
        const std::int64_t v = i * 100 + r;
        rec.invoke(tid, ex.name(), ex.method(), iv(v));
        objects::ExchangeResult res = ex.exchange(tid, v, 512);
        rec.respond(tid, ex.name(), ex.method(),
                    Value::pair(res.ok, res.value));
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // Follow the log while the run is live: consume whatever is published,
  // checking window-by-window as enough arrives.
  const auto drain = [&] {
    return cursor.poll([&](const Action& a) {
      inc.push(a);
      engine.push(a);
    });
  };
  while (running.load(std::memory_order_acquire) > 0) {
    drain();
    std::this_thread::yield();
  }
  for (std::thread& t : workers) t.join();
  while (drain() > 0) {
  }
  inc.finish();
  engine.finish();

  const History h = rec.snapshot();
  ASSERT_TRUE(h.well_formed());
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(inc.status().actions_consumed, h.actions().size());
  // A real exchanger execution is CAL; the streaming verdict must agree
  // with the batch verdict on the recorded history either way.
  const CalCheckResult batch = CalChecker(spec).check(h);
  EXPECT_TRUE(batch.ok) << h.to_string();
  EXPECT_EQ(inc.ok(), batch.ok) << inc.status().reason;
  EXPECT_EQ(engine.ok(), batch.ok) << engine.status().reason;
  const std::optional<CaTrace> w = inc.witness();
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(replay_ca(*w, spec).ok);
  if (h.complete()) {
    EXPECT_TRUE(agrees_with(h, *w).agrees);
  }
}

}  // namespace
}  // namespace cal
