// Differential suite for the order checkers of the collections and of the
// stateless pairing specs (cal/engine/order_checker.hpp).
//
// Stack and queue: on random histories, whenever the order path answers,
// its verdict must equal the engine's — for CalChecker over SeqAsCaSpec
// and for LinChecker, under both complete_pending settings — and every
// accepted witness must replay through the spec and agree with the
// history's completion. It also pins how rarely the path declines and the
// hand-built instances at the edges of its rules.
//
// Exchanger (default and renamed method) and synchronous queue: the
// pairing sweep must answer every history, with the engine's verdict
// under both complete_pending settings and a valid witness on acceptance.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/lin_checker.hpp"
#include "cal/replay.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "corpus.hpp"

namespace cal {
namespace {

const Symbol kS{"S"};
const Symbol kQ{"Q"};

Value iv(std::int64_t x) { return Value::integer(x); }
Value got(std::int64_t x) { return Value::pair(true, x); }
const Value kEmpty = Value::pair(false, 0);
const Value kTrue = Value::boolean(true);

/// One of the two specs under test, with its method names.
struct Collection {
  bool lifo;
  Symbol object;
  Symbol insert;
  Symbol remove;
  std::shared_ptr<const SequentialSpec> seq;
  SeqAsCaSpec ca;

  explicit Collection(bool is_stack)
      : lifo(is_stack),
        object(is_stack ? kS : kQ),
        insert(is_stack ? "push" : "enq"),
        remove(is_stack ? "pop" : "deq"),
        seq(is_stack ? std::shared_ptr<const SequentialSpec>(
                           std::make_shared<StackSpec>(kS))
                     : std::make_shared<QueueSpec>(kQ)),
        ca(seq) {}
};

// ---------------------------------------------------------------------------
// Generators.

/// A linearizable-by-construction run with real overlap: each thread's next
/// operation moves through invoke → linearize (against the shared
/// container) → respond, and the scheduler interleaves those micro-steps at
/// random, which widens every interval around its linearization point. A
/// stack pop is only invoked while an element is reserved for it (StackSpec
/// has no empty pop). With `duplicates` some inserts reuse a small value
/// pool.
History random_run(std::mt19937& rng, const Collection& c,
                   std::size_t threads, std::size_t ops_per_thread,
                   bool duplicates) {
  struct ThreadState {
    std::size_t done = 0;
    int phase = 0;  // 0 idle, 1 invoked, 2 linearized
    bool inserting = false;
    std::int64_t value = 0;
    Value ret;
  };
  History h;
  std::vector<ThreadState> ts(threads);
  std::deque<std::int64_t> box;  // a stack's top at the back
  std::size_t reserved = 0;      // stack pops invoked, not yet linearized
  std::int64_t next_value = 1;
  std::vector<std::size_t> runnable;
  for (;;) {
    runnable.clear();
    for (std::size_t i = 0; i < threads; ++i) {
      if (ts[i].done < ops_per_thread || ts[i].phase != 0) {
        runnable.push_back(i);
      }
    }
    if (runnable.empty()) break;
    ThreadState& t = ts[runnable[rng() % runnable.size()]];
    const auto tid = static_cast<ThreadId>(&t - ts.data() + 1);
    if (t.phase == 0) {
      const bool can_pop = !c.lifo || box.size() > reserved;
      t.inserting = !can_pop || rng() % 2 == 0;
      if (t.inserting) {
        t.value = duplicates && rng() % 3 == 0
                      ? static_cast<std::int64_t>(rng() % 3 + 1)
                      : next_value++;
        h.invoke(tid, c.object, c.insert, iv(t.value));
      } else {
        if (c.lifo) ++reserved;
        h.invoke(tid, c.object, c.remove);
      }
      t.phase = 1;
    } else if (t.phase == 1) {
      if (t.inserting) {
        box.push_back(t.value);
        t.ret = kTrue;
      } else if (box.empty()) {
        t.ret = kEmpty;  // queue only: a stack pop always has a reserve
      } else if (c.lifo) {
        --reserved;
        t.ret = got(box.back());
        box.pop_back();
      } else {
        t.ret = got(box.front());
        box.pop_front();
      }
      t.phase = 2;
    } else {
      h.respond(tid, c.object, t.inserting ? c.insert : c.remove, t.ret);
      t.phase = 0;
      ++t.done;
    }
  }
  return h;
}

/// Indices of the responses of `method` whose return is a pair.
std::vector<std::size_t> removal_responses(const std::vector<Action>& a,
                                           Symbol method) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_respond() && a[i].method == method &&
        a[i].payload.kind() == Value::Kind::kPair) {
      out.push_back(i);
    }
  }
  return out;
}

/// One random edit of the returns or the action order. The result may or
/// may not stay linearizable — only verdict agreement matters. Never adds
/// a duplicate inserted value.
History mutate(std::mt19937& rng, const Collection& c, const History& h) {
  std::vector<Action> a = h.actions();
  const std::vector<std::size_t> rems = removal_responses(a, c.remove);
  switch (rng() % 6) {
    case 0:  // swap the returns of two removals
      if (rems.size() >= 2) {
        const std::size_t x = rems[rng() % rems.size()];
        const std::size_t y = rems[rng() % rems.size()];
        std::swap(a[x].payload, a[y].payload);
      }
      break;
    case 1:  // a removal returns a value never inserted
      if (!rems.empty()) a[rems[rng() % rems.size()]].payload = got(999999);
      break;
    case 2:  // a removal returns some inserted value (perhaps twice)
      if (!rems.empty()) {
        a[rems[rng() % rems.size()]].payload =
            got(static_cast<std::int64_t>(rng() % 8 + 1));
      }
      break;
    case 3:  // a removal reports empty (a queue) / an empty dequeue a value
      if (!rems.empty()) {
        Value& p = a[rems[rng() % rems.size()]].payload;
        p = p.pair_ok() ? kEmpty
                        : got(static_cast<std::int64_t>(rng() % 8 + 1));
      }
      break;
    default: {  // move one response earlier (narrower interval) or later
      std::vector<std::size_t> resp;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].is_respond()) resp.push_back(i);
      }
      if (resp.empty()) break;
      const std::size_t from = resp[rng() % resp.size()];
      const std::size_t to = rng() % a.size();
      Action moved = a[from];
      a.erase(a.begin() + static_cast<std::ptrdiff_t>(from));
      a.insert(a.begin() + static_cast<std::ptrdiff_t>(std::min(to, a.size())),
               std::move(moved));
      break;
    }
  }
  return History(std::move(a));
}

/// Adds one operation the spec never steps — another object's, or an
/// unknown method — completed or pending.
History add_foreign(std::mt19937& rng, const History& h) {
  std::vector<Action> a = h.actions();
  const ThreadId t = 99;
  const Symbol obj = rng() % 2 == 0 ? Symbol{"X"} : kQ;
  const Symbol method = rng() % 2 == 0 ? Symbol{"peek"} : Symbol{"push"};
  const std::size_t at = rng() % (a.size() + 1);
  a.insert(a.begin() + static_cast<std::ptrdiff_t>(at),
           Action::invoke(t, obj, method, iv(7)));
  if (rng() % 2 == 0) a.push_back(Action::respond(t, obj, method, kTrue));
  return History(std::move(a));
}

/// A corpus-shaped history: a valid plan of `elements` operations (depth
/// at most `bound`) realized with at most `width` overlapping operations;
/// `reject` rewrites one of the last removals to a value never inserted.
History corpus_history(std::mt19937& rng, const Collection& c,
                       std::size_t width, bool reject) {
  const std::size_t elements = 20;
  const std::size_t bound = c.lifo ? 3 : 4;
  struct Planned {
    Symbol method;
    Value arg;
    Value ret;
  };
  std::vector<Planned> plan;
  std::deque<std::int64_t> box;
  std::int64_t next = 1;
  for (std::size_t k = 0; k < elements; ++k) {
    const bool insert = box.empty() ? c.lifo || rng() % 100 < 85
                                    : box.size() < bound && rng() % 2 == 0;
    if (insert) {
      box.push_back(next++);
      plan.push_back({c.insert, iv(box.back()), kTrue});
    } else if (box.empty()) {
      plan.push_back({c.remove, Value::unit(), kEmpty});
    } else {
      const std::int64_t v = c.lifo ? box.back() : box.front();
      if (c.lifo) {
        box.pop_back();
      } else {
        box.pop_front();
      }
      plan.push_back({c.remove, Value::unit(), got(v)});
    }
  }
  struct Open {
    ThreadId tid;
    Symbol method;
    Value ret;
  };
  std::vector<Action> actions;
  std::vector<Open> open;
  std::vector<ThreadId> idle;
  for (ThreadId t = 1; t <= width + 2; ++t) idle.push_back(t);
  auto respond = [&](std::size_t i) {
    actions.push_back(
        Action::respond(open[i].tid, c.object, open[i].method, open[i].ret));
    idle.push_back(open[i].tid);
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
  };
  for (const Planned& p : plan) {
    while (open.size() + 1 > width) respond(rng() % open.size());
    const std::size_t pick = rng() % idle.size();
    const ThreadId tid = idle[pick];
    idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(pick));
    actions.push_back(Action::invoke(tid, c.object, p.method, p.arg));
    open.push_back(Open{tid, p.method, p.ret});
    for (std::size_t i = open.size(); i-- > 0;) {
      if (rng() % 100 < 35) respond(i);
    }
  }
  while (!open.empty()) respond(rng() % open.size());
  if (reject) {
    const std::vector<std::size_t> rems = removal_responses(actions, c.remove);
    if (!rems.empty()) {
      const std::size_t back = rng() % std::min<std::size_t>(3, rems.size());
      actions[rems[rems.size() - 1 - back]].payload = got(987654321);
    }
  }
  return History(std::move(actions));
}

// ---------------------------------------------------------------------------
// The oracle.

std::vector<Operation> ops_of(const CaTrace& t) {
  std::vector<Operation> out;
  for (const CaElement& e : t.elements()) {
    EXPECT_EQ(e.size(), 1u) << "order witnesses are singleton traces";
    out.insert(out.end(), e.ops().begin(), e.ops().end());
  }
  return out;
}

CaTrace singletons(const std::vector<Operation>& ops) {
  CaTrace t;
  for (const Operation& op : ops) t.append(CaElement::singleton(op.object, op));
  return t;
}

struct Tally {
  std::size_t checks = 0;
  std::size_t declined = 0;
  std::size_t accepts = 0;
  std::size_t rejects = 0;
  std::size_t order_rejects = 0;
};

/// Runs both checkers on `h` with and without the order path and checks
/// agreement and witnesses. Counts the CAL path's outcome in `tally`.
void expect_paths_agree(const Collection& c, const History& h,
                        bool complete_pending, Tally& tally) {
  ASSERT_TRUE(h.well_formed()) << h.to_string();
  // The caps bound the engine's memory; a tripped cap fails the test.
  constexpr std::size_t kMaxVisited = std::size_t{1} << 20;
  CalCheckOptions engine_cal;
  engine_cal.order_check = false;
  engine_cal.complete_pending = complete_pending;
  engine_cal.max_visited = kMaxVisited;
  CalCheckOptions order_cal = engine_cal;
  order_cal.order_check = true;
  const CalCheckResult want = CalChecker(c.ca, engine_cal).check(h);
  ASSERT_FALSE(want.exhausted) << h.to_string();
  const CalCheckResult cal = CalChecker(c.ca, order_cal).check(h);

  LinCheckOptions engine_lin;
  engine_lin.order_check = false;
  engine_lin.complete_pending = complete_pending;
  engine_lin.max_visited = kMaxVisited;
  LinCheckOptions order_lin = engine_lin;
  order_lin.order_check = true;
  const LinCheckResult lin_want = LinChecker(*c.seq, engine_lin).check(h);
  ASSERT_FALSE(lin_want.exhausted);
  const LinCheckResult lin = LinChecker(*c.seq, order_lin).check(h);

  const std::string where = std::string(c.lifo ? "stack" : "queue") +
                            " complete_pending=" +
                            (complete_pending ? "1" : "0") + "\n" +
                            h.to_string();
  ASSERT_EQ(lin_want.ok, want.ok) << "engine lin vs CAL, " << where;
  EXPECT_EQ(cal.ok, want.ok) << "CAL order path, " << where;
  EXPECT_EQ(lin.ok, want.ok) << "lin order path, " << where;
  EXPECT_EQ(cal.order_checked, lin.order_checked) << where;

  ++tally.checks;
  (want.ok ? tally.accepts : tally.rejects) += 1;
  if (!cal.order_checked) {
    ++tally.declined;
    return;
  }
  EXPECT_EQ(cal.visited_states, 0u);
  if (!cal.ok) {
    ++tally.order_rejects;
    EXPECT_FALSE(cal.witness.has_value());
    return;
  }
  ASSERT_TRUE(cal.witness.has_value()) << where;
  ASSERT_TRUE(lin.witness.has_value()) << where;
  EXPECT_EQ(witness_fault(h, *cal.witness, c.ca), "")
      << "CAL, " << where << cal.witness->to_string();
  EXPECT_EQ(witness_fault(h, singletons(*lin.witness), c.ca), "")
      << "lin, " << where;
  EXPECT_EQ(ops_of(*cal.witness), *lin.witness)
      << "both checkers read one linearization";
}

// ---------------------------------------------------------------------------
// Random differential.

class CollectionOrderDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(CollectionOrderDifferential, OrderPathAgreesWithEngine) {
  const Collection c(GetParam());
  std::mt19937 rng(GetParam() ? 20261018u : 20261019u);
  Tally complete;  // complete, distinct-value histories
  Tally other;     // pending, duplicate and foreign variants
  for (int iter = 0; iter < 700; ++iter) {
    const std::size_t threads = 2 + rng() % 4;
    const std::size_t per_thread = 2 + rng() % 3;
    History h = random_run(rng, c, threads, per_thread, false);
    const std::size_t edits = rng() % 4;
    for (std::size_t e = 0; e < edits; ++e) h = mutate(rng, c, h);
    if (!h.well_formed()) continue;
    for (bool cp : {true, false}) {
      expect_paths_agree(c, h, cp, complete);
      expect_paths_agree(c, drop_responses(h, 1 + rng() % 3), cp, other);
      expect_paths_agree(c, add_foreign(rng, h), cp, other);
    }
    const History dup = random_run(rng, c, threads, per_thread, true);
    for (bool cp : {true, false}) expect_paths_agree(c, dup, cp, other);
  }
  // Every quadrant is exercised, and the order path answers nearly every
  // complete, distinct-value history.
  EXPECT_GT(complete.accepts, 0u);
  EXPECT_GT(complete.rejects, 0u);
  EXPECT_GT(complete.order_rejects, 0u);
  EXPECT_GT(other.declined, 0u);
  EXPECT_LE(complete.declined * 100, complete.checks)
      << complete.declined << " of " << complete.checks << " declined";
  std::printf("[ %s ] complete: %zu checks, %zu declined, %zu rejects "
              "(%zu by order); other: %zu checks, %zu declined\n",
              c.lifo ? "stack" : "queue", complete.checks, complete.declined,
              complete.rejects, complete.order_rejects, other.checks,
              other.declined);
}

TEST_P(CollectionOrderDifferential, CorpusShapedHistoriesNeverDecline) {
  const Collection c(GetParam());
  std::mt19937 rng(5);
  Tally tally;
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t width = 2 + iter % 4;
    const History h = corpus_history(rng, c, width, iter % 10 == 9);
    expect_paths_agree(c, h, true, tally);
  }
  EXPECT_EQ(tally.declined, 0u);
  EXPECT_GT(tally.rejects, 0u);
}

INSTANTIATE_TEST_SUITE_P(Specs, CollectionOrderDifferential,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "Stack" : "Queue";
                         });

// ---------------------------------------------------------------------------
// Pinned instances.

CalCheckResult cal_path(const Collection& c, const History& h,
                        bool order_check = true,
                        bool complete_pending = true) {
  CalCheckOptions o;
  o.order_check = order_check;
  o.complete_pending = complete_pending;
  return CalChecker(c.ca, o).check(h);
}

TEST(CollectionOrder, SequentialRunsAcceptWithoutSearch) {
  const Collection stack(true);
  const History s = HistoryBuilder()
                        .op(1, "S", "push", iv(1), kTrue)
                        .op(1, "S", "push", iv(2), kTrue)
                        .op(2, "S", "pop", Value::unit(), got(2))
                        .op(2, "S", "pop", Value::unit(), got(1))
                        .history();
  const CalCheckResult rs = cal_path(stack, s);
  EXPECT_TRUE(rs.ok);
  EXPECT_TRUE(rs.order_checked);
  EXPECT_EQ(rs.order_values, 2u);
  EXPECT_EQ(rs.order_zones, 0u);
  EXPECT_EQ(rs.visited_states, 0u);

  const Collection queue(false);
  const History q = HistoryBuilder()
                        .op(1, "Q", "deq", Value::unit(), kEmpty)
                        .op(1, "Q", "enq", iv(1), kTrue)
                        .op(1, "Q", "enq", iv(2), kTrue)
                        .op(2, "Q", "deq", Value::unit(), got(1))
                        .history();
  const CalCheckResult rq = cal_path(queue, q);
  EXPECT_TRUE(rq.ok);
  EXPECT_TRUE(rq.order_checked);
  const LinCheckResult lq = LinChecker(*queue.seq).check(q);
  EXPECT_TRUE(lq.ok);
  EXPECT_TRUE(lq.order_checked);
}

TEST(CollectionOrder, OverlappingEnqueuesDecideTheHead) {
  // Both enqueues overlap; deq ▷ 2 forces enq(2) first. The order path
  // places enq(2) ahead of enq(1) at enq(1)'s response.
  const Collection queue(false);
  const History h = HistoryBuilder()
                        .call(1, "Q", "enq", iv(1))
                        .call(2, "Q", "enq", iv(2))
                        .ret(1, kTrue)
                        .ret(2, kTrue)
                        .op(3, "Q", "deq", Value::unit(), got(2))
                        .history();
  const LinCheckResult r = LinChecker(*queue.seq).check(h);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.order_checked);
  ASSERT_EQ(r.witness->size(), 3u);
  EXPECT_EQ((*r.witness)[0].arg, iv(2));
}

TEST(CollectionOrder, ThreeValueStackDeclinesAndEngineRejects) {
  // push(2) runs after push(1) completes and completes before pop ▷ 1
  // starts, so 2 sits above 1 and pop ▷ 1 must wait for pop ▷ 2 — until
  // after push(3) completed. 3 is never popped and was pushed after
  // push(1) completed: it sits above 1 when pop ▷ 1 runs. No pair of
  // values shows the LIFO pattern (push(3) overlaps pop ▷ 1's
  // invocation), so the order path declines and the engine rejects.
  const Collection stack(true);
  const History h = HistoryBuilder()
                        .op(1, "S", "push", iv(1), kTrue)
                        .call(3, "S", "push", iv(3))
                        .call(2, "S", "push", iv(2))
                        .ret(2, kTrue)
                        .call(4, "S", "pop")
                        .ret(3, kTrue)
                        .call(5, "S", "pop")
                        .ret(4, got(1))
                        .ret(5, got(2))
                        .history();
  const CalCheckResult order = cal_path(stack, h);
  EXPECT_FALSE(order.ok);
  EXPECT_FALSE(order.order_checked) << "the pairwise rules miss it";
  EXPECT_FALSE(cal_path(stack, h, /*order_check=*/false).ok);
  const LinCheckResult lin = LinChecker(*stack.seq).check(h);
  EXPECT_FALSE(lin.ok);
  EXPECT_FALSE(lin.order_checked);
}

TEST(CollectionOrder, CoveringZonesRejectAnEmptyDequeue) {
  // Value 1 is present from enq(1)'s response until deq ▷ 1 is invoked,
  // value 2 from enq(2)'s response on. Neither zone covers the empty
  // dequeue's interval alone; together they do.
  const Collection queue(false);
  const History h = HistoryBuilder()
                        .op(1, "Q", "enq", iv(1), kTrue)
                        .call(2, "Q", "deq")
                        .op(1, "Q", "enq", iv(2), kTrue)
                        .op(3, "Q", "deq", Value::unit(), got(1))
                        .ret(2, kEmpty)
                        .history();
  const CalCheckResult order = cal_path(queue, h);
  EXPECT_FALSE(order.ok);
  EXPECT_TRUE(order.order_checked);
  EXPECT_FALSE(cal_path(queue, h, false).ok);
  const LinCheckResult lin = LinChecker(*queue.seq).check(h);
  EXPECT_FALSE(lin.ok);
  EXPECT_TRUE(lin.order_checked);
}

TEST(CollectionOrder, DuplicateValuesDecline) {
  const Collection stack(true);
  const History h = HistoryBuilder()
                        .op(1, "S", "push", iv(1), kTrue)
                        .op(2, "S", "push", iv(1), kTrue)
                        .op(1, "S", "pop", Value::unit(), got(1))
                        .op(2, "S", "pop", Value::unit(), got(1))
                        .history();
  const CalCheckResult r = cal_path(stack, h);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.order_checked);
  EXPECT_GT(r.visited_states, 0u);
}

TEST(CollectionOrder, PendingRemovalDeclinesUnlessDropped) {
  const Collection queue(false);
  const History h = HistoryBuilder()
                        .op(1, "Q", "enq", iv(1), kTrue)
                        .call(2, "Q", "deq")
                        .op(3, "Q", "deq", Value::unit(), kEmpty)
                        .history();
  const CalCheckResult r = cal_path(queue, h);
  EXPECT_TRUE(r.ok) << "firing the pending deq ▷ 1 first explains it";
  EXPECT_FALSE(r.order_checked);
  const CalCheckResult dropped =
      cal_path(queue, h, true, /*complete_pending=*/false);
  EXPECT_FALSE(dropped.ok);
  EXPECT_TRUE(dropped.order_checked);
}

TEST(CollectionOrder, PendingInsertFiresOnlyWhenRemoved) {
  const Collection stack(true);
  const History fired = HistoryBuilder()
                            .call(1, "S", "push", iv(5))
                            .op(2, "S", "pop", Value::unit(), got(5))
                            .history();
  const CalCheckResult r = cal_path(stack, fired);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.order_checked);
  ASSERT_EQ(r.witness->size(), 2u);
  EXPECT_EQ((*r.witness)[0].ops()[0].ret, kTrue);
  EXPECT_FALSE(cal_path(stack, fired, true, false).ok);

  const Collection queue(false);
  const History dropped = HistoryBuilder()
                              .call(1, "Q", "enq", iv(5))
                              .op(2, "Q", "deq", Value::unit(), kEmpty)
                              .history();
  const CalCheckResult d = cal_path(queue, dropped);
  EXPECT_TRUE(d.ok);
  EXPECT_TRUE(d.order_checked);
  EXPECT_EQ(d.witness->size(), 1u);
}

TEST(CollectionOrder, StepsTheSpecNeverTakesReject) {
  const Collection stack(true);
  const Collection queue(false);
  const History empty_pop =
      HistoryBuilder().op(1, "S", "pop", Value::unit(), kEmpty).history();
  const History failed_push = HistoryBuilder()
                                  .op(1, "S", "push", iv(1),
                                      Value::boolean(false))
                                  .history();
  const History bad_empty = HistoryBuilder()
                                .op(1, "Q", "deq", Value::unit(),
                                    Value::pair(false, 3))
                                .history();
  const History foreign = HistoryBuilder()
                              .op(1, "Q", "enq", iv(1), kTrue)
                              .op(1, "Q", "peek", Value::unit(), kTrue)
                              .history();
  for (const auto& [c, h] : {std::pair{&stack, empty_pop},
                             std::pair{&stack, failed_push},
                             std::pair{&queue, bad_empty},
                             std::pair{&queue, foreign}}) {
    const CalCheckResult r = cal_path(*c, h);
    EXPECT_FALSE(r.ok) << h.to_string();
    EXPECT_TRUE(r.order_checked) << h.to_string();
    EXPECT_FALSE(cal_path(*c, h, false).ok) << h.to_string();
  }
}

// ---------------------------------------------------------------------------
// The pairing path: exchanger and synchronous queue.

const Symbol kE{"E"};
const Symbol kY{"Y"};

struct PairingTally {
  std::size_t checks = 0;
  std::size_t declined = 0;
  std::size_t accepts = 0;
  std::size_t rejects = 0;
  std::size_t pending_partners = 0;  ///< accepted witnesses firing one
};

/// Decides `h` on the engine and on the pairing path and checks that the
/// path answered, with the engine's verdict and a valid witness.
void expect_pairing_agrees(const CaSpec& spec, const History& h,
                           bool complete_pending, PairingTally& tally) {
  ASSERT_TRUE(h.well_formed()) << h.to_string();
  constexpr std::size_t kMaxVisited = std::size_t{1} << 20;
  CalCheckOptions engine;
  engine.order_check = false;
  engine.complete_pending = complete_pending;
  engine.max_visited = kMaxVisited;
  CalCheckOptions order = engine;
  order.order_check = true;
  const CalCheckResult want = CalChecker(spec, engine).check(h);
  ASSERT_FALSE(want.exhausted) << h.to_string();
  const CalCheckResult got_r = CalChecker(spec, order).check(h);
  const std::string where = std::string("complete_pending=") +
                            (complete_pending ? "1" : "0") + "\n" +
                            h.to_string();
  ++tally.checks;
  (want.ok ? tally.accepts : tally.rejects) += 1;
  if (!got_r.order_checked) ++tally.declined;
  EXPECT_TRUE(got_r.order_checked) << "declined, " << where;
  EXPECT_EQ(got_r.ok, want.ok) << where;
  EXPECT_EQ(got_r.visited_states, 0u);
  if (!got_r.ok) {
    EXPECT_FALSE(got_r.witness.has_value());
    return;
  }
  ASSERT_TRUE(got_r.witness.has_value()) << where;
  EXPECT_EQ(witness_fault(h, *got_r.witness, spec), "")
      << where << got_r.witness->to_string();
  const std::size_t completed = static_cast<std::size_t>(std::count_if(
      h.actions().begin(), h.actions().end(),
      [](const Action& a) { return a.is_respond(); }));
  if (got_r.witness->all_ops().size() > completed) ++tally.pending_partners;
}

class PairingOrderDifferential
    : public ::testing::TestWithParam<PairingCase> {};

TEST_P(PairingOrderDifferential, PairingPathAgreesWithEngine) {
  const PairingCase& pc = GetParam();
  std::unique_ptr<CaSpec> spec;
  if (pc.sync_queue) {
    spec = std::make_unique<SyncQueueSpec>(kY);
  } else {
    spec = std::make_unique<ExchangerSpec>(kE, pc.method);
  }
  std::mt19937 rng(pc.seed);
  PairingTally tally;
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t threads = 2 + rng() % 4;
    const std::size_t per_thread = 1 + rng() % 3;
    const auto values = static_cast<std::int64_t>(1 + rng() % 4);
    History h = pairing_run(rng, pc, threads, per_thread, values);
    const std::size_t edits = rng() % 3;
    for (std::size_t e = 0; e < edits; ++e) h = mutate_pairing(rng, h);
    if (rng() % 3 == 0) h = drop_responses(h, 1 + rng() % 3);
    if (!h.well_formed()) continue;
    for (bool cp : {true, false}) {
      expect_pairing_agrees(*spec, h, cp, tally);
      if (iter % 8 == 0) {
        expect_pairing_agrees(*spec, add_foreign(rng, h), cp, tally);
      }
    }
  }
  EXPECT_EQ(tally.declined, 0u);
  EXPECT_GT(tally.accepts, 0u);
  EXPECT_GT(tally.rejects, 0u);
  EXPECT_GT(tally.pending_partners, 0u);
  std::printf("[ %s ] %zu checks: %zu accepts (%zu with a pending partner), "
              "%zu rejects, %zu declined\n",
              pc.name, tally.checks, tally.accepts, tally.pending_partners,
              tally.rejects, tally.declined);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, PairingOrderDifferential,
    ::testing::Values(
        PairingCase{"Exchanger", false, Symbol{"exchange"}, 20261020u},
        PairingCase{"Rendezvous", false, Symbol{"rendezvous"}, 20261021u},
        PairingCase{"SyncQueue", true, Symbol{}, 20261022u}),
    [](const auto& info) { return std::string(info.param.name); });

CalCheckResult pairing_path(const CaSpec& spec, const History& h,
                            bool complete_pending = true) {
  CalCheckOptions o;
  o.complete_pending = complete_pending;
  return CalChecker(spec, o).check(h);
}

bool engine_accepts(const CaSpec& spec, const History& h,
                    bool complete_pending = true) {
  CalCheckOptions o;
  o.order_check = false;
  o.complete_pending = complete_pending;
  return CalChecker(spec, o).check(h).ok;
}

TEST(PairingOrder, ThreeThreadsExchangingOneValueReject) {
  // Every exchange offers 1 and receives 1, all overlapping: pairs take
  // two, so one is left without a partner.
  const ExchangerSpec spec(kE);
  // With `pending`, a fourth exchange of 1 is invoked alongside them and
  // never responds.
  const auto run = [](bool pending) {
    HistoryBuilder b;
    for (ThreadId t = 1; t <= 3; ++t) b.call(t, "E", "exchange", iv(1));
    if (pending) b.call(4, "E", "exchange", iv(1));
    for (ThreadId t = 1; t <= 3; ++t) b.ret(t, got(1));
    return b.history();
  };
  const History three = run(false);
  const CalCheckResult r = pairing_path(spec, three);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.order_checked);
  EXPECT_FALSE(engine_accepts(spec, three));
  // The pending fourth completes the last pair.
  const History four = run(true);
  const CalCheckResult r4 = pairing_path(spec, four);
  EXPECT_TRUE(r4.ok);
  EXPECT_TRUE(r4.order_checked);
  EXPECT_TRUE(engine_accepts(spec, four));
  EXPECT_FALSE(pairing_path(spec, four, /*complete_pending=*/false).ok);
}

TEST(PairingOrder, PendingPartnerAcceptsOnlyUnderCompletion) {
  const ExchangerSpec spec(kE);
  const History h = HistoryBuilder()
                        .call(1, "E", "exchange", iv(3))
                        .call(2, "E", "exchange", iv(4))
                        .ret(1, got(4))
                        .history();
  const CalCheckResult r = pairing_path(spec, h);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.order_checked);
  ASSERT_EQ(r.witness->size(), 1u);
  EXPECT_EQ(r.witness->elements()[0],
            CaElement::swap(kE, Symbol{"exchange"}, 1, 3, 2, 4));
  const CalCheckResult dropped = pairing_path(spec, h, false);
  EXPECT_FALSE(dropped.ok);
  EXPECT_TRUE(dropped.order_checked);
  EXPECT_FALSE(engine_accepts(spec, h, false));

  // The sync queue's take and put stand in as partners the same way.
  const SyncQueueSpec sq(kY);
  const History take_waits = HistoryBuilder()
                                 .call(2, "Y", "take")
                                 .op(1, "Y", "put", iv(5), kTrue)
                                 .history();
  const CalCheckResult t = pairing_path(sq, take_waits);
  ASSERT_TRUE(t.ok);
  ASSERT_EQ(t.witness->size(), 1u);
  EXPECT_EQ(t.witness->elements()[0].ops().size(), 2u);
  EXPECT_FALSE(pairing_path(sq, take_waits, false).ok);
  const History put_waits = HistoryBuilder()
                                .call(1, "Y", "put", iv(5))
                                .op(2, "Y", "take", Value::unit(), got(5))
                                .history();
  EXPECT_TRUE(pairing_path(sq, put_waits).ok);
  const History wrong_value = HistoryBuilder()
                                  .call(1, "Y", "put", iv(6))
                                  .op(2, "Y", "take", Value::unit(), got(5))
                                  .history();
  EXPECT_FALSE(pairing_path(sq, wrong_value).ok);
  EXPECT_FALSE(engine_accepts(sq, wrong_value));
}

TEST(PairingOrder, PartnerThatRespondedFirstRejects) {
  // The values line up, but t2's exchange responded before t1's began:
  // the two never overlap, so they cannot form one element.
  const ExchangerSpec spec(kE);
  const History h = HistoryBuilder()
                        .op(2, "E", "exchange", iv(4), got(3))
                        .op(1, "E", "exchange", iv(3), got(4))
                        .history();
  const CalCheckResult r = pairing_path(spec, h);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.order_checked);
  EXPECT_FALSE(engine_accepts(spec, h));
}

TEST(PairingOrder, CompletedPartnerDominatesPending) {
  // At t1's response both t2 (completed) and t3 (pending) could pair with
  // it. t4 wants 2 as well but offers 3, which t2 does not want: only the
  // pending t3 can serve it. Taking t3 for t1 would strand t4 (and t2).
  const ExchangerSpec spec(kE);
  const History h = HistoryBuilder()
                        .call(1, "E", "exchange", iv(1))
                        .call(2, "E", "exchange", iv(2))
                        .call(3, "E", "exchange", iv(2))
                        .ret(1, got(2))
                        .call(4, "E", "exchange", iv(3))
                        .ret(2, got(1))
                        .ret(4, got(2))
                        .history();
  const CalCheckResult r = pairing_path(spec, h);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.order_checked);
  EXPECT_TRUE(engine_accepts(spec, h));
  ASSERT_EQ(r.witness->size(), 2u);
  EXPECT_EQ(r.witness->elements()[0],
            CaElement::swap(kE, Symbol{"exchange"}, 1, 1, 2, 2));
  EXPECT_EQ(r.witness->elements()[1],
            CaElement::swap(kE, Symbol{"exchange"}, 3, 2, 4, 3));
  EXPECT_FALSE(pairing_path(spec, h, false).ok);
  EXPECT_FALSE(engine_accepts(spec, h, false));
}

TEST(PairingOrder, EarliestDeadlinePartnerFirst) {
  // t2 and t3 both mirror t1 at its response. t4 mirrors them too, but is
  // invoked after t2 responded: only t3 is left for it. The sweep gives t1
  // the partner that responds first.
  const ExchangerSpec spec(kE);
  const History h = HistoryBuilder()
                        .call(1, "E", "exchange", iv(1))
                        .call(2, "E", "exchange", iv(2))
                        .call(3, "E", "exchange", iv(2))
                        .ret(1, got(2))
                        .ret(2, got(1))
                        .call(4, "E", "exchange", iv(1))
                        .ret(4, got(2))
                        .ret(3, got(1))
                        .history();
  const CalCheckResult r = pairing_path(spec, h);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.order_checked);
  EXPECT_TRUE(engine_accepts(spec, h));
  ASSERT_EQ(r.witness->size(), 2u);
  EXPECT_EQ(r.witness->elements()[1],
            CaElement::swap(kE, Symbol{"exchange"}, 3, 2, 4, 1));
}

TEST(PairingOrder, ShapesTheSpecNeverStepsReject) {
  const ExchangerSpec ex(kE);
  const SyncQueueSpec sq(kY);
  const History bad_failure =
      HistoryBuilder().op(1, "E", "exchange", iv(1), Value::pair(false, 2))
          .history();
  const History foreign_method =
      HistoryBuilder().op(1, "E", "swap", iv(1), Value::pair(false, 1))
          .history();
  const History bad_timeout =
      HistoryBuilder().op(1, "Y", "take", Value::unit(), Value::pair(false, 3))
          .history();
  const History put_not_bool =
      HistoryBuilder().op(1, "Y", "put", iv(1), got(1)).history();
  for (const auto& [spec, h] :
       {std::pair<const CaSpec*, History>{&ex, bad_failure},
        std::pair<const CaSpec*, History>{&ex, foreign_method},
        std::pair<const CaSpec*, History>{&sq, bad_timeout},
        std::pair<const CaSpec*, History>{&sq, put_not_bool}}) {
    const CalCheckResult r = pairing_path(*spec, h);
    EXPECT_FALSE(r.ok) << h.to_string();
    EXPECT_TRUE(r.order_checked) << h.to_string();
    EXPECT_FALSE(engine_accepts(*spec, h)) << h.to_string();
  }
  // A pending foreign invocation is dropped, not rejected.
  const History pending_foreign = HistoryBuilder()
                                      .call(2, "E", "swap", iv(9))
                                      .op(1, "E", "exchange", iv(1),
                                          Value::pair(false, 1))
                                      .history();
  EXPECT_TRUE(pairing_path(ex, pending_foreign).ok);
}

}  // namespace
}  // namespace cal
