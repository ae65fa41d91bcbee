// Differential corpus for the priority-queue order checker: generated
// linearizable histories (plus corrupted and truncated variants) must get
// the same verdict from the order path and from the engine, in both dedup
// modes, for CalChecker and for LinChecker(PriorityQueueSpec). Its own
// binary so the CI ASan/UBSan job can run it.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/history.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/priority_queue_spec.hpp"

namespace cal {
namespace {

const Symbol kP{"P"};
const Symbol kInsert{"insert"};
const Symbol kDeleteMin{"deleteMin"};

/// Builds a linearizable-by-construction history with real overlap: each
/// thread's next operation moves through invoke → linearize (against a
/// shared sorted pool) → respond, and the scheduler interleaves those
/// micro-steps at random. With `duplicates` some inserts reuse a small
/// value pool, pushing the instance outside the order checker's fragment.
History random_pq_history(std::mt19937& rng, std::size_t threads,
                          std::size_t ops_per_thread, bool duplicates) {
  struct ThreadState {
    std::size_t done = 0;
    int phase = 0;  // 0 idle, 1 invoked, 2 linearized
    bool inserting = false;
    Value arg;
    Value ret;
  };
  History h;
  std::vector<ThreadState> ts(threads);
  std::vector<std::int64_t> pool;  // current contents, kept sorted
  std::int64_t next_value = 100;
  auto active = [&] {
    std::vector<std::size_t> a;
    for (std::size_t i = 0; i < threads; ++i) {
      if (ts[i].done < ops_per_thread || ts[i].phase != 0) a.push_back(i);
    }
    return a;
  };
  for (auto a = active(); !a.empty(); a = active()) {
    const std::size_t i = a[rng() % a.size()];
    ThreadState& t = ts[i];
    const auto tid = static_cast<ThreadId>(i + 1);
    switch (t.phase) {
      case 0: {
        t.inserting = rng() % 2 == 0;
        if (t.inserting) {
          const std::int64_t v = duplicates && rng() % 3 == 0
                                     ? static_cast<std::int64_t>(rng() % 3)
                                     : next_value++;
          t.arg = Value::integer(v);
          h.invoke(tid, kP, kInsert, t.arg);
        } else {
          t.arg = Value::unit();
          h.invoke(tid, kP, kDeleteMin);
        }
        t.phase = 1;
        break;
      }
      case 1:
        if (t.inserting) {
          pool.insert(std::upper_bound(pool.begin(), pool.end(),
                                       t.arg.as_int()),
                      t.arg.as_int());
          t.ret = Value::boolean(true);
        } else if (pool.empty()) {
          t.ret = Value::pair(false, 0);
        } else {
          t.ret = Value::pair(true, pool.front());
          pool.erase(pool.begin());
        }
        t.phase = 2;
        break;
      default:
        h.respond(tid, kP, t.inserting ? kInsert : kDeleteMin, t.ret);
        t.phase = 0;
        ++t.done;
        break;
    }
  }
  return h;
}

/// Rewrites one successful deleteMin response to return a never-inserted
/// value — guaranteed non-linearizable. Returns h unchanged if there is no
/// successful removal.
History corrupt_removed_value(const History& h) {
  std::vector<Action> actions = h.actions();
  for (Action& a : actions) {
    if (a.is_respond() && a.method == kDeleteMin &&
        a.payload.kind() == Value::Kind::kPair && a.payload.pair_ok()) {
      a.payload = Value::pair(true, 999999);
      break;
    }
  }
  return History(std::move(actions));
}

/// Swaps the values of the first two successful removals (may or may not
/// stay linearizable — only the verdict agreement matters).
History swap_removed_values(const History& h) {
  std::vector<Action> actions = h.actions();
  Action* first = nullptr;
  for (Action& a : actions) {
    if (!a.is_respond() || a.method != kDeleteMin ||
        a.payload.kind() != Value::Kind::kPair || !a.payload.pair_ok()) {
      continue;
    }
    if (first == nullptr) {
      first = &a;
    } else {
      std::swap(first->payload, a.payload);
      break;
    }
  }
  return History(std::move(actions));
}

/// Drops the last response, leaving that operation pending (a pending
/// deleteMin makes the order checker decline to the engine).
History drop_last_response(const History& h) {
  std::vector<Action> actions = h.actions();
  for (auto it = actions.rbegin(); it != actions.rend(); ++it) {
    if (it->is_respond()) {
      actions.erase(std::next(it).base());
      break;
    }
  }
  return History(std::move(actions));
}

TEST(PqDifferential, OrderAndEngineAgreeOnGeneratedCorpus) {
  std::mt19937 rng(20260809);
  PriorityQueueCaSpec spec(kP);
  PriorityQueueSpec seq(kP);
  LinCheckOptions lin_engine;
  lin_engine.order_check = false;
  std::size_t accepts = 0;
  std::size_t rejects = 0;
  std::size_t order_decided = 0;
  std::size_t engine_fallbacks = 0;
  for (int iter = 0; iter < 16; ++iter) {
    const bool duplicates = iter % 4 == 0;
    const History base = random_pq_history(rng, 3, 3, duplicates);
    ASSERT_TRUE(base.complete()) << base.to_string();
    const History variants[] = {base, corrupt_removed_value(base),
                                swap_removed_values(base),
                                drop_last_response(base)};
    for (const History& h : variants) {
      // Reference verdict: sequential engine with exact dedup.
      CalCheckOptions ref;
      ref.order_check = false;
      ref.exact_visited = true;
      const bool want = CalChecker(spec, ref).check(h).ok;
      (want ? accepts : rejects) += 1;
      // The lin leg: LinChecker reaches the same order path through
      // PriorityQueueSpec::order_check.
      EXPECT_EQ(LinChecker(seq, lin_engine).check(h).ok, want)
          << "lin engine\n" << h.to_string();
      const LinCheckResult lin = LinChecker(seq).check(h);
      EXPECT_EQ(lin.ok, want) << "lin order-dispatch\n" << h.to_string();
      if (!duplicates && h.complete()) {
        EXPECT_TRUE(lin.order_checked) << h.to_string();
      }
      for (bool exact : {false, true}) {
        CalCheckOptions engine_opts;
        engine_opts.order_check = false;
        engine_opts.exact_visited = exact;
        EXPECT_EQ(CalChecker(spec, engine_opts).check(h).ok, want)
            << "engine exact=" << exact << "\n"
            << h.to_string();

        CalCheckOptions order_opts;
        order_opts.exact_visited = exact;
        CalCheckResult r = CalChecker(spec, order_opts).check(h);
        EXPECT_EQ(r.ok, want)
            << "order-dispatch exact=" << exact << "\n" << h.to_string();
        (r.order_checked ? order_decided : engine_fallbacks) += 1;
        if (!duplicates && h.complete()) {
          EXPECT_TRUE(r.order_checked)
              << "distinct complete instance left the fragment\n"
              << h.to_string();
        }
      }
    }
  }
  // The corpus must exercise every quadrant.
  EXPECT_GT(accepts, 0u);
  EXPECT_GT(rejects, 0u);
  EXPECT_GT(order_decided, 0u);
  EXPECT_GT(engine_fallbacks, 0u);
}

TEST(PqDifferential, FingerprintAndExactVerdictsMatchOnWideHistory) {
  // One deliberately wide instance (every insert overlaps every removal)
  // on the engine path: the two dedup modes agree, and the order path
  // decides the same instance without any search.
  std::mt19937 rng(7);
  PriorityQueueCaSpec spec(kP);
  const History h = random_pq_history(rng, 4, 2, /*duplicates=*/false);
  CalCheckOptions ref;
  ref.order_check = false;
  ref.exact_visited = true;
  const CalCheckResult want = CalChecker(spec, ref).check(h);
  CalCheckResult order = CalChecker(spec).check(h);
  EXPECT_TRUE(order.order_checked);
  EXPECT_EQ(order.ok, want.ok);
  CalCheckOptions fingerprint;
  fingerprint.order_check = false;
  EXPECT_EQ(CalChecker(spec, fingerprint).check(h).ok, want.ok);
}

}  // namespace
}  // namespace cal
