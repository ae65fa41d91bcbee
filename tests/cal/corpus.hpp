// Shared history corpus for the equivalence suites: generated stress
// families (schedule-randomized exchanger runs, corruptions, adversarial
// sequential-spec histories, wide overlap blowups) plus the checked-in
// example histories, and the stateless pairing specs' random runs and
// edits. test_state_compression, test_engine_equivalence,
// test_collection_order and test_incremental all draw from these
// generators so "equivalent on the corpus" means the same corpus
// everywhere.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cal/agree.hpp"
#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/replay.hpp"
#include "cal/spec.hpp"
#include "cal/text.hpp"
#include "cal/value.hpp"

namespace cal {

/// A well-formed exchanger run with a randomized schedule: threads invoke,
/// pair up (or time out), and respond in random interleavings, so the
/// result is a *valid* history with rich overlap structure.
inline History random_exchanger_history(std::mt19937& rng,
                                        std::size_t n_threads,
                                        std::size_t ops_per_thread) {
  const Symbol kE{"E"};
  const Symbol kEx{"exchange"};
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
        h.invoke(static_cast<ThreadId>(t + 1), kE, kEx, Value::integer(v));
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

/// Corrupts the first successful exchange response; nullopt when the run
/// had none.
inline std::optional<History> corrupt(const History& h) {
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

/// Sequential stack ops with random (mostly wrong) return values — the
/// adversarial family for SeqAsCaSpec checkers.
inline History garbage_stack_history(std::mt19937& rng, std::size_t n_ops) {
  auto rnd = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  HistoryBuilder b;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const ThreadId tid = static_cast<ThreadId>(rnd(3) + 1);
    if (rnd(2) == 0) {
      b.op(tid, "S", "push", Value::integer(static_cast<std::int64_t>(
                                 rnd(3) + 1)),
           Value::boolean(true));
    } else {
      b.op(tid, "S", "pop", Value::unit(),
           Value::pair(true, static_cast<std::int64_t>(rnd(3) + 1)));
    }
  }
  return b.history();
}

/// `width` fully overlapping exchanges, all timing out — the subset
/// enumeration blowup (optionally with one corrupted response).
inline History wide_overlap_history(std::size_t width, bool corrupt_one) {
  HistoryBuilder b;
  for (std::size_t t = 1; t <= width; ++t) {
    b.call(static_cast<ThreadId>(t), "E", "exchange",
           Value::integer(static_cast<std::int64_t>(t)));
  }
  for (std::size_t t = 1; t <= width; ++t) {
    const auto v = static_cast<std::int64_t>(t);
    b.ret(static_cast<ThreadId>(t),
          corrupt_one && t == width ? Value::pair(true, 424242)
                                    : Value::pair(false, v));
  }
  return b.history();
}

/// Drops up to `n` responses that end their thread's last operation,
/// latest first, leaving those operations pending.
inline History drop_responses(const History& h, std::size_t n) {
  std::vector<Action> a = h.actions();
  std::vector<ThreadId> seen;  // threads with a later action
  for (std::size_t i = a.size(); i-- > 0 && n > 0;) {
    const ThreadId t = a[i].tid;
    if (std::find(seen.begin(), seen.end(), t) != seen.end()) continue;
    seen.push_back(t);
    if (a[i].is_respond()) {
      a.erase(a.begin() + static_cast<std::ptrdiff_t>(i));
      --n;
    }
  }
  return History(std::move(a));
}

/// One stateless pairing spec under test (exchanger, rendezvous, sync
/// queue), with what pairing_run needs.
struct PairingCase {
  const char* name;
  bool sync_queue;  ///< put/take on Y; otherwise exchanges on E
  Symbol method;    ///< the exchange method (unused by the sync queue)
  unsigned seed;
};

/// Names the case in test listings (the default prints its raw bytes).
inline void PrintTo(const PairingCase& pc, std::ostream* os) {
  *os << pc.name;
}

/// A member-by-construction run with real overlap: each thread's next
/// operation moves through invoke → resolve → respond, and the scheduler
/// interleaves those micro-steps at random. Resolving pairs the thread with
/// another invoked, unresolved thread of the mirrored kind (both succeed
/// with each other's values) or resolves it alone as a failure or timeout.
/// Values come from a pool of `values` distinct ones, so matches are
/// ambiguous. Exchanges run on object E, hand-offs on Y.
inline History pairing_run(std::mt19937& rng, const PairingCase& pc,
                           std::size_t threads, std::size_t ops_per_thread,
                           std::int64_t values) {
  struct ThreadState {
    std::size_t done = 0;
    int phase = 0;  // 0 idle, 1 invoked, 2 resolved
    bool put = false;
    std::int64_t value = 0;
    Value ret;
  };
  const Symbol kE{"E"};
  const Symbol kY{"Y"};
  const Symbol put{"put"};
  const Symbol take{"take"};
  History h;
  std::vector<ThreadState> ts(threads);
  std::vector<std::size_t> runnable;
  std::vector<std::size_t> partners;
  for (;;) {
    runnable.clear();
    for (std::size_t i = 0; i < threads; ++i) {
      if (ts[i].done < ops_per_thread || ts[i].phase != 0) {
        runnable.push_back(i);
      }
    }
    if (runnable.empty()) break;
    const std::size_t me = runnable[rng() % runnable.size()];
    ThreadState& t = ts[me];
    const auto tid = static_cast<ThreadId>(me + 1);
    const Symbol method = pc.sync_queue ? (t.put ? put : take) : pc.method;
    if (t.phase == 0) {
      t.put = rng() % 2 == 0;
      t.value = 1 + static_cast<std::int64_t>(rng() % values);
      if (!pc.sync_queue) {
        h.invoke(tid, kE, pc.method, Value::integer(t.value));
      } else if (t.put) {
        h.invoke(tid, kY, put, Value::integer(t.value));
      } else {
        h.invoke(tid, kY, take);
      }
      t.phase = 1;
    } else if (t.phase == 1) {
      partners.clear();
      for (std::size_t u = 0; u < threads; ++u) {
        if (u != me && ts[u].phase == 1 &&
            (!pc.sync_queue || ts[u].put != t.put)) {
          partners.push_back(u);
        }
      }
      if (!partners.empty() && rng() % 10 < 7) {
        ThreadState& u = ts[partners[rng() % partners.size()]];
        if (!pc.sync_queue) {
          t.ret = Value::pair(true, u.value);
          u.ret = Value::pair(true, t.value);
        } else {
          ThreadState& p = t.put ? t : u;
          ThreadState& q = t.put ? u : t;
          p.ret = Value::boolean(true);
          q.ret = Value::pair(true, p.value);
        }
        u.phase = 2;
      } else if (!pc.sync_queue) {
        t.ret = Value::pair(false, t.value);
      } else {
        t.ret = t.put ? Value::boolean(false) : Value::pair(false, 0);
      }
      t.phase = 2;
    } else {
      h.respond(tid, pc.sync_queue ? kY : kE, method, t.ret);
      t.phase = 0;
      ++t.done;
    }
  }
  return h;
}

/// A return a response of `method` could plausibly carry: right or wrong
/// kind of success or failure, with a value from the pool or outside it.
inline Value random_return(std::mt19937& rng, Symbol method) {
  const auto v = static_cast<std::int64_t>(rng() % 6);
  if (method == Symbol{"put"}) return Value::boolean(rng() % 2 == 0);
  return Value::pair(rng() % 2 == 0, v);
}

/// One random edit: rewrite a return, swap the returns of two responses of
/// one method, or move a response (narrowing or widening an interval; the
/// caller drops the result if it is no longer well-formed).
inline History mutate_pairing(std::mt19937& rng, const History& h) {
  std::vector<Action> a = h.actions();
  std::vector<std::size_t> resp;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_respond()) resp.push_back(i);
  }
  if (resp.empty()) return h;
  const std::size_t x = resp[rng() % resp.size()];
  switch (rng() % 3) {
    case 0:
      a[x].payload = random_return(rng, a[x].method);
      break;
    case 1: {
      const std::size_t y = resp[rng() % resp.size()];
      if (a[x].method == a[y].method) std::swap(a[x].payload, a[y].payload);
      break;
    }
    default: {
      Action moved = a[x];
      a.erase(a.begin() + static_cast<std::ptrdiff_t>(x));
      const std::size_t to = rng() % (a.size() + 1);
      a.insert(a.begin() + static_cast<std::ptrdiff_t>(to), std::move(moved));
      break;
    }
  }
  return History(std::move(a));
}

/// The completion of `h` the witness chose (Def. 2). A thread's pending
/// operation is its last, so it fired iff the witness holds more of the
/// thread's operations than the thread completed; it then responds at the
/// end with the witness's return, and otherwise its invocation is dropped.
inline History completion(const History& h, const std::vector<Operation>& witness) {
  const std::vector<OpRecord> ops = h.operations();
  std::vector<bool> keep(h.size(), true);
  std::vector<Action> fired;
  for (const OpRecord& r : ops) {
    if (!r.is_pending()) continue;
    const ThreadId t = r.op.tid;
    std::size_t completed = 0;
    for (const OpRecord& q : ops) completed += q.op.tid == t && !q.is_pending();
    std::size_t in_witness = 0;
    const Operation* last = nullptr;
    for (const Operation& op : witness) {
      if (op.tid != t) continue;
      ++in_witness;
      last = &op;
    }
    if (in_witness > completed) {
      fired.push_back(Action::respond(t, r.op.object, r.op.method, *last->ret));
    } else {
      keep[r.inv_index] = false;
    }
  }
  std::vector<Action> out;
  for (std::size_t k = 0; k < h.size(); ++k) {
    if (keep[k]) out.push_back(h[k]);
  }
  out.insert(out.end(), fired.begin(), fired.end());
  return History(std::move(out));
}

/// A witness must be in the trace-set and agree with the history's
/// completion. Returns the reason when it is not.
inline std::string witness_fault(const History& h, const CaTrace& w,
                          const CaSpec& spec) {
  const ReplayResult replay = replay_ca(w, spec);
  if (!replay.ok) return "does not replay: " + replay.reason;
  const AgreeResult agree = agrees_with(completion(h, w.all_ops()), w);
  if (!agree.agrees) return "does not agree: " + agree.reason;
  return {};
}

#ifdef CAL_EXAMPLES_HISTORIES_DIR
inline History load_history(const std::string& name) {
  const std::string path =
      std::string(CAL_EXAMPLES_HISTORIES_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  ParseResult<History> parsed = parse_history(buf.str());
  EXPECT_TRUE(parsed) << "parse error in " << path;
  return *parsed.value;
}
#endif

}  // namespace cal
