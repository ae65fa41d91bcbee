// Michael–Scott queue (classically linearizable control object) and the
// synchronous dual queue (the paper's second CA-client).
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/interval_lin.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "objects/ms_queue.hpp"
#include "objects/rendezvous.hpp"
#include "objects/sync_queue.hpp"
#include "runtime/recorder.hpp"

namespace cal::objects {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

TEST(MsQueue, SequentialFifo) {
  runtime::EpochDomain ebr;
  MsQueue q(ebr, Symbol{"Q"});
  q.enq(0, 1);
  q.enq(0, 2);
  q.enq(0, 3);
  EXPECT_EQ(q.deq(0), (PopResult{true, 1}));
  EXPECT_EQ(q.deq(0), (PopResult{true, 2}));
  EXPECT_EQ(q.deq(0), (PopResult{true, 3}));
  EXPECT_EQ(q.deq(0), (PopResult{false, 0}));
}

TEST(MsQueue, ConcurrentConservation) {
  runtime::EpochDomain ebr;
  MsQueue q(ebr, Symbol{"Q"});
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::vector<std::int64_t>> got(kThreads);
  {
    std::vector<std::jthread> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&, i] {
        const auto tid = static_cast<runtime::ThreadId>(i);
        for (int k = 0; k < kOps; ++k) {
          q.enq(tid, i * 10000 + k);
          PopResult r = q.deq(tid);
          if (r.ok) got[i].push_back(r.value);
        }
      });
    }
  }
  std::size_t taken = 0;
  std::vector<std::int64_t> all;
  for (auto& v : got) {
    taken += v.size();
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
  // Drain the rest: enq count == deq-success count overall.
  std::size_t drained = 0;
  while (q.deq(0).ok) ++drained;
  EXPECT_EQ(taken + drained, static_cast<std::size_t>(kThreads * kOps));
}

TEST(MsQueue, RecordedHistoryIsLinearizableBothWays) {
  // The control experiment of §3: an ordinary object's histories pass both
  // the classical checker and the CAL checker via the singleton adapter.
  runtime::EpochDomain ebr;
  MsQueue q(ebr, Symbol{"Q"});
  runtime::Recorder rec(1 << 12);
  const Symbol qs{"Q"};
  const Symbol enq{"enq"};
  const Symbol deq{"deq"};
  constexpr int kThreads = 3;
  constexpr int kOps = 4;
  {
    std::vector<std::jthread> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&, i] {
        const auto tid = static_cast<runtime::ThreadId>(i);
        for (int k = 0; k < kOps; ++k) {
          rec.invoke(tid, qs, enq, iv(i * 100 + k));
          q.enq(tid, i * 100 + k);
          rec.respond(tid, qs, enq, Value::boolean(true));
          rec.invoke(tid, qs, deq);
          PopResult r = q.deq(tid);
          rec.respond(tid, qs, deq, Value::pair(r.ok, r.value));
        }
      });
    }
  }
  History h = rec.snapshot();
  QueueSpec spec(qs);
  LinChecker lin(spec);
  EXPECT_TRUE(lin.check(h)) << h.to_string();
  auto shared = std::make_shared<QueueSpec>(qs);
  SeqAsCaSpec ca(shared);
  CalChecker cal(ca);
  EXPECT_TRUE(cal.check(h)) << h.to_string();
}

TEST(SyncQueue, UnpairedOpsTimeOut) {
  runtime::EpochDomain ebr;
  SyncQueue q(ebr, Symbol{"SQ"});
  EXPECT_FALSE(q.put(0, 1, /*spins=*/4));
  EXPECT_FALSE(q.take(0, 4).ok);
}

TEST(SyncQueue, PairingHandsOffValue) {
  runtime::EpochDomain ebr;
  SyncQueue q(ebr, Symbol{"SQ"});
  bool put_ok = false;
  PopResult take_r;
  bool paired = false;
  for (int attempt = 0; attempt < 200 && !paired; ++attempt) {
    std::jthread a([&] { put_ok = q.put(0, 42, 1 << 14); });
    std::jthread b([&] { take_r = q.take(1, 1 << 14); });
    a.join();
    b.join();
    paired = put_ok && take_r.ok;
    EXPECT_EQ(put_ok, take_r.ok) << "half a hand-off happened";
  }
  ASSERT_TRUE(paired);
  EXPECT_EQ(take_r.value, 42);
}

TEST(SyncQueue, DestroyedWithACancelledReservationStillLinked) {
  // Two puts start together with equal budgets and no taker. The second
  // reservation lands on top of the first, so the first one's cancel
  // fails to unlink it; the second then cancels and unlinks itself, which
  // leaves the first, cancelled, linked at the top. That node must be
  // freed exactly once: retiring it to the epoch domain while it is still
  // linked and also freeing it in ~SyncQueue is a double free (an ASan
  // abort, or a heap-corruption abort without it).
  for (int round = 0; round < 20; ++round) {
    runtime::EpochDomain ebr;
    SyncQueue q(ebr, Symbol{"SQ"});
    bool first = true;
    bool second = true;
    {
      std::latch start(2);
      std::jthread a([&] {
        start.arrive_and_wait();
        first = q.put(0, 1, 1 << 14);
      });
      std::jthread b([&] {
        start.arrive_and_wait();
        second = q.put(1, 2, 1 << 14);
      });
    }
    EXPECT_FALSE(first);
    EXPECT_FALSE(second);
  }
}

TEST(SyncQueue, ConservationUnderContention) {
  runtime::EpochDomain ebr;
  SyncQueue q(ebr, Symbol{"SQ"});
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  std::atomic<std::uint64_t> puts_ok{0};
  std::vector<std::vector<std::int64_t>> taken(kThreads);
  {
    std::vector<std::jthread> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&, i] {
        const auto tid = static_cast<runtime::ThreadId>(i);
        for (int k = 0; k < kOps; ++k) {
          if (i % 2 == 0) {
            if (q.put(tid, i * 10000 + k, 512)) puts_ok.fetch_add(1);
          } else {
            PopResult r = q.take(tid, 512);
            if (r.ok) taken[i].push_back(r.value);
          }
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : taken) all.insert(all.end(), v.begin(), v.end());
  EXPECT_EQ(all.size(), puts_ok.load()) << "puts and takes must pair 1:1";
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
}

TEST(SyncQueue, RecordedHistoryIsCaLinearizable) {
  runtime::EpochDomain ebr;
  SyncQueue q(ebr, Symbol{"SQ"});
  runtime::Recorder rec(1 << 12);
  const Symbol qs{"SQ"};
  const Symbol put{"put"};
  const Symbol take{"take"};
  constexpr int kThreads = 4;
  constexpr int kOps = 4;
  {
    std::vector<std::jthread> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&, i] {
        const auto tid = static_cast<runtime::ThreadId>(i);
        for (int k = 0; k < kOps; ++k) {
          if (i % 2 == 0) {
            rec.invoke(tid, qs, put, iv(i * 100 + k));
            const bool ok = q.put(tid, i * 100 + k, 512);
            rec.respond(tid, qs, put, Value::boolean(ok));
          } else {
            rec.invoke(tid, qs, take);
            PopResult r = q.take(tid, 512);
            rec.respond(tid, qs, take, Value::pair(r.ok, r.value));
          }
        }
      });
    }
  }
  History h = rec.snapshot();
  ASSERT_TRUE(h.complete());
  SyncQueueSpec spec(qs);
  CalChecker checker(spec);
  EXPECT_TRUE(checker.check(h)) << h.to_string();
  // And via the dual-data-structure interval spec (§6): same verdict.
  SyncQueueIntervalSpec ispec(qs);
  IntervalLinChecker ichecker(ispec);
  EXPECT_TRUE(ichecker.check(h)) << h.to_string();
}

TEST(Rendezvous, MeetSwapsValues) {
  runtime::EpochDomain ebr;
  Rendezvous r(ebr, Symbol{"RV"}, 1);
  ExchangeResult a, b;
  bool met = false;
  for (int attempt = 0; attempt < 200 && !met; ++attempt) {
    std::jthread t1([&] { a = r.meet(0, 10, 1 << 14); });
    std::jthread t2([&] { b = r.meet(1, 20, 1 << 14); });
    t1.join();
    t2.join();
    met = a.ok && b.ok;
  }
  ASSERT_TRUE(met);
  EXPECT_EQ(a.value, 20);
  EXPECT_EQ(b.value, 10);
}

TEST(Rendezvous, SingleSlotLogsUnderItsOwnName) {
  runtime::EpochDomain ebr;
  runtime::TraceLog trace(64);
  Rendezvous r(ebr, Symbol{"RV"}, 1, &trace);
  r.meet(0, 7, 2);  // fails; logs a singleton failure on RV
  CaTrace t = trace.snapshot();
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].object().str(), "RV");
  EXPECT_EQ(t[0].ops().front().method.str(), "rendezvous");
}

}  // namespace
}  // namespace cal::objects
