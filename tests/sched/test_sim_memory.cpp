// The memory-model layer (sched/sim_memory.hpp) and its integration with
// the explorer:
//
//   * SimMemory TSO semantics in isolation: store-to-load forwarding from
//     the thread's own FIFO buffer, cross-thread invisibility before a
//     flush, FIFO drain order, seq_cst stores and CAS draining, and
//     buffered writes being part of the hashed state.
//
//   * SC-equivalence guard: the annotated bodies in objects/core/ use no
//     store weaker than seq_cst, so under TSO their buffers stay
//     permanently empty and the exploration must be *identical* to SC —
//     exact terminal-history sets in enumeration mode, matching verdicts /
//     events / terminal counts across the {1,2,8}-thread × {por,symmetry}
//     grid, and zero flush steps throughout.
//
//   * The ordering-sensitive mutant: the classic store-buffering litmus
//     (each thread sets its own flag with a *relaxed* store, then reads
//     the partner's). SC accepts it; TSO finds the both-read-zero
//     outcome, rejects it, and the violating schedule replays. Annotating
//     the store seq_cst repairs it under TSO — the distinction the whole
//     layer exists to check.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cal/specs/exchanger_spec.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_env.hpp"
#include "sched/sim_memory.hpp"
#include "sched/sim_objects.hpp"

namespace cal::sched {
namespace {

using objects::MemOrder;

Value iv(std::int64_t x) { return Value::integer(x); }

// ------------------------------------------------------------------ //
// SimMemory: TSO buffer semantics in isolation.

SimMemory tso_memory(std::size_t threads = 2) {
  return SimMemory(threads, /*heap_cells=*/8, /*global_cells=*/8,
                   MemoryModel::kTso);
}

TEST(SimMemoryTso, ScStoresIgnoreTheOrderAnnotation) {
  SimMemory m(2, 8, 8, MemoryModel::kSc);
  const Addr a = m.alloc_global(1);
  EXPECT_FALSE(m.store(0, a, 7, MemOrder::kRelaxed));
  EXPECT_EQ(m.read(a), 7);
  EXPECT_EQ(m.buffered_total(), 0u);
}

TEST(SimMemoryTso, BufferedStoreIsInvisibleToOtherThreads) {
  SimMemory m = tso_memory();
  const Addr a = m.alloc_global(1);
  EXPECT_TRUE(m.store(0, a, 7, MemOrder::kRelease));
  // The writer forwards from its own buffer; everyone else sees memory.
  EXPECT_EQ(m.load(0, a, MemOrder::kAcquire), 7);
  EXPECT_EQ(m.load(1, a, MemOrder::kSeqCst), 0);
  EXPECT_EQ(m.read(a), 0);  // model-oblivious observers see flushed memory
  EXPECT_EQ(m.buffer_size(0), 1u);
  EXPECT_EQ(m.buffered_total(), 1u);
  m.flush_one(0);
  EXPECT_EQ(m.load(1, a, MemOrder::kAcquire), 7);
  EXPECT_EQ(m.buffered_total(), 0u);
}

TEST(SimMemoryTso, ForwardingReturnsTheNewestOwnEntry) {
  SimMemory m = tso_memory();
  const Addr a = m.alloc_global(1);
  EXPECT_TRUE(m.store(0, a, 1, MemOrder::kRelaxed));
  EXPECT_TRUE(m.store(0, a, 2, MemOrder::kRelaxed));
  EXPECT_EQ(m.load(0, a, MemOrder::kAcquire), 2);  // newest wins
  // Flushes apply oldest-first: memory passes through 1 before 2.
  EXPECT_EQ(m.flush_addr(0), a);
  m.flush_one(0);
  EXPECT_EQ(m.read(a), 1);
  m.flush_one(0);
  EXPECT_EQ(m.read(a), 2);
}

TEST(SimMemoryTso, FlushAndDrainAreFifoAcrossAddresses) {
  SimMemory m = tso_memory();
  const Addr a = m.alloc_global(1);
  const Addr b = m.alloc_global(1);
  EXPECT_TRUE(m.store(0, a, 10, MemOrder::kRelaxed));
  EXPECT_TRUE(m.store(0, b, 20, MemOrder::kRelaxed));
  EXPECT_EQ(m.flush_addr(0), a);
  m.flush_one(0);
  EXPECT_EQ(m.read(a), 10);
  EXPECT_EQ(m.read(b), 0);
  m.drain(0);
  EXPECT_EQ(m.read(b), 20);
  EXPECT_EQ(m.buffered_total(), 0u);
}

TEST(SimMemoryTso, SeqCstStoreDrainsTheIssuersBuffer) {
  SimMemory m = tso_memory();
  const Addr a = m.alloc_global(1);
  const Addr b = m.alloc_global(1);
  EXPECT_TRUE(m.store(0, a, 1, MemOrder::kRelaxed));
  EXPECT_FALSE(m.store(0, b, 2, MemOrder::kSeqCst));
  EXPECT_EQ(m.buffer_size(0), 0u);
  EXPECT_EQ(m.read(a), 1);
  EXPECT_EQ(m.read(b), 2);
}

TEST(SimMemoryTso, CasDrainsTheIssuersBufferFirst) {
  SimMemory m = tso_memory();
  const Addr a = m.alloc_global(1);
  EXPECT_TRUE(m.store(0, a, 5, MemOrder::kRelaxed));
  // Even a relaxed CAS flushes first (locked RMWs drain on x86-TSO), so
  // it observes the thread's own buffered value in memory.
  EXPECT_TRUE(m.cas(0, a, 5, 6, MemOrder::kRelaxed));
  EXPECT_EQ(m.buffer_size(0), 0u);
  EXPECT_EQ(m.read(a), 6);
}

TEST(SimMemoryTso, AnotherThreadsBufferDoesNotDrain) {
  SimMemory m = tso_memory();
  const Addr a = m.alloc_global(1);
  EXPECT_TRUE(m.store(0, a, 5, MemOrder::kRelaxed));
  // Thread 1's CAS sees memory (0), not thread 0's pending write.
  EXPECT_FALSE(m.cas(1, a, 5, 6, MemOrder::kSeqCst));
  EXPECT_EQ(m.buffer_size(0), 1u);
}

TEST(SimMemoryTso, BufferedWritesAreStateAndHashedState) {
  SimMemory a = tso_memory();
  SimMemory b = tso_memory();
  const Addr cell = a.alloc_global(1);
  (void)b.alloc_global(1);
  EXPECT_EQ(a, b);
  ASSERT_TRUE(a.store(0, cell, 9, MemOrder::kRelaxed));
  // Same flushed memory, different pending writes: different states.
  EXPECT_NE(a, b);
  std::vector<std::int64_t> ea;
  std::vector<std::int64_t> eb;
  a.encode(ea);
  b.encode(eb);
  EXPECT_NE(ea, eb);
  a.flush_one(0);
  b.write(cell, 9);
  EXPECT_EQ(a, b);  // converged after the flush
}

// ------------------------------------------------------------------ //
// SC-equivalence guard over the annotated corpus bodies.

std::string serialize(const History& h) {
  std::string out;
  for (const Action& a : h.actions()) {
    out += a.to_string();
    out += '\n';
  }
  return out;
}

std::vector<std::string> history_set(const ExploreResult& r) {
  std::vector<std::string> out;
  out.reserve(r.histories.size());
  for (const History& h : r.histories) out.push_back(serialize(h));
  std::sort(out.begin(), out.end());
  return out;
}

WorldConfig exchanger_config(const CaSpec* spec, std::size_t threads) {
  WorldConfig cfg;
  for (std::size_t i = 0; i < threads; ++i) {
    ThreadProgram p;
    p.tid = static_cast<ThreadId>(i);
    p.calls = {Call{0, Symbol{"exchange"},
                    iv(static_cast<std::int64_t>(10 * (i + 1)))}};
    cfg.programs.push_back(std::move(p));
  }
  cfg.object_names = {Symbol{"E"}};
  cfg.spec = spec;
  cfg.record_trace = true;
  cfg.heap_cells = 16;
  cfg.global_cells = 8;
  return cfg;
}

std::vector<std::unique_ptr<SimObject>> one_exchanger() {
  std::vector<std::unique_ptr<SimObject>> objects;
  objects.push_back(std::make_unique<SimExchanger>(Symbol{"E"}));
  return objects;
}

// The exchanger body's weakest store is seq_cst (it has none; all its
// publications are CASes), so TSO buffers never fill and the exact
// terminal-history set must match SC.
TEST(TsoEquivalence, ExchangerHistorySetExactUnderTso) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig cfg = exchanger_config(&spec, 3);
  cfg.record_history = true;

  ExploreOptions enumerate;
  enumerate.merge_states = false;
  enumerate.collect_terminals = true;
  enumerate.check_spec = &spec;

  ExploreResult sc;
  {
    Explorer ex(cfg, one_exchanger(), enumerate);
    sc = ex.run();
  }
  ExploreOptions tso = enumerate;
  tso.memory_model = MemoryModel::kTso;
  Explorer ex(cfg, one_exchanger(), tso);
  ExploreResult r = ex.run();

  EXPECT_TRUE(sc.ok());
  EXPECT_EQ(sc.ok(), r.ok());
  EXPECT_EQ(sc.events, r.events);
  EXPECT_EQ(history_set(sc), history_set(r));
  // The guard that makes the equivalence trivial: nothing ever buffered.
  EXPECT_EQ(r.flush_steps, 0u);
  EXPECT_EQ(r.buffered_max, 0u);
}

// Merged mode across the driver/reduction grid: an all-seq_cst-store body
// explores the same verdicts, events, and terminal counts under TSO.
TEST(TsoEquivalence, VerdictsMatchScAcrossThreadsAndReductions) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig cfg = exchanger_config(&spec, 3);

  ExploreResult sc;
  {
    Explorer ex(cfg, one_exchanger());
    sc = ex.run();
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (bool por : {false, true}) {
      for (bool symmetry : {false, true}) {
        ExploreOptions opts;
        opts.threads = threads;
        opts.por = por;
        opts.symmetry = symmetry;
        opts.memory_model = MemoryModel::kTso;
        Explorer ex(cfg, one_exchanger(), opts);
        ExploreResult r = ex.run();
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " por=" + std::to_string(por) +
                     " symmetry=" + std::to_string(symmetry));
        EXPECT_EQ(sc.ok(), r.ok());
        EXPECT_EQ(sc.events, r.events);
        EXPECT_EQ(sc.terminals, r.terminals);
        EXPECT_EQ(r.flush_steps, 0u);
        EXPECT_EQ(r.buffered_max, 0u);
      }
    }
  }
}

// Both selection surfaces reach the same machine: a TSO WorldConfig with
// default options explores identically to SC options + kTso override.
TEST(TsoEquivalence, ConfigLevelSelectionMatchesOptionsLevel) {
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  WorldConfig via_cfg = exchanger_config(&spec, 2);
  via_cfg.memory_model = MemoryModel::kTso;
  ExploreResult a;
  {
    Explorer ex(via_cfg, one_exchanger());
    a = ex.run();
  }
  WorldConfig plain = exchanger_config(&spec, 2);
  ExploreOptions opts;
  opts.memory_model = MemoryModel::kTso;
  Explorer ex(plain, one_exchanger(), opts);
  ExploreResult b = ex.run();

  EXPECT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.terminals, b.terminals);
}

// ------------------------------------------------------------------ //
// The ordering-sensitive mutant: the store-buffering litmus.

// sb(i) on a two-flag object: set flag[i], read flag[1-i], return it.
// The store's order is the mutation point — kRelaxed buffers under TSO,
// kSeqCst drains.
class SimStoreBuffering final : public EnvSimObject {
 public:
  SimStoreBuffering(Symbol name, MemOrder store_order)
      : EnvSimObject(0), name_(name), order_(store_order) {}

  void init(World& world) override { flags_ = world.alloc_global(2); }

 protected:
  [[nodiscard]] Attempt attempt(SimEnv& env, World& world,
                                ThreadCtx& t) const override {
    static const Symbol kSb{"sb"};
    const Call& call = current_call(world, t);
    const Word me = call.arg.as_int();
    env.store(flags_, me, 1, order_);
    const Word other = env.load(flags_, 1 - me, MemOrder::kAcquire);
    env.emit([&] {
      return CaElement::singleton(
          name_, Operation::make(t.tid, name_, kSb, Value::integer(me),
                                 Value::integer(other)));
    });
    return {Status::kDone, Value::integer(other)};
  }

 private:
  Symbol name_;
  MemOrder order_;
  Word flags_ = objects::kNullRef;
};

// Sequential spec of sb: setting your flag is the linearization point; you
// read 1 if the partner already linearized, and may read either value if
// not (its store may be concurrently visible). Both-read-zero has no
// linearization: whoever goes second must return 1.
class SbSpec final : public SequentialSpec {
 public:
  explicit SbSpec(Symbol object) : object_(object) {}

  [[nodiscard]] SpecState initial() const override { return {0, 0}; }
  [[nodiscard]] std::vector<SeqStepResult> step(
      const SpecState& state, ThreadId /*tid*/, Symbol object, Symbol method,
      const Value& arg, const std::optional<Value>& ret) const override {
    static const Symbol kSb{"sb"};
    if (object != object_ || method != kSb) return {};
    const auto me = static_cast<std::size_t>(arg.as_int());
    if (me > 1) return {};
    SpecState next = state;
    next[me] = 1;
    std::vector<SeqStepResult> out;
    auto emit = [&](std::int64_t r) {
      Value v = Value::integer(r);
      if (!ret || *ret == v) out.push_back(SeqStepResult{next, std::move(v)});
    };
    emit(1);
    if (state[1 - me] == 0) emit(0);
    return out;
  }

 private:
  Symbol object_;
};

WorldConfig sb_config(const CaSpec* spec) {
  WorldConfig cfg;
  cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"sb"}, iv(0)}}},
                  ThreadProgram{1, {Call{0, Symbol{"sb"}, iv(1)}}}};
  cfg.object_names = {Symbol{"L"}};
  cfg.spec = spec;
  cfg.record_trace = true;
  cfg.heap_cells = 4;
  cfg.global_cells = 4;
  return cfg;
}

std::vector<std::unique_ptr<SimObject>> sb_object(MemOrder store_order) {
  std::vector<std::unique_ptr<SimObject>> objects;
  objects.push_back(
      std::make_unique<SimStoreBuffering>(Symbol{"L"}, store_order));
  return objects;
}

TEST(StoreBufferingLitmus, RelaxedStoresAcceptedUnderSc) {
  auto seq = std::make_shared<SbSpec>(Symbol{"L"});
  SeqAsCaSpec spec(seq);
  WorldConfig cfg = sb_config(&spec);
  Explorer ex(cfg, sb_object(MemOrder::kRelaxed));
  ExploreResult r = ex.run();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.flush_steps, 0u);
  EXPECT_EQ(r.buffered_max, 0u);
}

TEST(StoreBufferingLitmus, RelaxedStoresRejectedUnderTsoAndReplay) {
  auto seq = std::make_shared<SbSpec>(Symbol{"L"});
  SeqAsCaSpec spec(seq);
  WorldConfig cfg = sb_config(&spec);
  ExploreOptions opts;
  opts.memory_model = MemoryModel::kTso;
  Explorer ex(cfg, sb_object(MemOrder::kRelaxed));
  Explorer tso(cfg, sb_object(MemOrder::kRelaxed), opts);
  ExploreResult sc = ex.run();
  ExploreResult r = tso.run();
  EXPECT_TRUE(sc.ok());  // the same binary accepts under SC
  ASSERT_FALSE(r.ok());  // TSO reaches the both-read-zero outcome
  ASSERT_FALSE(r.violations.empty());
  const ScheduleViolation& v = r.violations.front();
  ASSERT_FALSE(v.schedule.empty());

  // The witness replays deterministically to the same violation.
  World replayed = tso.replay(v.schedule);
  ASSERT_TRUE(replayed.violated());
  EXPECT_EQ(*replayed.violation(), v.what);
}

TEST(StoreBufferingLitmus, SeqCstStoresPassUnderTso) {
  auto seq = std::make_shared<SbSpec>(Symbol{"L"});
  SeqAsCaSpec spec(seq);
  WorldConfig cfg = sb_config(&spec);
  ExploreOptions opts;
  opts.memory_model = MemoryModel::kTso;
  Explorer ex(cfg, sb_object(MemOrder::kSeqCst), opts);
  ExploreResult r = ex.run();
  EXPECT_TRUE(r.ok());
  // seq_cst stores drain in place: no buffering, no flush transitions.
  EXPECT_EQ(r.flush_steps, 0u);
  EXPECT_EQ(r.buffered_max, 0u);
}

// Full TSO exploration of the relaxed litmus without a spec: flush
// transitions fire, the buffered high-water mark sees both pending
// writes, and every terminal state is drained (all_done requires it).
TEST(StoreBufferingLitmus, FlushTransitionsDrainEveryTerminal) {
  WorldConfig cfg = sb_config(nullptr);
  cfg.record_history = true;
  ExploreOptions opts;
  opts.memory_model = MemoryModel::kTso;
  opts.collect_terminals = true;
  Explorer ex(cfg, sb_object(MemOrder::kRelaxed), opts);
  ExploreResult r = ex.run();
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.terminals, 0u);
  EXPECT_GT(r.flush_steps, 0u);
  EXPECT_EQ(r.buffered_max, 2u);  // both threads' stores pending at once
}

// The parallel driver explores the same TSO machine: same verdict as the
// sequential one on the rejecting litmus, with flush steps expanded on
// pool workers.
TEST(StoreBufferingLitmus, ParallelDriverRejectsUnderTso) {
  auto seq = std::make_shared<SbSpec>(Symbol{"L"});
  SeqAsCaSpec spec(seq);
  WorldConfig cfg = sb_config(&spec);
  ExploreOptions opts;
  opts.memory_model = MemoryModel::kTso;
  opts.threads = 8;
  Explorer ex(cfg, sb_object(MemOrder::kRelaxed), opts);
  ExploreResult r = ex.run();
  ASSERT_FALSE(r.ok());
  ASSERT_FALSE(r.violations.empty());
  // The parallel winner replays too.
  World replayed = ex.replay(r.violations.front().schedule);
  EXPECT_TRUE(replayed.violated());
}

// POR and symmetry compose with TSO on the rejecting litmus: the verdict
// survives reduction, and the reduced witness still replays.
TEST(StoreBufferingLitmus, ReductionsPreserveTheTsoVerdict) {
  auto seq = std::make_shared<SbSpec>(Symbol{"L"});
  SeqAsCaSpec spec(seq);
  WorldConfig cfg = sb_config(&spec);
  for (bool por : {false, true}) {
    for (bool symmetry : {false, true}) {
      ExploreOptions opts;
      opts.memory_model = MemoryModel::kTso;
      opts.por = por;
      opts.symmetry = symmetry;
      Explorer ex(cfg, sb_object(MemOrder::kRelaxed), opts);
      ExploreResult r = ex.run();
      SCOPED_TRACE("por=" + std::to_string(por) +
                   " symmetry=" + std::to_string(symmetry));
      ASSERT_FALSE(r.ok());
      World replayed = ex.replay(r.violations.front().schedule);
      EXPECT_TRUE(replayed.violated());
    }
  }
}

}  // namespace
}  // namespace cal::sched
