// Golden explorer counters: small variants of every explore-suite family
// (the exchanger plain and under POR, the symmetric exchanger under
// thread symmetry, the MS queue under TSO, the central stack with hazard-
// pointer recycling, and one parallel run) with their exact counters
// pinned. The equivalence suites only relate runs to each other
// (sequential vs parallel, POR vs plain), so a visited set that
// false-merged or missed merges in both drivers would pass them; these
// numbers catch it.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_objects.hpp"

namespace cal::sched {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

/// The pinned counters, in ExploreResult's order.
struct Counters {
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t merged = 0;
  std::size_t terminals = 0;
  std::size_t por_pruned = 0;
  std::size_t symmetry_merged = 0;
  std::size_t flush_steps = 0;
  std::size_t recycled_allocs = 0;

  friend bool operator==(const Counters&, const Counters&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Counters& c) {
    return os << "{" << c.states << ", " << c.transitions << ", " << c.merged
              << ", " << c.terminals << ", " << c.por_pruned << ", "
              << c.symmetry_merged << ", " << c.flush_steps << ", "
              << c.recycled_allocs << "}";
  }
};

/// Runs one configuration to its verdict; it must verify cleanly.
Counters run(WorldConfig cfg, std::unique_ptr<SimObject> object,
             const CaSpec& spec, const ExploreOptions& opts) {
  cfg.spec = &spec;
  cfg.record_trace = true;
  std::vector<std::unique_ptr<SimObject>> objects;
  objects.push_back(std::move(object));
  Explorer explorer(cfg, std::move(objects), opts);
  const ExploreResult r = explorer.run();
  EXPECT_TRUE(r.ok()) << (r.violations.empty()
                              ? std::string("cap tripped")
                              : r.violations.front().to_string());
  EXPECT_FALSE(r.exhausted);
  return {r.states,          r.transitions, r.merged,
          r.terminals,       r.por_pruned,  r.symmetry_merged,
          r.flush_steps,     r.recycled_allocs};
}

/// `threads` exchanger threads with one exchange each. Symmetric: equal
/// programs and tids outside the address range (WorldCanon's discipline).
Counters exchanger(std::size_t threads, bool symmetric,
                   const ExploreOptions& opts) {
  const ExchangerSpec spec(Symbol{"E"});
  WorldConfig cfg;
  for (std::size_t i = 0; i < threads; ++i) {
    const auto offer = static_cast<std::int64_t>(100 + 10 * i);
    cfg.programs.push_back(ThreadProgram{
        static_cast<ThreadId>(symmetric ? 1000 + i : i),
        {Call{0, Symbol{"exchange"}, iv(symmetric ? 7 : offer)}}});
  }
  cfg.object_names = {Symbol{"E"}};
  cfg.heap_cells = symmetric ? 16 : 8;
  cfg.global_cells = 8;
  return run(std::move(cfg), std::make_unique<SimExchanger>(Symbol{"E"}),
             spec, opts);
}

TEST(GoldenCounters, Exchanger) {
  const Counters golden{1909, 4281, 2373, 19, 0, 0, 0, 0};
  EXPECT_EQ(exchanger(3, false, {}), golden);
}

TEST(GoldenCounters, ExchangerPor) {
  ExploreOptions opts;
  opts.por = true;
  const Counters golden{2001, 4360, 89, 19, 2433, 0, 0, 0};
  EXPECT_EQ(exchanger(3, false, opts), golden);
}

TEST(GoldenCounters, SymmetricExchanger) {
  ExploreOptions opts;
  opts.symmetry = true;
  const Counters golden{2144, 6443, 4300, 8, 0, 4229, 0, 0};
  EXPECT_EQ(exchanger(4, true, opts), golden);
}

TEST(GoldenCounters, MsQueueTso) {
  const SeqAsCaSpec spec(std::make_shared<QueueSpec>(Symbol{"Q"}));
  WorldConfig cfg;
  cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"enq"}, iv(1)},
                                    Call{0, Symbol{"deq"}, Value::unit()}}},
                  ThreadProgram{1, {Call{0, Symbol{"deq"}, Value::unit()}}}};
  cfg.object_names = {Symbol{"Q"}};
  cfg.heap_cells = 16;
  cfg.global_cells = 8;
  ExploreOptions opts;
  opts.memory_model = MemoryModel::kTso;
  EXPECT_EQ(run(std::move(cfg), std::make_unique<SimMsQueue>(Symbol{"Q"}),
                spec, opts),
            (Counters{261, 461, 201, 2, 0, 0, 0, 0}));
}

TEST(GoldenCounters, CentralStackHpRecycling) {
  const SeqAsCaSpec spec(std::make_shared<CentralStackSpec>(Symbol{"S"}));
  WorldConfig cfg;
  cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"push"}, iv(1)},
                                    Call{0, Symbol{"pop"}, Value::unit()}}},
                  ThreadProgram{1, {Call{0, Symbol{"pop"}, Value::unit()},
                                    Call{0, Symbol{"push"}, iv(2)}}}};
  cfg.object_names = {Symbol{"S"}};
  cfg.heap_cells = 16;
  cfg.global_cells = 8;
  cfg.recycle_addresses = true;
  cfg.reclaim_policy = runtime::ReclaimPolicy::kHp;
  EXPECT_EQ(run(std::move(cfg),
                std::make_unique<SimCentralStack>(Symbol{"S"}), spec, {}),
            (Counters{235, 362, 128, 14, 0, 0, 0, 1}));
}

TEST(GoldenCounters, ParallelExchanger) {
  ExploreOptions opts;
  opts.threads = 4;
  const Counters golden{1909, 4281, 2373, 19, 0, 0, 0, 0};
  EXPECT_EQ(exchanger(3, false, opts), golden);
}

}  // namespace
}  // namespace cal::sched
