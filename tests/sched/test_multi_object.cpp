// Multi-object worlds: two independent exchangers explored together and
// checked against the union of their specifications — the executable form
// of §2's "static number of concurrent objects" ownership discipline.
#include <gtest/gtest.h>

#include <memory>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/replay.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/union_spec.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_objects.hpp"

namespace cal::sched {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

struct TwoExchangerWorld {
  WorldConfig config;
  std::shared_ptr<UnionCaSpec> spec;
  std::vector<std::unique_ptr<SimObject>> objects;
};

TwoExchangerWorld make_world(bool record = false) {
  TwoExchangerWorld w;
  std::vector<UnionCaSpec::Entry> entries;
  entries.emplace_back(Symbol{"E1"}, std::make_shared<ExchangerSpec>(
                                         Symbol{"E1"}, Symbol{"exchange"}));
  entries.emplace_back(Symbol{"E2"}, std::make_shared<ExchangerSpec>(
                                         Symbol{"E2"}, Symbol{"exchange"}));
  w.spec = std::make_shared<UnionCaSpec>(std::move(entries));
  w.objects.push_back(std::make_unique<SimExchanger>(Symbol{"E1"}));
  w.objects.push_back(std::make_unique<SimExchanger>(Symbol{"E2"}));
  // Two threads, each exchanging on E1 and then on E2.
  for (ThreadId t = 0; t < 2; ++t) {
    ThreadProgram p;
    p.tid = t;
    p.calls = {Call{0, Symbol{"exchange"}, iv(10 + t)},
               Call{1, Symbol{"exchange"}, iv(20 + t)}};
    w.config.programs.push_back(std::move(p));
  }
  w.config.object_names = {Symbol{"E1"}, Symbol{"E2"}};
  w.config.spec = w.spec.get();
  w.config.record_history = record;
  w.config.record_trace = true;
  w.config.heap_cells = 8;
  w.config.global_cells = 8;
  return w;
}

TEST(MultiObject, TwoExchangersAuditClean) {
  TwoExchangerWorld w = make_world();
  Explorer ex(w.config, std::move(w.objects));
  ExploreResult r = ex.run();
  EXPECT_TRUE(r.ok()) << r.violations.front().what;
  EXPECT_GT(r.states, 100u);
}

TEST(MultiObject, EnumeratedHistoriesPassUnionSpec) {
  TwoExchangerWorld w = make_world(/*record=*/true);
  ExploreOptions opts;
  opts.merge_states = false;
  opts.collect_terminals = true;
  opts.max_states = 2000000;  // generous; this config enumerates ~1.1M
  Explorer ex(w.config, std::move(w.objects), opts);
  ExploreResult r = ex.run();
  ASSERT_TRUE(r.ok()) << r.violations.front().what;
  ASSERT_FALSE(r.exhausted);
  ASSERT_GT(r.histories.size(), 2u);
  CalChecker checker(*w.spec);
  CalCheckOptions product_opts;
  product_opts.order_check = false;
  CalChecker product(*w.spec, product_opts);
  bool saw_both_objects_swap = false;
  for (const History& h : r.histories) {
    // Object by object (the default) and as the product: equal verdicts,
    // and the split's merged witness replays and agrees.
    const CalCheckResult split = checker.check(h);
    EXPECT_TRUE(split) << h.to_string();
    EXPECT_EQ(product.check(h).ok, split.ok) << h.to_string();
    if (split.witness) {
      EXPECT_TRUE(replay_ca(*split.witness, *w.spec).ok);
      if (h.complete()) {
        EXPECT_TRUE(agrees_with(h, *split.witness).agrees) << h.to_string();
      }
    }
    bool e1_swap = false;
    bool e2_swap = false;
    for (const OpRecord& rec : h.operations()) {
      if (!rec.op.ret || !rec.op.ret->pair_ok()) continue;
      e1_swap |= rec.op.object == Symbol{"E1"};
      e2_swap |= rec.op.object == Symbol{"E2"};
    }
    saw_both_objects_swap |= e1_swap && e2_swap;
  }
  EXPECT_TRUE(saw_both_objects_swap)
      << "some interleaving should swap on both objects";
}

TEST(MultiObject, EnumerationRespectsStateCap) {
  TwoExchangerWorld w = make_world();
  ExploreOptions opts;
  opts.merge_states = false;
  opts.max_states = 50;
  Explorer ex(w.config, std::move(w.objects), opts);
  ExploreResult r = ex.run();
  EXPECT_TRUE(r.exhausted);
  EXPECT_LE(r.states, 50u);
}

}  // namespace
}  // namespace cal::sched
