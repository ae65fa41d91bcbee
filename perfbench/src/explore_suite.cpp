// Workload explore-suite: a fixed list of named Explorer::run
// configurations, each run to its verdict, one after another on the
// calling thread (xchg4-jobs adds the explorer's own pool of nproc
// workers). One unit is one configuration; a timed run only stops at the
// end of a whole suite pass.
//
// The configurations exercise the explorer's reductions (sleep-set POR,
// thread symmetry), the TSO memory model, address recycling under hazard
// pointers, the parallel explorer, a known violation whose counterexample is
// replayed through Explorer::replay, and enumeration without merging with
// every terminal history checked by the streaming checker.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cal/engine/incremental.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "gen.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_env.hpp"
#include "sched/sim_objects.hpp"
#include "stream_feed.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace cal;         // NOLINT: benchmark file
using namespace cal::sched;  // NOLINT: benchmark file

Value iv(std::int64_t x) { return Value::integer(x); }

/// Explorer state cap; tripping it is a failed unit.
constexpr std::size_t kMaxStates = 4000000;

// --- the store-buffering litmus --------------------------------------- //
// sb(i) sets flag[i] with a relaxed store and reads flag[1-i]. Under TSO
// both threads can read 0, which no sequential order explains.

class SimStoreBuffering final : public EnvSimObject {
 public:
  explicit SimStoreBuffering(Symbol name) : EnvSimObject(0), name_(name) {}

  void init(World& world) override { flags_ = world.alloc_global(2); }

 protected:
  [[nodiscard]] Attempt attempt(SimEnv& env, World& world,
                                ThreadCtx& t) const override {
    static const Symbol kSb{"sb"};
    const objects::Word me = current_call(world, t).arg.as_int();
    env.store(flags_, me, 1, objects::MemOrder::kRelaxed);
    const objects::Word other =
        env.load(flags_, 1 - me, objects::MemOrder::kAcquire);
    env.emit([&] {
      return CaElement::singleton(
          name_, Operation::make(t.tid, name_, kSb, Value::integer(me),
                                 Value::integer(other)));
    });
    return {Status::kDone, Value::integer(other)};
  }

 private:
  Symbol name_;
  objects::Word flags_ = objects::kNullRef;
};

/// Setting your flag linearizes; you must read 1 once the partner has.
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
    for (const std::int64_t r : {std::int64_t{1}, std::int64_t{0}}) {
      if (r == 0 && state[1 - me] != 0) continue;
      if (!ret || *ret == Value::integer(r)) {
        out.push_back(SeqStepResult{next, Value::integer(r)});
      }
    }
    return out;
  }

 private:
  Symbol object_;
};

// --- configurations ---------------------------------------------------- //

struct Built {
  WorldConfig cfg;
  std::vector<std::unique_ptr<SimObject>> objects;
  std::shared_ptr<const CaSpec> spec;  ///< what cfg.spec points to
};

struct Config {
  const char* name;
  std::function<Built()> build;
  ExploreOptions opts;
  bool expect_violation = false;
  /// Merge off, terminals collected and each checked by the streaming
  /// checker.
  bool enum_check = false;
};

Built exchanger(std::size_t threads, std::size_t ops, std::int64_t base,
                bool symmetric) {
  Built b;
  auto spec = std::make_shared<ExchangerSpec>(Symbol{"E"});
  for (std::size_t i = 0; i < threads; ++i) {
    ThreadProgram p;
    // The symmetry canonicalizer wants identical programs and tids outside
    // the simulated address range.
    p.tid = static_cast<ThreadId>(symmetric ? 1000 + i : i);
    for (std::size_t k = 0; k < ops; ++k) {
      p.calls.push_back(Call{
          0, Symbol{"exchange"},
          iv(symmetric ? 7 : base + static_cast<std::int64_t>(i * 10 + k))});
    }
    b.cfg.programs.push_back(std::move(p));
  }
  b.cfg.object_names = {Symbol{"E"}};
  b.cfg.heap_cells = symmetric ? 16 : 8;
  b.cfg.global_cells = 8;
  b.cfg.record_trace = true;
  b.objects.push_back(std::make_unique<SimExchanger>(Symbol{"E"}));
  b.cfg.spec = spec.get();
  b.spec = std::move(spec);
  return b;
}

Built ms_queue(std::int64_t base) {
  Built b;
  auto spec =
      std::make_shared<SeqAsCaSpec>(std::make_shared<QueueSpec>(Symbol{"Q"}));
  b.cfg.programs = {
      ThreadProgram{0, {Call{0, Symbol{"enq"}, iv(base)},
                        Call{0, Symbol{"deq"}, Value::unit()}}},
      ThreadProgram{1, {Call{0, Symbol{"enq"}, iv(base + 1)},
                        Call{0, Symbol{"deq"}, Value::unit()}}},
      ThreadProgram{2, {Call{0, Symbol{"deq"}, Value::unit()}}}};
  b.cfg.object_names = {Symbol{"Q"}};
  b.cfg.heap_cells = 16;
  b.cfg.global_cells = 8;
  b.cfg.record_trace = true;
  b.objects.push_back(std::make_unique<SimMsQueue>(Symbol{"Q"}));
  b.cfg.spec = spec.get();
  b.spec = std::move(spec);
  return b;
}

Built central_stack(std::int64_t base) {
  Built b;
  auto spec = std::make_shared<SeqAsCaSpec>(
      std::make_shared<CentralStackSpec>(Symbol{"S"}));
  b.cfg.programs = {
      ThreadProgram{0, {Call{0, Symbol{"push"}, iv(base)},
                        Call{0, Symbol{"pop"}, Value::unit()}}},
      ThreadProgram{1, {Call{0, Symbol{"push"}, iv(base + 1)},
                        Call{0, Symbol{"pop"}, Value::unit()}}},
      ThreadProgram{2, {Call{0, Symbol{"pop"}, Value::unit()},
                        Call{0, Symbol{"push"}, iv(base + 2)}}}};
  b.cfg.object_names = {Symbol{"S"}};
  b.cfg.heap_cells = 16;
  b.cfg.global_cells = 8;
  b.cfg.record_trace = true;
  b.cfg.recycle_addresses = true;
  b.cfg.reclaim_policy = runtime::ReclaimPolicy::kHp;
  b.objects.push_back(std::make_unique<SimCentralStack>(Symbol{"S"}));
  b.cfg.spec = spec.get();
  b.spec = std::move(spec);
  return b;
}

Built store_buffering() {
  Built b;
  auto spec =
      std::make_shared<SeqAsCaSpec>(std::make_shared<SbSpec>(Symbol{"L"}));
  b.cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"sb"}, iv(0)}}},
                    ThreadProgram{1, {Call{0, Symbol{"sb"}, iv(1)}}}};
  b.cfg.object_names = {Symbol{"L"}};
  b.cfg.heap_cells = 4;
  b.cfg.global_cells = 4;
  b.cfg.record_trace = true;
  b.objects.push_back(std::make_unique<SimStoreBuffering>(Symbol{"L"}));
  b.cfg.spec = spec.get();
  b.spec = std::move(spec);
  return b;
}

class ExploreSuite final : public Workload {
 public:
  explicit ExploreSuite(const Options& opt) : opt_(opt) {
    jobs_ = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    // The seed picks the offered values; the state spaces do not depend
    // on them.
    const auto base = static_cast<std::int64_t>(100 + 10 * rng.below(1000));
    const std::size_t big = opt_.tiny ? 3 : 4;
    const std::size_t sym = opt_.tiny ? 4 : 5;
    configs_.clear();
    ExploreOptions plain;
    plain.max_states = kMaxStates;
    ExploreOptions por = plain;
    por.por = true;
    ExploreOptions symmetry = plain;
    symmetry.symmetry = true;
    ExploreOptions tso = plain;
    tso.memory_model = MemoryModel::kTso;
    ExploreOptions enumerate = plain;
    enumerate.merge_states = false;
    enumerate.collect_terminals = true;
    ExploreOptions jobs = plain;
    jobs.threads = jobs_;
    configs_ = {
        {"xchg4", [=] { return exchanger(big, 1, base, false); }, plain},
        {"xchg4-por", [=] { return exchanger(big, 1, base, false); }, por},
        {"xchg5-sym", [=] { return exchanger(sym, 1, base, true); },
         symmetry},
        {"msq-tso", [=] { return ms_queue(base); }, tso},
        {"stack-recycle", [=] { return central_stack(base); }, plain},
        {"violation", [] { return store_buffering(); }, tso, true},
        {"xchg2-1-enum-check",
         [=, this] {
           // Two exchanges on one thread, one on the other.
           Built b = exchanger(2, opt_.tiny ? 1 : 2, base, false);
           if (!opt_.tiny) b.cfg.programs[1].calls.pop_back();
           b.cfg.record_history = true;
           return b;
         },
         enumerate, false, true},
        {"xchg4-jobs", [=] { return exchanger(big, 1, base, false); }, jobs},
    };
    if (opt_.mislabel) {
      configs_[0].expect_violation = !configs_[0].expect_violation;
    }
    // Construct every configuration once: object and config construction
    // is part of set-up (each run rebuilds its own, untimed, because the
    // explorer takes ownership of the objects).
    for (const Config& c : configs_) (void)c.build();
  }

  [[nodiscard]] std::size_t units_per_pass() const override {
    return configs_.size();
  }

  void run_unit(std::size_t unit, E2e& e2e, Tracer* tr) override {
    const Config& c = configs_[unit];
    ++e2e.attempted;
    Built b = c.build();
    const CaSpec& spec = *b.spec;

    const auto t0 = Clock::now();
    ScopedSpan root(tr, "config", unit);
    ScopedSpan run_span(tr, "explorer.run", unit);
    Explorer explorer(b.cfg, std::move(b.objects), c.opts);
    ExploreResult r = explorer.run();
    const double run_s = run_span.close();
    std::size_t accepted = 0;
    std::vector<std::optional<CaTrace>> witnesses;
    if (c.enum_check) {
      ScopedSpan check_span(tr, "explorer.offline_check", unit);
      for (std::size_t i = 0; i < r.histories.size(); ++i) {
        std::optional<CaTrace> w = check_stream(r.histories[i], spec, i, tr);
        if (w) ++accepted;
        witnesses.push_back(std::move(w));
      }
      const double check_s = check_span.close();
      if (tr != nullptr) tr->add("explorer.offline_check_s", check_s);
    }
    const auto t1 = Clock::now();
    root.close();
    const double wall = seconds_between(t0, t1);
    e2e.add_work(static_cast<double>(r.transitions), wall);
    e2e.add_latency(wall * 1e3);

    if (tr != nullptr) {
      tr->add("explorer." + std::string(c.name) + ".run_s", run_s);
      tr->add("explorer.states", static_cast<double>(r.states));
      tr->add("explorer.transitions", static_cast<double>(r.transitions));
      tr->add("explorer.merged", static_cast<double>(r.merged));
      tr->add("explorer.terminals", static_cast<double>(r.terminals));
      tr->add("explorer.por_pruned", static_cast<double>(r.por_pruned));
      tr->add("explorer.symmetry_merged",
              static_cast<double>(r.symmetry_merged));
      tr->add("explorer.flush_steps", static_cast<double>(r.flush_steps));
      tr->add("explorer.recycled_allocs",
              static_cast<double>(r.recycled_allocs));
    }

    // The oracle (untimed).
    const std::string where = std::string("config ") + c.name;
    if (r.exhausted) {
      e2e.fail(where + ": max_states cap tripped (inconclusive)");
      return;
    }
    if (c.expect_violation != !r.violations.empty()) {
      e2e.fail(where + ": " +
               (r.violations.empty() ? std::string("VERIFIED")
                                     : "VIOLATION " + r.violations[0].what) +
               ", expected " +
               (c.expect_violation ? "VIOLATION" : "VERIFIED"));
      return;
    }
    if (!r.check_failures.empty()) {
      e2e.fail(where + ": " + r.check_failures.front());
      return;
    }
    if (c.expect_violation) {
      ScopedSpan replay_span(tr, "explorer.replay", unit);
      const ScheduleViolation& v = r.violations.front();
      const World w = explorer.replay(v.schedule);
      replay_span.close();
      if (!w.violated() || *w.violation() != v.what) {
        e2e.fail(where + ": the counterexample schedule does not replay to "
                         "the same violation");
      }
      return;
    }
    if (c.enum_check) {
      ScopedSpan verify_span(tr, "verify", unit);
      if (r.histories.empty()) e2e.fail(where + ": no terminal histories");
      if (accepted != r.histories.size()) {
        e2e.fail(where + ": " +
                 std::to_string(r.histories.size() - accepted) +
                 " terminal histories rejected by the streaming checker");
        return;
      }
      for (std::size_t i = 0; i < r.histories.size(); ++i) {
        if (auto why = verify_witness(r.histories[i], *witnesses[i], spec)) {
          e2e.fail(where + " history " + std::to_string(i) + ": " + *why);
          return;
        }
      }
      if (tr != nullptr) {
        tr->add("verify.witnesses", static_cast<double>(witnesses.size()));
      }
    }
    // The parallel explorer must reproduce the sequential counters.
    if (std::string(c.name) == "xchg4") {
      sequential_ = r;
    } else if (std::string(c.name) == "xchg4-jobs" &&
               (r.states != sequential_.states ||
                r.transitions != sequential_.transitions ||
                r.terminals != sequential_.terminals)) {
      e2e.fail(where + ": counters differ from the sequential xchg4 run");
    }
  }

  void finish_trace(Tracer& tr) override {
    const auto totals = tr.totals_by_name();
    auto self = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self_s;
    };
    tr.set("explorer.run_s", self("explorer.run"));
    tr.set("explorer.replay_s", self("explorer.replay"));
    tr.set("incremental.window_s", self("incremental.window"));
    tr.set("incremental.push_s",
           self("incremental.push") + self("incremental.window"));
    tr.set("incremental.finish_s", self("incremental.finish"));
    tr.set("verify.s", self("verify"));
    finish_window_series(tr);
    if (tr.get("explorer.transitions") > 0) {
      tr.set("explorer.ns_per_transition",
             tr.get("explorer.run_s") * 1e9 / tr.get("explorer.transitions"));
    }
    const double seq = tr.get("explorer.xchg4.run_s");
    const double par = tr.get("explorer.xchg4-jobs.run_s");
    tr.set("parallel.threads", static_cast<double>(jobs_));
    if (seq > 0 && par > 0) {
      tr.set("parallel.explore_speedup", seq / par);
      tr.set("parallel.explore_efficiency",
             seq / par / static_cast<double>(jobs_));
    }
  }

  [[nodiscard]] std::vector<Alias> aliases(const E2e& e2e,
                                           const Summary& s) const override {
    // Every timed run covers whole passes, so the suite's time to verdict
    // is the busy time per pass.
    const double passes =
        static_cast<double>(e2e.latency_seen) /
        static_cast<double>(std::max<std::size_t>(1, configs_.size()));
    return {{"explore_wall_s", passes > 0 ? e2e.busy_s / passes : 0, "s"},
            {"explore_transitions_per_s", s.throughput, "1/s"}};
  }

 private:
  /// One short stream through the incremental checker, action by action;
  /// returns the witness on acceptance.
  std::optional<CaTrace> check_stream(const History& h, const CaSpec& spec,
                                      std::size_t request, Tracer* tr) {
    engine::IncrementalOptions io;
    io.window = 16;
    StreamFeed feed(spec, io, tr);
    for (const Action& a : h.actions()) (void)feed.push(a, request);
    feed.finish(request);
    feed.record();
    const engine::IncrementalStatus& s = feed.checker().status();
    if (!s.ok || s.exhausted) return std::nullopt;
    return feed.checker().witness();
  }

  Options opt_;
  std::size_t jobs_;
  std::vector<Config> configs_;
  ExploreResult sequential_;
};

}  // namespace

std::unique_ptr<Workload> make_explore_suite(const Options& opt) {
  return std::make_unique<ExploreSuite>(opt);
}

}  // namespace perfbench
