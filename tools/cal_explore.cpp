// cal-explore — exhaustive schedule exploration from the command line.
//
//   cal-explore [--machine exchanger|stack|stack-aba|queue|sb|sb-sc]
//               [--memory-model sc|tso] [--por] [--symmetry] [--jobs N]
//               [--recycle] [--reclaimer ebr|hp|tagged] [--tag-bits N]
//
// Explores every interleaving of a small built-in program against the
// corresponding corpus machine (the same Env-parameterized bodies the
// runtime executes) and reports the verdict with the search counters,
// including the active memory model and, under TSO, the flush-transition
// count and buffered-write high-water mark. Exits 0 on VERIFIED, 1 on a
// violation (with the replayable counterexample schedule printed), 2 on
// usage errors.
//
// The `sb` machine is the store-buffering litmus: each thread sets its
// own flag with a *relaxed* store and reads the partner's. It is the
// canonical SC/TSO separator — VERIFIED under --memory-model sc,
// VIOLATION under tso. `sb-sc` is the repaired (seq_cst-store) variant,
// VERIFIED under both.
//
// `--recycle` turns on address reuse in the simulated allocator, with
// `--reclaimer` choosing the reclamation protocol the world enforces
// (epoch grace periods, hazard-pointer slots, or tagged generations of
// `--tag-bits` width). The `stack-aba` machine is the reclamation
// counterpart of the sb litmus: a seeded Treiber-style stack whose pop
// reads the top with a plain load instead of protect(). Without
// --recycle the no-reuse heap masks the bug (VERIFIED); with
// --recycle --reclaimer hp the observed block is recycled mid-attempt
// and the stale CAS corrupts the stack (VIOLATION).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "objects/core/stack_core.hpp"
#include "runtime/reclaim/reclaimer.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_env.hpp"
#include "sched/sim_objects.hpp"

using namespace cal;         // NOLINT: tool
using namespace cal::sched;  // NOLINT: tool

namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--machine exchanger|stack|stack-aba|queue|sb|sb-sc]\n"
      "          [--memory-model sc|tso] [--por] [--symmetry] [--jobs N]\n"
      "          [--recycle] [--reclaimer ebr|hp|tagged] [--tag-bits N]\n",
      argv0);
  return 2;
}

// The store-buffering litmus machine (mirrors the regression suite in
// tests/sched/test_sim_memory.cpp): sb(i) sets flag[i] with `store_order`,
// reads flag[1-i], returns it.
class SimStoreBuffering final : public EnvSimObject {
 public:
  SimStoreBuffering(Symbol name, objects::MemOrder store_order)
      : EnvSimObject(0), name_(name), order_(store_order) {}

  void init(World& world) override { flags_ = world.alloc_global(2); }

 protected:
  [[nodiscard]] Attempt attempt(SimEnv& env, World& world,
                                ThreadCtx& t) const override {
    static const Symbol kSb{"sb"};
    const Call& call = current_call(world, t);
    const objects::Word me = call.arg.as_int();
    env.store(flags_, me, 1, order_);
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
  objects::MemOrder order_;
  objects::Word flags_ = objects::kNullRef;
};

/// Spec of sb: setting your flag linearizes; you must read 1 if the
/// partner already linearized, may read either value otherwise.
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

struct Setup {
  WorldConfig cfg;
  std::vector<std::unique_ptr<SimObject>> objects;
  // Keep the specs alive for the exploration.
  std::shared_ptr<const CaSpec> spec;
};

Setup make_exchanger() {
  Setup s;
  auto spec =
      std::make_shared<ExchangerSpec>(Symbol{"E"}, Symbol{"exchange"});
  for (std::size_t i = 0; i < 3; ++i) {
    ThreadProgram p;
    p.tid = static_cast<ThreadId>(i);
    p.calls = {Call{0, Symbol{"exchange"},
                    iv(static_cast<std::int64_t>(10 * (i + 1)))}};
    s.cfg.programs.push_back(std::move(p));
  }
  s.cfg.object_names = {Symbol{"E"}};
  s.cfg.heap_cells = 16;
  s.cfg.global_cells = 8;
  s.objects.push_back(std::make_unique<SimExchanger>(Symbol{"E"}));
  s.cfg.spec = spec.get();
  s.spec = std::move(spec);
  return s;
}

Setup make_stack() {
  Setup s;
  auto spec = std::make_shared<SeqAsCaSpec>(
      std::make_shared<CentralStackSpec>(Symbol{"S"}));
  s.cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"push"}, iv(10)}}},
                    ThreadProgram{1, {Call{0, Symbol{"push"}, iv(20)}}},
                    ThreadProgram{2, {Call{0, Symbol{"pop"}, Value::unit()}}}};
  s.cfg.object_names = {Symbol{"S"}};
  s.cfg.heap_cells = 16;
  s.cfg.global_cells = 4;
  s.objects.push_back(std::make_unique<SimCentralStack>(Symbol{"S"}));
  s.cfg.spec = spec.get();
  s.spec = std::move(spec);
  return s;
}

// --- the reclamation litmus: drop-the-protect stack --------------------- //

/// CentralStackSpec is final; wrap it and seed the abstract state to match
/// the two concrete nodes init() plants (A(10) below B(20), top-last).
class SeededStackSpec final : public SequentialSpec {
 public:
  explicit SeededStackSpec(Symbol object) : inner_(object) {}

  [[nodiscard]] SpecState initial() const override { return {10, 20}; }
  [[nodiscard]] std::vector<SeqStepResult> step(
      const SpecState& state, ThreadId tid, Symbol object, Symbol method,
      const Value& arg, const std::optional<Value>& ret) const override {
    return inner_.step(state, tid, object, method, arg, ret);
  }

 private:
  CentralStackSpec inner_;
};

/// core::stack_pop_attempt with the protect dropped: the top read is a
/// plain load, so nothing pins the observed node while it is dereferenced
/// and CASed. Indistinguishable from the correct body without --recycle.
objects::core::StackPopOutcome pop_attempt_drop_protect(
    SimEnv& env, const objects::core::StackRefs& s, Symbol name,
    ThreadId tid) {
  namespace core = objects::core;
  static const Symbol kPop{"pop"};
  auto failed = [&] {
    return CaElement::singleton(
        name, Operation::make(tid, name, kPop, Value::unit(),
                              Value::pair(false, 0)));
  };
  const SimEnv::Word h =
      env.load(s.top, 0, objects::MemOrder::kAcquire);  // MUTANT: no protect
  if (h == objects::kNullRef) {
    env.emit(failed);
    return {core::StackPop::kEmpty, 0};
  }
  const SimEnv::Word next = env.load_frozen(h, core::kCellNext);
  if (env.cas(s.top, 0, h, next, objects::MemOrder::kAcqRel)) {
    const SimEnv::Word v = env.load_frozen(h, core::kCellData);
    env.retire(h, core::kCellCells);
    env.emit([&] {
      return CaElement::singleton(
          name, Operation::make(tid, name, kPop, Value::unit(),
                                Value::pair(true, v)));
    });
    return {core::StackPop::kGot, v};
  }
  env.emit(failed);
  return {core::StackPop::kLost, 0};
}

/// Seeded single-attempt central stack running the mutant pop body.
class SimAbaStack final : public EnvSimObject {
 public:
  explicit SimAbaStack(Symbol name) : EnvSimObject(0), name_(name) {}

  void init(World& world) override {
    namespace core = objects::core;
    refs_.top = world.alloc_global(1);
    const Addr a = world.alloc_global(core::kCellCells);
    const Addr b = world.alloc_global(core::kCellCells);
    world.write(a + core::kCellData, 10);
    world.write(a + core::kCellNext, objects::kNullRef);
    world.write(b + core::kCellData, 20);
    world.write(b + core::kCellNext, static_cast<Word>(a));
    world.write(static_cast<Addr>(refs_.top), static_cast<Word>(b));
  }

 protected:
  [[nodiscard]] Attempt attempt(SimEnv& env, World& world,
                                ThreadCtx& t) const override {
    namespace core = objects::core;
    static const Symbol kPush{"push"};
    const Call& call = current_call(world, t);
    if (call.method == kPush) {
      const bool ok = core::stack_push_attempt(env, refs_, name_, t.tid,
                                               call.arg.as_int());
      return {Status::kDone, Value::boolean(ok)};
    }
    const core::StackPopOutcome r =
        pop_attempt_drop_protect(env, refs_, name_, t.tid);
    if (r.kind == core::StackPop::kGot) {
      return {Status::kDone, Value::pair(true, r.value)};
    }
    return {Status::kDone, Value::pair(false, 0)};
  }

 private:
  Symbol name_;
  objects::core::StackRefs refs_;
};

Setup make_aba_stack() {
  Setup s;
  auto spec = std::make_shared<SeqAsCaSpec>(
      std::make_shared<SeededStackSpec>(Symbol{"S"}));
  ThreadProgram p0;
  p0.tid = 0;
  p0.calls = {Call{0, Symbol{"pop"}, {}}, Call{0, Symbol{"pop"}, {}}};
  ThreadProgram p1;
  p1.tid = 1;
  p1.calls = {Call{0, Symbol{"pop"}, {}}, Call{0, Symbol{"pop"}, {}},
              Call{0, Symbol{"push"}, iv(30)}};
  s.cfg.programs = {std::move(p0), std::move(p1)};
  s.cfg.object_names = {Symbol{"S"}};
  s.cfg.heap_cells = 16;
  s.cfg.global_cells = 8;
  s.objects.push_back(std::make_unique<SimAbaStack>(Symbol{"S"}));
  s.cfg.spec = spec.get();
  s.spec = std::move(spec);
  return s;
}

Setup make_queue() {
  Setup s;
  auto spec =
      std::make_shared<SeqAsCaSpec>(std::make_shared<QueueSpec>(Symbol{"Q"}));
  s.cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"enq"}, iv(7)}}},
                    ThreadProgram{1, {Call{0, Symbol{"deq"}, Value::unit()}}}};
  s.cfg.object_names = {Symbol{"Q"}};
  s.cfg.heap_cells = 16;
  s.cfg.global_cells = 4;
  s.objects.push_back(std::make_unique<SimMsQueue>(Symbol{"Q"}));
  s.cfg.spec = spec.get();
  s.spec = std::move(spec);
  return s;
}

Setup make_sb(objects::MemOrder store_order) {
  Setup s;
  auto spec =
      std::make_shared<SeqAsCaSpec>(std::make_shared<SbSpec>(Symbol{"L"}));
  s.cfg.programs = {ThreadProgram{0, {Call{0, Symbol{"sb"}, iv(0)}}},
                    ThreadProgram{1, {Call{0, Symbol{"sb"}, iv(1)}}}};
  s.cfg.object_names = {Symbol{"L"}};
  s.cfg.heap_cells = 4;
  s.cfg.global_cells = 4;
  s.objects.push_back(
      std::make_unique<SimStoreBuffering>(Symbol{"L"}, store_order));
  s.cfg.spec = spec.get();
  s.spec = std::move(spec);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string machine = "exchanger";
  ExploreOptions opts;
  bool recycle = false;
  auto policy = runtime::ReclaimPolicy::kEbr;
  unsigned tag_bits = 16;
  std::string bad_count_flag;  // name of the flag with a bad count value
  // Plain digits up to 4096, as cal_check takes counts: atol would read
  // "x" as 0, which means all cores for --jobs and the tag-truncation
  // mutant for --tag-bits.
  auto parse_count = [&](const char* flag, const char* s) -> std::size_t {
    const std::string v = s;
    if (v.empty() || v.size() > 9 ||
        v.find_first_not_of("0123456789") != std::string::npos ||
        std::stoul(v) > 4096) {
      bad_count_flag = flag;
      return 0;
    }
    return std::stoul(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--machine" && i + 1 < argc) {
      machine = argv[++i];
    } else if (arg == "--recycle") {
      recycle = true;
    } else if (arg == "--reclaimer" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "ebr") {
        policy = runtime::ReclaimPolicy::kEbr;
      } else if (name == "hp") {
        policy = runtime::ReclaimPolicy::kHp;
      } else if (name == "tagged") {
        policy = runtime::ReclaimPolicy::kTagged;
      } else {
        std::fprintf(stderr, "unknown reclaimer '%s'\n", name.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--tag-bits" && i + 1 < argc) {
      tag_bits = static_cast<unsigned>(parse_count("--tag-bits", argv[++i]));
    } else if (arg == "--memory-model" && i + 1 < argc) {
      const std::string model = argv[++i];
      if (model == "sc") {
        opts.memory_model = MemoryModel::kSc;
      } else if (model == "tso") {
        opts.memory_model = MemoryModel::kTso;
      } else {
        std::fprintf(stderr, "unknown memory model '%s'\n", model.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--por") {
      opts.por = true;
    } else if (arg == "--symmetry") {
      opts.symmetry = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      opts.threads = parse_count("--jobs", argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (!bad_count_flag.empty()) {
    std::fprintf(stderr, "bad count for %s: expected 0..4096\n",
                 bad_count_flag.c_str());
    return usage(argv[0]);
  }

  Setup s;
  if (machine == "exchanger") {
    s = make_exchanger();
  } else if (machine == "stack") {
    s = make_stack();
  } else if (machine == "stack-aba") {
    s = make_aba_stack();
  } else if (machine == "queue") {
    s = make_queue();
  } else if (machine == "sb") {
    s = make_sb(objects::MemOrder::kRelaxed);
  } else if (machine == "sb-sc") {
    s = make_sb(objects::MemOrder::kSeqCst);
  } else {
    std::fprintf(stderr, "unknown machine '%s'\n", machine.c_str());
    return usage(argv[0]);
  }
  s.cfg.record_trace = true;
  s.cfg.recycle_addresses = recycle;
  s.cfg.reclaim_policy = policy;
  s.cfg.tag_bits = tag_bits;

  Explorer explorer(s.cfg, std::move(s.objects), opts);
  const ExploreResult r = explorer.run();

  std::printf("machine: %s\n", machine.c_str());
  std::printf("memory model: %s\n",
              opts.memory_model == MemoryModel::kTso ? "tso" : "sc");
  std::printf("states: %zu, transitions: %zu, merged: %zu, terminals: %zu, "
              "max depth: %zu\n",
              r.states, r.transitions, r.merged, r.terminals, r.max_depth);
  std::printf("por pruned: %zu, symmetry merged: %zu\n", r.por_pruned,
              r.symmetry_merged);
  std::printf("flush steps: %zu, buffered high-water: %zu\n", r.flush_steps,
              r.buffered_max);
  if (recycle) {
    std::printf("reclaimer: %s, recycled allocs: %zu, "
                "retired high-water: %zu\n",
                runtime::reclaim_policy_name(policy), r.recycled_allocs,
                r.retired_max);
  }
  if (r.ok()) {
    std::printf("VERIFIED: no violation in any interleaving\n");
    return 0;
  }
  std::printf("VIOLATION: %s\n", r.violations[0].to_string().c_str());
  return 1;
}
