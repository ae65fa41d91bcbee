// Workload runtime-record: min(4, nproc) closed-loop worker threads run a
// seeded op mix on the real objects — Treiber stack, Michael–Scott queue,
// elimination stack and exchanger, each on its own EBR reclaimer — with
// every call bracketed by Recorder invoke/respond on that object's
// recorder.
//
// One unit is one round: fresh objects, every worker runs its batch of ops
// (and then pops what it still owes, so the containers end empty), the
// threads meet at a barrier, and the round's four histories are checked.
// Every round must show dropped() == 0 and pass the linear conservation
// checks (popped = pushed, swaps pair up); every 16th round is also
// checked for CAL membership with CalChecker and its witness verified.
// Those checks are untimed: the end-to-end figures cover the op phase only.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cal/cal_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "gen.hpp"
#include "objects/elimination_stack.hpp"
#include "objects/exchanger.hpp"
#include "objects/ms_queue.hpp"
#include "objects/treiber_stack.hpp"
#include "runtime/reclaim/ebr_reclaimer.hpp"
#include "runtime/recorder.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace cal;  // NOLINT: benchmark file

enum Obj { kTreiber, kMsQueue, kElim, kExchanger, kObjects };

constexpr const char* kObjName[kObjects] = {"treiber", "msqueue", "elimstack",
                                            "exchanger"};
constexpr const char* kSpanName[kObjects] = {
    "objects.treiber", "objects.msqueue", "objects.elimstack",
    "objects.exchanger"};

constexpr std::size_t kSampleEvery = 8;  ///< latency-sampled op stride
constexpr std::size_t kCheckEvery = 16;  ///< rounds per CAL-checked round
constexpr std::size_t kRoundsPerPass = 128;
constexpr std::size_t kMaxOwed = 4;  ///< outstanding pushes per thread/object
constexpr unsigned kExchangeSpins = 64;  ///< partner wait of one exchange

struct Round {
  std::unique_ptr<objects::TreiberStack> treiber;
  std::unique_ptr<objects::MsQueue> queue;
  std::unique_ptr<objects::EliminationStack> elim;
  std::unique_ptr<objects::Exchanger> exchanger;
};

/// What one worker measured in one round.
struct WorkerOut {
  std::vector<double> latency_ms;
  double busy_s = 0;  ///< from the worker's first op to its last
  std::size_t ops = 0;
  std::size_t exchanges = 0;
  std::size_t swaps = 0;
  Tracer tracer;
};

class RuntimeRecord final : public Workload {
 public:
  explicit RuntimeRecord(const Options& opt)
      : opt_(opt),
        threads_(std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                         1, 4)),
        sym_{Symbol{"TS"}, Symbol{"MQ"}, Symbol{"ES"}, Symbol{"EX"}},
        method_{{Symbol{"pop"}, Symbol{"push"}},
                {Symbol{"deq"}, Symbol{"enq"}},
                {Symbol{"pop"}, Symbol{"push"}},
                {Symbol{"exchange"}, Symbol{"exchange"}}} {
    seq_[kTreiber] = std::make_shared<StackSpec>(sym_[kTreiber]);
    seq_[kMsQueue] = std::make_shared<QueueSpec>(sym_[kMsQueue]);
    seq_[kElim] = std::make_shared<StackSpec>(sym_[kElim]);
    for (int o = kTreiber; o <= kElim; ++o) {
      spec_[o] = std::make_shared<SeqAsCaSpec>(seq_[o]);
    }
    spec_[kExchanger] = std::make_shared<ExchangerSpec>(sym_[kExchanger]);
  }

  ~RuntimeRecord() override { stop_pool(); }

  RuntimeRecord(const RuntimeRecord&) = delete;
  RuntimeRecord& operator=(const RuntimeRecord&) = delete;

  /// Builds the reclaimers, recorders and output buffers. The worker pool
  /// is started once, by the first run_unit, so thread creation is not
  /// part of set-up.
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    batch_ = opt_.tiny ? 64 : 256;
    fresh_reclaimers();
    const std::size_t capacity = 4 * threads_ * (batch_ + kMaxOwed) + 64;
    for (auto& r : recorders_) r = std::make_unique<runtime::Recorder>(capacity);
    out_ = std::vector<WorkerOut>(threads_);
    for (WorkerOut& w : out_) w.latency_ms.reserve(batch_ / kSampleEvery + 1);
  }

  [[nodiscard]] std::size_t units_per_pass() const override {
    return kRoundsPerPass;
  }

  void run_unit(std::size_t unit, E2e& e2e, Tracer* tr) override {
    e2e.attempted += threads_;
    if (!pool_) start_pool();
    // Each pass gets its own reclaimers, so the reclaim.* figures of a
    // traced pass describe that pass alone.
    if (unit == 0) fresh_reclaimers();
    round_ = unit;
    traced_ = tr != nullptr;
    for (WorkerOut& w : out_) {
      w.latency_ms.clear();
      w.busy_s = 0;
      w.ops = w.exchanges = w.swaps = 0;
      w.tracer = Tracer{};
    }
    for (auto& r : recorders_) r->reset();
    objs_.treiber = std::make_unique<objects::TreiberStack>(
        *reclaimers_[kTreiber], sym_[kTreiber]);
    objs_.queue =
        std::make_unique<objects::MsQueue>(*reclaimers_[kMsQueue], sym_[kMsQueue]);
    objs_.elim = std::make_unique<objects::EliminationStack>(
        *reclaimers_[kElim], sym_[kElim], 2);
    objs_.exchanger = std::make_unique<objects::Exchanger>(
        *reclaimers_[kExchanger], sym_[kExchanger]);

    pool_->start.arrive_and_wait();
    pool_->done.arrive_and_wait();

    // Busy time is the workers' mean time from first to last op, so time a
    // worker spends waiting at the round barrier for a slower one (an
    // artifact of checking in rounds) is not counted against the objects.
    std::size_t ops = 0;
    double busy_sum = 0;
    for (WorkerOut& w : out_) {
      ops += w.ops;
      busy_sum += w.busy_s;
      for (const double ms : w.latency_ms) e2e.add_latency(ms);
    }
    e2e.add_work(static_cast<double>(ops),
                 busy_sum / static_cast<double>(threads_));
    objs_ = Round{};  // destroy this round's objects

    if (tr != nullptr) {
      for (WorkerOut& w : out_) {
        tr->merge(w.tracer);
        tr->add("objects.exchanger.ops", static_cast<double>(w.exchanges));
        tr->add("objects.exchanger.swaps", static_cast<double>(w.swaps));
      }
      tr->add("runtime.rounds", 1);
    }
    check_round(unit, e2e, tr);
  }

  void finish_trace(Tracer& tr) override {
    const auto totals = tr.totals_by_name();
    double samples = 0;
    for (int o = 0; o < kObjects; ++o) {
      const auto it = totals.find(kSpanName[o]);
      if (it == totals.end() || it->second.count == 0) continue;
      tr.set(std::string("objects.") + kObjName[o] + ".op_ns",
             it->second.self_s * 1e9 / static_cast<double>(it->second.count));
      samples += static_cast<double>(it->second.count);
    }
    tr.set("objects.op_samples", samples);
    if (const auto it = totals.find("runtime.record"); it != totals.end()) {
      tr.set("runtime.record_ns",
             it->second.self_s * 1e9 / static_cast<double>(it->second.count));
      tr.set("runtime.record_samples", static_cast<double>(it->second.count));
    }
    if (const auto it = totals.find("runtime.check"); it != totals.end()) {
      tr.set("runtime.check_s", it->second.inclusive_s);
    }
    if (const auto it = totals.find("verify"); it != totals.end()) {
      tr.set("verify.s", it->second.self_s);
    }
    const double ex = tr.get("objects.exchanger.ops");
    if (ex > 0) {
      tr.set("objects.exchanger.success_ratio",
             tr.get("objects.exchanger.swaps") / ex);
    }
    runtime::ReclaimStats total;
    for (const auto& r : reclaimers_) {
      const runtime::ReclaimStats s = r->stats();
      total.reclaimed_total += s.reclaimed_total;
      total.retired_high_water =
          std::max(total.retired_high_water, s.retired_high_water);
    }
    tr.set("reclaim.retired_high_water",
           static_cast<double>(total.retired_high_water));
    tr.set("reclaim.reclaimed_total",
           static_cast<double>(total.reclaimed_total));
  }

  [[nodiscard]] std::vector<Alias> aliases(const E2e& /*e2e*/,
                                           const Summary& s) const override {
    return {{"runtime_ops_per_s", s.throughput, "1/s"},
            {"runtime_threads", static_cast<double>(threads_), "count"}};
  }

 private:
  struct Pool {
    explicit Pool(std::size_t parties) : start(parties), done(parties) {}
    std::barrier<> start;
    std::barrier<> done;
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;  // declared last: uses the above
  };

  void fresh_reclaimers() {
    for (auto& r : reclaimers_) r = std::make_unique<runtime::EbrReclaimer>();
  }

  void start_pool() {
    pool_ = std::make_unique<Pool>(threads_ + 1);
    for (std::size_t i = 0; i < threads_; ++i) {
      pool_->threads.emplace_back([this, i] {
        for (;;) {
          pool_->start.arrive_and_wait();
          if (pool_->stop.load()) return;
          work(static_cast<runtime::ThreadId>(i));
          pool_->done.arrive_and_wait();
        }
      });
    }
  }

  void stop_pool() {
    if (!pool_) return;
    pool_->stop.store(true);
    pool_->start.arrive_and_wait();
    for (std::thread& t : pool_->threads) t.join();
    pool_.reset();
  }

  /// One worker's batch: a seeded mix over the four objects. A thread pops
  /// a container only while it has pushed more than it popped there, so no
  /// pop ever waits on an empty container.
  void work(runtime::ThreadId tid) {
    WorkerOut& out = out_[tid];
    Tracer* tr = traced_ ? &out.tracer : nullptr;
    Rng rng(seed_ ^ (0x51ed270b27f4a3c5ull * (round_ + 1)) ^
            (0x2545f4914f6cdd1dull * (tid + 1)));
    std::size_t owed[kObjects] = {};
    std::int64_t next = (static_cast<std::int64_t>(round_ + 1) << 32) |
                        (static_cast<std::int64_t>(tid) << 24);
    const auto begin = Clock::now();

    // One recorded call; `insert` picks push/enq over pop/deq. Sampled
    // calls are timed: untraced end to end, traced per layer.
    auto one = [&](Obj o, bool insert, bool sampled, std::uint64_t req) {
      Tracer* span_tracer = sampled ? tr : nullptr;
      const bool timed = sampled && tr == nullptr;
      runtime::Recorder& rec = *recorders_[o];
      const Symbol method = method_[o][insert ? 1 : 0];
      const bool offers = insert || o == kExchanger;
      const std::int64_t v = offers ? next++ : 0;
      const Value arg = offers ? Value::integer(v) : Value::unit();

      const auto t0 = timed ? Clock::now() : Clock::time_point{};
      ScopedSpan root(span_tracer, "runtime.op", req);
      {
        ScopedSpan s(span_tracer, "runtime.record", req);
        rec.invoke(tid, sym_[o], method, arg);
      }
      Value ret;
      {
        ScopedSpan s(span_tracer, kSpanName[o], req);
        ret = call(o, insert, tid, v, out);
      }
      {
        ScopedSpan s(span_tracer, "runtime.record", req);
        rec.respond(tid, sym_[o], method, ret);
      }
      if (timed) {
        out.latency_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
      ++out.ops;
    };

    for (std::size_t k = 0; k < batch_; ++k) {
      const auto o = static_cast<Obj>(rng.below(kObjects));
      bool push = true;
      if (o != kExchanger) {
        push = owed[o] == 0 || (owed[o] < kMaxOwed && rng.chance(0.5));
        owed[o] = push ? owed[o] + 1 : owed[o] - 1;
      }
      const std::uint64_t req = (static_cast<std::uint64_t>(tid) << 32) | k;
      one(o, push, k % kSampleEvery == 0, req);
    }
    for (int o = kTreiber; o <= kElim; ++o) {
      for (; owed[o] > 0; --owed[o]) one(static_cast<Obj>(o), false, false, 0);
    }
    out.busy_s = seconds_between(begin, Clock::now());
  }

  /// The object call itself; returns what the call returned.
  Value call(Obj o, bool insert, runtime::ThreadId tid, std::int64_t v,
             WorkerOut& out) {
    auto popped = [](objects::PopResult r) {
      return Value::pair(r.ok, r.value);
    };
    switch (o) {
      case kTreiber:
        if (!insert) return popped(objs_.treiber->pop(tid));
        objs_.treiber->push(tid, v);
        return Value::boolean(true);
      case kMsQueue:
        if (!insert) return popped(objs_.queue->deq(tid));
        objs_.queue->enq(tid, v);
        return Value::boolean(true);
      case kElim:
        if (!insert) return popped(objs_.elim->pop(tid));
        return Value::boolean(objs_.elim->push(tid, v));
      default: {
        const objects::ExchangeResult x =
            objs_.exchanger->exchange(tid, v, kExchangeSpins);
        ++out.exchanges;
        if (x.ok) ++out.swaps;
        return Value::pair(x.ok, x.value);
      }
    }
  }

  /// The round's oracle: no drops, conservation on every round, and a full
  /// CAL check with a verified witness on every kCheckEvery-th round.
  void check_round(std::size_t unit, E2e& e2e, Tracer* tr) {
    const std::string where = "round " + std::to_string(unit);
    bool failed = false;
    auto fail = [&](const std::string& why) {
      if (!failed) e2e.fail(where + ": " + why, threads_);
      failed = true;
    };
    for (int o = 0; o < kObjects; ++o) {
      const runtime::Recorder& rec = *recorders_[o];
      if (tr != nullptr) {
        tr->add("runtime.recorded_actions", static_cast<double>(rec.size()));
        tr->add("runtime.dropped", static_cast<double>(rec.dropped()));
      }
      if (rec.dropped() != 0) {
        fail(std::string(kObjName[o]) + " recorder dropped " +
             std::to_string(rec.dropped()) + " actions");
        continue;
      }
      const History h = rec.snapshot();
      if (auto why = conservation(static_cast<Obj>(o), h)) {
        fail(std::string(kObjName[o]) + ": " + *why);
        continue;
      }
      const bool check = unit % kCheckEvery == 0;
      if (!check) continue;
      ScopedSpan check_span(tr, "runtime.check", unit);
      CalCheckOptions copts;
      copts.max_visited = 1u << 22;
      const CalCheckResult r = CalChecker(*spec_[o], copts).check(h);
      check_span.close();
      const bool expect_ok = !(opt_.mislabel && o == kTreiber);
      if (r.exhausted) {
        fail(std::string(kObjName[o]) + ": max_visited cap tripped");
      } else if (r.ok != expect_ok) {
        fail(std::string(kObjName[o]) + ": recorded history " +
             (r.ok ? "ACCEPTED" : "REJECTED") + ", expected " +
             (expect_ok ? "ACCEPT" : "REJECT"));
      } else if (r.ok) {
        ScopedSpan verify_span(tr, "verify", unit);
        if (auto why = verify_witness(h, *r.witness, *spec_[o])) {
          fail(std::string(kObjName[o]) + ": " + *why);
        }
        if (tr != nullptr) tr->add("verify.witnesses", 1);
      }
    }
    if (tr != nullptr && unit % kCheckEvery == 0) {
      tr->add("runtime.checked_rounds", 1);
    }
  }

  /// Linear checks every round gets: the containers end empty and every
  /// popped value was pushed exactly once; successful exchanges pair up.
  static std::optional<std::string> conservation(Obj o, const History& h) {
    if (!h.well_formed() || !h.complete()) return "history is not complete";
    std::map<std::int64_t, int> balance;
    std::map<std::int64_t, std::int64_t> swapped;  // offer -> received
    for (const Action& a : h.actions()) {
      if (o == kExchanger) continue;
      if (a.is_invoke() && a.payload.kind() == Value::Kind::kInt) {
        ++balance[a.payload.as_int()];
      } else if (a.is_respond() && a.payload.kind() == Value::Kind::kPair) {
        if (!a.payload.pair_ok()) return "a pop found the container empty";
        --balance[a.payload.pair_int()];
      }
    }
    for (const auto& [v, n] : balance) {
      if (n != 0) return "value " + std::to_string(v) + " not conserved";
    }
    if (o != kExchanger) return std::nullopt;
    for (const OpRecord& r : h.operations()) {
      const Value& ret = *r.op.ret;
      if (ret.pair_ok()) {
        swapped[r.op.arg.as_int()] = ret.pair_int();
      } else if (ret.pair_int() != r.op.arg.as_int()) {
        return "a failed exchange did not return its own offer";
      }
    }
    for (const auto& [mine, got] : swapped) {
      const auto it = swapped.find(got);
      if (it == swapped.end() || it->second != mine) {
        return "exchange of " + std::to_string(mine) + " has no partner";
      }
    }
    return std::nullopt;
  }

  Options opt_;
  std::size_t threads_;
  Symbol sym_[kObjects];
  Symbol method_[kObjects][2];  ///< [object][insert]: pop/push, deq/enq
  std::shared_ptr<SequentialSpec> seq_[kObjects];
  std::shared_ptr<CaSpec> spec_[kObjects];
  std::unique_ptr<runtime::EbrReclaimer> reclaimers_[kObjects];
  std::unique_ptr<runtime::Recorder> recorders_[kObjects];
  std::uint64_t seed_ = 0;
  std::size_t batch_ = 0;
  // Round state the workers read after the start barrier.
  std::size_t round_ = 0;
  bool traced_ = false;
  Round objs_;
  std::vector<WorkerOut> out_;
  std::unique_ptr<Pool> pool_;  // declared last: its threads use the above
};

}  // namespace

std::unique_ptr<Workload> make_runtime_record(const Options& opt) {
  return std::make_unique<RuntimeRecord>(opt);
}

}  // namespace perfbench
