// Workload check-corpus: a closed loop, on one thread, over a seeded corpus
// of history texts, one check after another, exactly the `cal_check` path:
// parse_history → History::well_formed → CalChecker::check (or LinChecker
// for `--checker lin`). The corpus is stratified: every spec family meets
// every overlap width equally often, one history in ten is mutated to be
// REJECTED, and the order is shuffled by the seed.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cal/cal_checker.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/priority_queue_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "cal/text.hpp"
#include "gen.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace cal;  // NOLINT: benchmark file

enum Family { kExchanger, kSyncQueue, kStack, kQueue, kPq, kFamilies };

constexpr const char* kFamilyName[kFamilies] = {"exchanger", "sync_queue",
                                                "stack", "queue", "pq"};

/// A tripped cap is a failed unit, never a REJECT.
constexpr std::size_t kMaxVisited = 1u << 21;

struct Entry {
  Family family;
  bool lin;  ///< checked by LinChecker (stack and queue only)
  bool expect_ok;
  std::size_t actions;
  std::string text;
};

class CheckCorpus final : public Workload {
 public:
  explicit CheckCorpus(const Options& opt) : opt_(opt) {
    seq_[kStack] = std::make_shared<StackSpec>(Symbol{"S"});
    seq_[kQueue] = std::make_shared<QueueSpec>(Symbol{"Q"});
    ca_[kExchanger] = std::make_shared<ExchangerSpec>(Symbol{"E"});
    ca_[kSyncQueue] = std::make_shared<SyncQueueSpec>(Symbol{"Y"});
    ca_[kStack] = std::make_shared<SeqAsCaSpec>(seq_[kStack]);
    ca_[kQueue] = std::make_shared<SeqAsCaSpec>(seq_[kQueue]);
    ca_[kPq] = std::make_shared<PriorityQueueCaSpec>(Symbol{"P"});
  }

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    const std::size_t per_cell = opt_.tiny ? 10 : 400;
    const std::size_t elements = opt_.tiny ? 8 : 20;
    entries_.clear();
    for (int f = 0; f < kFamilies; ++f) {
      const auto fam = static_cast<Family>(f);
      for (std::size_t width = 2; width <= 5; ++width) {
        for (std::size_t i = 0; i < per_cell; ++i) {
          std::int64_t next = 1;
          Plan plan;
          switch (fam) {
            case kExchanger:
              plan = plan_exchanger(Symbol{"E"}, elements, next, rng);
              break;
            case kSyncQueue:
              plan = plan_sync_queue(Symbol{"Y"}, elements, next, rng);
              break;
            case kStack:
              plan = plan_stack(Symbol{"S"}, elements, 3, next, rng);
              break;
            case kQueue:
              plan = plan_queue(Symbol{"Q"}, elements, 4, next, rng);
              break;
            default:
              plan = plan_pq(Symbol{"P"}, elements, next, rng);
              break;
          }
          Generated g = interleave(plan, width, 0, rng);
          // Every tenth history of a cell is mutated: expected REJECT.
          const bool reject = i % 10 == 9 && mutate_impossible(g.history, rng);
          std::string text = format_history(g.history);
          const std::size_t n = g.history.size();
          if (fam == kStack || fam == kQueue) {
            entries_.push_back(Entry{fam, true, !reject, n, text});
          }
          entries_.push_back(Entry{fam, false, !reject, n, std::move(text)});
        }
      }
    }
    for (std::size_t i = entries_.size(); i > 1; --i) {
      std::swap(entries_[i - 1], entries_[rng.below(i)]);
    }
    if (opt_.mislabel) entries_[0].expect_ok = !entries_[0].expect_ok;
  }

  [[nodiscard]] std::size_t units_per_pass() const override {
    return entries_.size();
  }

  void run_unit(std::size_t unit, E2e& e2e, Tracer* tr) override {
    const Entry& e = entries_[unit];
    ++e2e.attempted;
    bool ok = false;
    bool exhausted = false;
    std::optional<CaTrace> witness;

    const auto t0 = Clock::now();
    ScopedSpan root(tr, "check", unit);
    ScopedSpan parse_span(tr, "text.parse", unit);
    ParseResult<History> parsed = parse_history(e.text);
    parse_span.close();
    if (tr != nullptr) {
      tr->add("text.parse_bytes", static_cast<double>(e.text.size()));
    }
    if (!parsed) {
      e2e.fail("corpus entry " + std::to_string(unit) + " did not parse");
      return;
    }
    const History& h = *parsed.value;
    ScopedSpan wf_span(tr, "history.wellformed", unit);
    const bool wf = h.well_formed();
    wf_span.close();
    if (!wf) {
      e2e.fail("corpus entry " + std::to_string(unit) + " is not well-formed");
      return;
    }
    if (e.lin) {
      ScopedSpan span(tr, "lin.check", unit);
      LinCheckOptions lopts;
      lopts.max_visited = kMaxVisited;
      const LinCheckResult r = LinChecker(*seq_[e.family], lopts).check(h);
      span.close();
      ok = r.ok;
      exhausted = r.exhausted;
      if (r.ok && r.witness) {
        CaTrace t;
        for (const Operation& op : *r.witness) {
          t.append(CaElement::singleton(op.object, op));
        }
        witness = std::move(t);
      }
      if (tr != nullptr) tr->add("lin.checks", 1);
    } else {
      ScopedSpan span(tr, "checker.engine", unit);
      CalCheckOptions copts;
      copts.max_visited = kMaxVisited;
      CalCheckResult r = CalChecker(*ca_[e.family], copts).check(h);
      if (r.order_checked) span.rename("checker.order");
      const double s = span.close();
      ok = r.ok;
      exhausted = r.exhausted;
      witness = std::move(r.witness);
      if (tr != nullptr) record_cal(*tr, e, r, s);
    }
    const auto t1 = Clock::now();
    root.close();

    e2e.add_work(static_cast<double>(e.actions), seconds_between(t0, t1));
    e2e.add_latency(seconds_between(t0, t1) * 1e3);

    // The oracle (outside the timed region).
    ScopedSpan verify_span(tr, "verify", unit);
    const std::string where = std::string(kFamilyName[e.family]) +
                              (e.lin ? " lin" : " cal") + " entry " +
                              std::to_string(unit);
    if (exhausted) {
      e2e.fail(where + ": max_visited cap tripped (inconclusive)");
    } else if (ok != e.expect_ok) {
      e2e.fail(where + ": verdict " + (ok ? "ACCEPT" : "REJECT") +
               ", expected " + (e.expect_ok ? "ACCEPT" : "REJECT"));
    } else if (ok) {
      if (!witness) {
        e2e.fail(where + ": accepted without a witness");
      } else if (auto why = verify_witness(h, *witness, *ca_[e.family])) {
        e2e.fail(where + ": " + *why);
      }
      if (tr != nullptr) tr->add("verify.witnesses", 1);
    }
  }

  void finish_trace(Tracer& tr) override {
    const auto totals = tr.totals_by_name();
    auto self = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self_s;
    };
    tr.set("text.parse_s", self("text.parse"));
    tr.set("history.wellformed_s", self("history.wellformed"));
    tr.set("checker.engine_s", self("checker.engine"));
    tr.set("order.s", self("checker.order"));
    tr.set("lin.s", self("lin.check"));
    tr.set("verify.s", self("verify"));
    const double parse_s = tr.get("text.parse_s");
    if (parse_s > 0) {
      tr.set("text.parse_bytes_per_s", tr.get("text.parse_bytes") / parse_s);
    }
    const double lookups = tr.get("checker.step_cache_lookups");
    if (lookups > 0) {
      tr.set("checker.step_cache_hit_ratio",
             tr.get("checker.step_cache_hits") / lookups);
    }
    const double checks = tr.get("checker.checks");
    if (checks > 0) tr.set("order.share", tr.get("order.checks") / checks);
  }

  [[nodiscard]] std::vector<Alias> aliases(const E2e& /*e2e*/,
                                           const Summary& s) const override {
    return {{"check_actions_per_s", s.throughput, "1/s"},
            {"check_latency_p50_ms", s.p50_ms, "ms"},
            {"check_latency_p99_ms", s.p99_ms, "ms"},
            {"corpus_entries", static_cast<double>(entries_.size()), "count"}};
  }

 private:
  void record_cal(Tracer& tr, const Entry& e, const CalCheckResult& r,
                  double seconds) const {
    tr.add("checker.checks", 1);
    tr.add(std::string("checker.spec.") + kFamilyName[e.family] + "_s",
           seconds);
    if (r.order_checked) {
      tr.add("order.checks", 1);
      tr.add("order.values", static_cast<double>(r.order_values));
      tr.add("order.zones", static_cast<double>(r.order_zones));
      tr.add("order.bumps", static_cast<double>(r.order_bumps));
      return;
    }
    tr.add(r.ok ? "checker.accept_s" : "checker.reject_s", seconds);
    tr.add("checker.visited_states", static_cast<double>(r.visited_states));
    tr.add("checker.fired_elements", static_cast<double>(r.fired_elements));
    tr.max("checker.visited_bytes_max", static_cast<double>(r.visited_bytes));
    tr.add("checker.step_cache_lookups",
           static_cast<double>(r.step_cache_hits + r.step_cache_misses));
    tr.add("checker.step_cache_hits", static_cast<double>(r.step_cache_hits));
    tr.add("checker.pruned_subsets", static_cast<double>(r.pruned_subsets));
    if (r.exhausted) tr.add("checker.exhausted", 1);
  }

  Options opt_;
  std::shared_ptr<SequentialSpec> seq_[kFamilies];
  std::shared_ptr<CaSpec> ca_[kFamilies];
  std::vector<Entry> entries_;
};

}  // namespace

std::unique_ptr<Workload> make_check_corpus(const Options& opt) {
  return std::make_unique<CheckCorpus>(opt);
}

}  // namespace perfbench
