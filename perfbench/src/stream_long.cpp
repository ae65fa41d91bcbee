// Workload stream-long: one long seeded stream, replayed closed-loop line
// by line through parse_action_line and IncrementalChecker::push (window
// 16), as `cal_check --follow < file` does. The stream mixes one exchanger
// and one FIFO queue of at most four values under a UnionCaSpec, with at
// most two operations open at once (wider overlap makes the frontier, and
// with it peak memory, depend on the seed far more than on the code). The
// stream is about 32k actions long. One unit is one full replay with a fresh
// checker; the window latency is the duration of the push that closes a
// window (the verdict lag).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cal/engine/incremental.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/union_spec.hpp"
#include "cal/text.hpp"
#include "gen.hpp"
#include "stream_feed.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace cal;  // NOLINT: benchmark file

constexpr std::size_t kWindow = 16;
constexpr std::size_t kWidth = 2;
constexpr std::size_t kQuiesceEvery = 48;
/// Per-window node cap; tripping it is a failed unit.
constexpr std::size_t kMaxVisited = 1u << 22;

class StreamLong final : public Workload {
 public:
  explicit StreamLong(const Options& opt)
      : opt_(opt),
        spec_({{Symbol{"E"}, std::make_shared<ExchangerSpec>(Symbol{"E"})},
               {Symbol{"Q"}, std::make_shared<SeqAsCaSpec>(
                                 std::make_shared<QueueSpec>(Symbol{"Q"}))}}) {}

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    const std::size_t elements = opt_.tiny ? 300 : 12000;
    std::int64_t next = 1;
    const Plan xchg = plan_exchanger(Symbol{"E"}, elements / 2, next, rng);
    const Plan queue = plan_queue(Symbol{"Q"}, elements - elements / 2, 4,
                                  next, rng);
    // The objects are independent, so any merge of the two plans that keeps
    // each one's order is a trace of the union spec.
    Plan plan;
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < xchg.size() || b < queue.size()) {
      const bool take_x =
          b == queue.size() || (a < xchg.size() && rng.chance(0.5));
      plan.push_back(take_x ? xchg[a++] : queue[b++]);
    }
    Generated g = interleave(plan, kWidth, kQuiesceEvery, rng);
    history_ = std::move(g.history);
    quiescent_ = std::move(g.quiescent);
    lines_.clear();
    const std::string text = format_history(history_);
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines_.push_back(text.substr(start, end - start));
      start = end + 1;
    }
    expect_ok_ = !opt_.mislabel;
  }

  [[nodiscard]] std::size_t units_per_pass() const override { return 1; }

  void run_unit(std::size_t unit, E2e& e2e, Tracer* tr) override {
    ++e2e.attempted;
    engine::IncrementalOptions io;
    io.window = kWindow;
    io.max_visited = kMaxVisited;
    std::size_t actions = 0;
    bool parse_failed = false;

    const auto t0 = Clock::now();
    ScopedSpan root(tr, "stream", unit);
    StreamFeed feed(spec_, io, tr);
    const engine::IncrementalChecker& checker = feed.checker();
    for (const std::string& line : lines_) {
      ScopedSpan parse_span(tr, "text.parse", feed.windows() + 1);
      ParseResult<std::optional<Action>> parsed = parse_action_line(line);
      parse_span.close();
      if (!parsed) {
        parse_failed = true;
        break;
      }
      if (!*parsed.value) continue;
      ++actions;
      if (const auto us = feed.push(**parsed.value, feed.windows() + 1)) {
        e2e.add_latency(*us * 1e-3);
      }
      if (!checker.status().ok) break;
    }
    feed.finish(feed.windows() + 1);
    const auto t1 = Clock::now();
    root.close();
    e2e.add_work(static_cast<double>(actions), seconds_between(t0, t1));

    const engine::IncrementalStatus& s = checker.status();
    if (tr != nullptr) {
      tr->add("text.parse_bytes", static_cast<double>(bytes()));
      feed.record();
      last_series_ = feed.window_us();
    }

    ScopedSpan verify_span(tr, "verify", unit);
    if (parse_failed) {
      e2e.fail("stream line did not parse");
    } else if (s.exhausted) {
      e2e.fail("stream: max_visited cap tripped (inconclusive)");
    } else if (s.ok != expect_ok_) {
      e2e.fail(std::string("stream verdict ") + (s.ok ? "ACCEPT" : "REJECT") +
               ", expected " + (expect_ok_ ? "ACCEPT" : "REJECT") +
               (s.ok ? "" : " (" + s.reason + ")"));
    } else if (actions != history_.size()) {
      e2e.fail("stream: consumed " + std::to_string(actions) + " of " +
               std::to_string(history_.size()) + " actions");
    } else if (s.ok) {
      const std::optional<CaTrace> w = checker.witness();
      if (!w) {
        e2e.fail("stream accepted without a witness");
      } else if (auto why =
                     verify_witness_segmented(history_, quiescent_, *w, spec_)) {
        e2e.fail("stream witness: " + *why);
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
    if (tr.get("text.parse_s") > 0) {
      tr.set("text.parse_bytes_per_s",
             tr.get("text.parse_bytes") / tr.get("text.parse_s"));
    }
    tr.set("incremental.window_s", self("incremental.window"));
    tr.set("incremental.push_s",
           self("incremental.push") + self("incremental.window"));
    tr.set("incremental.finish_s", self("incremental.finish"));
    tr.set("verify.s", self("verify"));
    finish_window_series(tr);
    // The per-window series of the last traced replay, in tenths (printed)
    // and in full (written beside the spans).
    const std::size_t n = last_series_.size();
    for (std::size_t d = 0; d < 10 && n >= 10; ++d) {
      double sum = 0;
      const std::size_t lo = d * n / 10;
      const std::size_t hi = (d + 1) * n / 10;
      for (std::size_t i = lo; i < hi; ++i) sum += last_series_[i];
      char name[64];
      std::snprintf(name, sizeof name, "stream.window_us.tenth_%02zu", d + 1);
      tr.set(name, sum / static_cast<double>(hi - lo));
    }
    const std::string path = opt_.out_dir + "/stream-long.windows.tsv";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "window\twindow_us\n");
      for (std::size_t i = 0; i < n; ++i) {
        std::fprintf(f, "%zu\t%.3f\n", i + 1, last_series_[i]);
      }
      std::fclose(f);
    }
  }

  [[nodiscard]] std::vector<Alias> aliases(const E2e& /*e2e*/,
                                           const Summary& s) const override {
    return {{"stream_actions_per_s", s.throughput, "1/s"},
            {"window_latency_p50_us", s.p50_ms * 1e3, "us"},
            {"window_latency_p99_us", s.p99_ms * 1e3, "us"},
            {"stream_actions", static_cast<double>(history_.size()),
             "count"}};
  }

 private:
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = 0;
    for (const std::string& l : lines_) n += l.size() + 1;
    return n;
  }

  Options opt_;
  UnionCaSpec spec_;
  History history_;
  std::vector<std::size_t> quiescent_;
  std::vector<std::string> lines_;
  bool expect_ok_ = true;
  std::vector<double> last_series_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_long(const Options& opt) {
  return std::make_unique<StreamLong>(opt);
}

}  // namespace perfbench
