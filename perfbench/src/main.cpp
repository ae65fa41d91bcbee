// cal_perfbench — the end-to-end benchmark binary (see ../README.md).
//
//   cal_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--commit SHA] [--out-dir DIR] [--tiny] [--mislabel]
//
// Set-up runs several times and reports its median (setup_s). With
// --trace 0 the workload then runs untraced for S seconds and the
// end-to-end metrics are printed. With --trace 1 it alternates an untraced
// and a traced pass over the same inputs until S seconds are used, and
// prints the per-layer metrics of the last traced pass plus the tracing
// overhead; the spans go to DIR. The last line of stdout is always the
// JSON result: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void E2e::close_slice() {
  if (slice_busy_s_ <= 0) return;
  slices.push_back(Summary{slice_work_ / slice_busy_s_,
                           percentile(slice_latency_ms_, 0.5),
                           percentile(slice_latency_ms_, 0.99)});
  slice_work_ = 0;
  slice_busy_s_ = 0;
  slice_seen_ = 0;
  slice_latency_ms_.clear();
}

Summary E2e::summary() const {
  std::vector<double> t, p50, p99s;
  for (const Summary& s : slices) {
    t.push_back(s.throughput);
    p50.push_back(s.p50_ms);
    p99s.push_back(s.p99_ms);
  }
  // The pooled p99 needs ten samples beyond it; a run with fewer (the
  // explorer suite times a handful of configurations per pass) reports the
  // median slice p99 instead, i.e. its typical slowest unit.
  const double p99 = latency_seen >= kPooledP99Samples
                         ? percentile(run_latency_ms_, 0.99)
                         : median(p99s);
  return Summary{median(t), median(p50), p99};
}

namespace {

/// Busy time per slice of a timed run (see E2e).
constexpr double kSliceSeconds = 0.5;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them. Each
// traced run prints all of them; a layer a workload bypasses reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"text.parse_s", "s"},
    {"text.parse_bytes", "bytes"},
    {"text.parse_bytes_per_s", "B/s"},
    {"history.wellformed_s", "s"},
    {"checker.engine_s", "s"},
    {"checker.accept_s", "s"},
    {"checker.reject_s", "s"},
    {"checker.checks", "count"},
    {"checker.visited_states", "count"},
    {"checker.fired_elements", "count"},
    {"checker.visited_bytes_max", "bytes"},
    {"checker.step_cache_lookups", "count"},
    {"checker.step_cache_hit_ratio", "ratio"},
    {"checker.pruned_subsets", "count"},
    {"checker.exhausted", "count"},
    {"checker.spec.exchanger_s", "s"},
    {"checker.spec.sync_queue_s", "s"},
    {"checker.spec.stack_s", "s"},
    {"checker.spec.queue_s", "s"},
    {"checker.spec.pq_s", "s"},
    {"order.s", "s"},
    {"order.checks", "count"},
    {"order.share", "ratio"},
    {"order.values", "count"},
    {"order.zones", "count"},
    {"order.bumps", "count"},
    {"lin.s", "s"},
    {"lin.checks", "count"},
    {"incremental.push_s", "s"},
    {"incremental.window_s", "s"},
    {"incremental.finish_s", "s"},
    {"incremental.streams", "count"},
    {"incremental.windows", "count"},
    {"incremental.visited_states", "count"},
    {"incremental.frontier_max", "count"},
    {"incremental.active_ops_max", "count"},
    {"incremental.retired_ops", "count"},
    {"incremental.window_us_first_tenth", "us"},
    {"incremental.window_us_last_tenth", "us"},
    {"incremental.window_growth", "ratio"},
    {"explorer.run_s", "s"},
    {"explorer.xchg4.run_s", "s"},
    {"explorer.xchg4-por.run_s", "s"},
    {"explorer.xchg5-sym.run_s", "s"},
    {"explorer.msq-tso.run_s", "s"},
    {"explorer.stack-recycle.run_s", "s"},
    {"explorer.violation.run_s", "s"},
    {"explorer.xchg2-1-enum-check.run_s", "s"},
    {"explorer.xchg4-jobs.run_s", "s"},
    {"explorer.states", "count"},
    {"explorer.transitions", "count"},
    {"explorer.merged", "count"},
    {"explorer.terminals", "count"},
    {"explorer.ns_per_transition", "ns"},
    {"explorer.por_pruned", "count"},
    {"explorer.symmetry_merged", "count"},
    {"explorer.flush_steps", "count"},
    {"explorer.recycled_allocs", "count"},
    {"explorer.offline_check_s", "s"},
    {"explorer.replay_s", "s"},
    {"parallel.threads", "count"},
    {"parallel.explore_speedup", "ratio"},
    {"parallel.explore_efficiency", "ratio"},
    {"objects.treiber.op_ns", "ns"},
    {"objects.msqueue.op_ns", "ns"},
    {"objects.elimstack.op_ns", "ns"},
    {"objects.exchanger.op_ns", "ns"},
    {"objects.op_samples", "count"},
    {"objects.exchanger.ops", "count"},
    {"objects.exchanger.success_ratio", "ratio"},
    {"runtime.record_ns", "ns"},
    {"runtime.record_samples", "count"},
    {"runtime.recorded_actions", "count"},
    {"runtime.dropped", "count"},
    {"runtime.check_s", "s"},
    {"runtime.rounds", "count"},
    {"runtime.checked_rounds", "count"},
    {"reclaim.retired_high_water", "count"},
    {"reclaim.reclaimed_total", "count"},
    {"verify.s", "s"},
    {"verify.witnesses", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.untraced_s", "s"},
    {"trace.traced_s", "s"},
    {"trace.spans", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: cal_perfbench --workload check-corpus|stream-long|"
               "explore-suite|runtime-record\n"
               "         --seed N --seconds S --trace 0|1 [--commit SHA]\n"
               "         [--out-dir DIR] [--tiny] [--mislabel]\n");
  return 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// JSON string escaping for the few free-form strings we print.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Printed {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<Printed>& metrics, std::size_t attempted,
                  std::size_t failed) {
  for (const Printed& m : metrics) {
    std::printf("metric %s = %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_share = %.17g (%zu failed of %zu units)\n",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              failed, attempted);
  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
            value + ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_failures(const E2e& e) {
  for (const std::string& note : e.failure_notes) {
    std::printf("FAILED: %s\n", note.c_str());
  }
}

int run(const Options& opt, const std::string& commit) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "cal_perfbench: refusing to record from a build without "
               "NDEBUG (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  std::unique_ptr<Workload> w;
  if (opt.workload == "check-corpus") {
    w = make_check_corpus(opt);
  } else if (opt.workload == "stream-long") {
    w = make_stream_long(opt);
  } else if (opt.workload == "explore-suite") {
    w = make_explore_suite(opt);
  } else if (opt.workload == "runtime-record") {
    w = make_runtime_record(opt);
  } else {
    return usage();
  }

  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"num_cpus\": %u, \"compiler\": %s, "
      "\"git_commit\": %s, \"build_type\": \"release\"%s}\n",
      quoted(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      quoted(compiler()).c_str(), quoted(commit).c_str(),
      opt.tiny ? ", \"tiny\": true" : "");

  // Set-up: timed in batches of at least 20 ms (a set-up of microseconds
  // is repeated within a batch), at least 3 batches and 0.3 s in all; the
  // median batch's time per set-up is reported, so neither one slow start
  // nor timer jitter decides it.
  std::vector<double> setups;
  double setup_total = 0;
  while (setups.size() < 3 || setup_total < 0.3) {
    const auto t0 = Clock::now();
    std::size_t calls = 0;
    double batch = 0;
    while (batch < 0.02) {
      w->setup(opt.seed);
      ++calls;
      batch = seconds_between(t0, Clock::now());
    }
    setups.push_back(batch / static_cast<double>(calls));
    setup_total += batch;
  }
  const double setup_s = median(setups);
  const std::size_t upp = w->units_per_pass();
  const auto start = Clock::now();

  if (!opt.trace) {
    E2e e;
    // Slices and the run end only at pass boundaries, so every slice
    // holds whole passes over the same inputs.
    for (std::size_t unit = 0;;) {
      w->run_unit(unit % upp, e, nullptr);
      if (++unit % upp != 0) continue;
      if (e.slice_busy_s() >= kSliceSeconds) e.close_slice();
      if (seconds_between(start, Clock::now()) >= opt.seconds) break;
    }
    // A short last slice only counts when it is the only one.
    if (e.slices.empty() || e.slice_busy_s() >= kSliceSeconds / 2) {
      e.close_slice();
    }
    const Summary s = e.summary();
    print_failures(e);
    for (const Alias& a : w->aliases(e, s)) {
      std::printf("alias %s = %.17g %s\n", a.name.c_str(), a.value,
                  a.unit.c_str());
    }
    std::printf("slices = %zu, latency samples = %zu, busy = %.3f s\n",
                e.slices.size(), e.latency_seen, e.busy_s);
    for (std::size_t i = 0; i < e.slices.size(); ++i) {
      std::printf("slice %zu: throughput %.6g/s p50 %.6g ms p99 %.6g ms\n", i,
                  e.slices[i].throughput, e.slices[i].p50_ms,
                  e.slices[i].p99_ms);
    }
    print_result({{"throughput_per_s", s.throughput, "1/s"},
                  {"latency_p50_ms", s.p50_ms, "ms"},
                  {"latency_p99_ms", s.p99_ms, "ms"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"},
                  {"setup_s", setup_s, "s"}},
                 e.attempted, e.failed);
    return 0;
  }

  // Traced run: untraced and traced passes over the same inputs, in pairs.
  std::vector<double> ratios;
  Tracer last;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double untraced_s = 0;
  double traced_s = 0;
  for (std::size_t pairs = 1;; ++pairs) {
    E2e eu;
    for (std::size_t u = 0; u < upp; ++u) w->run_unit(u, eu, nullptr);
    Tracer tr;
    E2e et;
    for (std::size_t u = 0; u < upp; ++u) w->run_unit(u, et, &tr);
    print_failures(eu);
    print_failures(et);
    attempted += eu.attempted + et.attempted;
    failed += eu.failed + et.failed;
    untraced_s = eu.busy_s;
    traced_s = et.busy_s;
    if (untraced_s > 0) ratios.push_back(traced_s / untraced_s);
    last = std::move(tr);
    // Stop unless another pair of the average length still fits.
    const double elapsed = seconds_between(start, Clock::now());
    if (elapsed * static_cast<double>(pairs + 1) /
            static_cast<double>(pairs) >
        opt.seconds) {
      break;
    }
  }
  w->finish_trace(last);
  last.set("trace.overhead_ratio", median(ratios));
  last.set("trace.untraced_s", untraced_s);
  last.set("trace.traced_s", traced_s);
  last.set("trace.spans", static_cast<double>(last.spans().size()));

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string spans_path = opt.out_dir + "/" + opt.workload + ".spans.tsv";
  if (!last.write(spans_path)) {
    std::fprintf(stderr, "cal_perfbench: cannot write %s\n",
                 spans_path.c_str());
    return 1;
  }
  std::printf("spans written to %s\n", spans_path.c_str());
  std::printf("trace passes = %zu\n", ratios.size());
  for (const auto& [name, t] : last.totals_by_name()) {
    std::printf("span %-28s count %8zu  inclusive %.6f s  self %.6f s\n",
                name.c_str(), t.count, t.inclusive_s, t.self_s);
  }
  std::vector<Printed> metrics;
  for (const MetricDef& m : kLayerMetrics) {
    metrics.push_back({m.name, last.get(m.name), m.unit});
  }
  print_result(metrics, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--mislabel") {
      opt.mislabel = true;
    } else {
      return perfbench::usage();
    }
  }
  if (!have_workload || opt.seconds <= 0) return perfbench::usage();
  return perfbench::run(opt, commit);
}
