// Shared pieces of the end-to-end benchmark binary: clocks, the seeded
// generator RNG, percentiles, end-to-end accounting and the workload
// interface every named workload implements.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: tiny, seedable, and identical on every platform, so one
/// seed always generates the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(double p) {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t s_;
};

/// Linear-interpolation percentile (q in [0, 1]); 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs (the self-test): every workload still runs every layer.
  bool tiny = false;
  /// Negative control: one expectation is deliberately wrong, so the run
  /// must report failed units.
  bool mislabel = false;
  std::string out_dir = ".bench_build/trace";
};

/// Throughput and latency percentiles of one slice of a timed run.
struct Summary {
  double throughput = 0;  ///< work units per busy second
  double p50_ms = 0;
  double p99_ms = 0;
};

/// End-to-end accounting of the measured work, filled by run_unit.
///
/// A timed run is cut into slices of about half a second of busy time,
/// each of the same content where the workload needs it (whole passes).
/// The run reports the median slice throughput and the median slice p50,
/// so a short slowdown of the shared host does not decide them, and the
/// p99 of all the run's latency samples pooled, so a tail that only some
/// slices show still counts (with fewer than kPooledP99Samples samples, the
/// median slice p99).
struct E2e {
  /// Latency samples kept per slice and for the whole run: a uniform
  /// reservoir beyond this, so memory (and peak RSS) does not grow with the
  /// speed of the code.
  static constexpr std::size_t kReservoir = std::size_t{1} << 17;
  /// Samples a run needs for the pooled p99 (ten beyond it).
  static constexpr std::size_t kPooledP99Samples = 1000;

  double busy_s = 0;  ///< time spent on measured work (oracle excluded)
  std::size_t latency_seen = 0;  ///< latency samples offered, all slices
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failure_notes;  ///< the first few reasons
  std::vector<Summary> slices;

  /// Adds `units` of work (actions, transitions, ops) done in `seconds`.
  void add_work(double units, double seconds) {
    busy_s += seconds;
    slice_work_ += units;
    slice_busy_s_ += seconds;
  }

  void add_latency(double ms) {
    ++latency_seen;
    ++slice_seen_;
    keep(slice_latency_ms_, slice_seen_, ms);
    keep(run_latency_ms_, latency_seen, ms);
  }

  [[nodiscard]] double slice_busy_s() const noexcept { return slice_busy_s_; }

  /// Ends the current slice (no-op when it did no work).
  void close_slice();

  /// Median slice throughput and p50, pooled p99 (see above).
  [[nodiscard]] Summary summary() const;

  void fail(std::string why, std::size_t units = 1) {
    failed += units;
    if (failure_notes.size() < 8) failure_notes.push_back(std::move(why));
  }

 private:
  double slice_work_ = 0;
  double slice_busy_s_ = 0;
  std::size_t slice_seen_ = 0;
  /// Reservoir step: `seen` counts samples offered to `kept`, this one too.
  void keep(std::vector<double>& kept, std::size_t seen, double ms) {
    if (kept.size() < kReservoir) {
      kept.push_back(ms);
    } else if (const std::uint64_t j = reservoir_rng_.below(seen);
               j < kReservoir) {
      kept[j] = ms;
    }
  }

  std::vector<double> slice_latency_ms_;
  std::vector<double> run_latency_ms_;
  Rng reservoir_rng_{0x5eed};
};

/// A named end-to-end figure that is specific to one workload (printed
/// beside the generic metrics, e.g. check_actions_per_s).
struct Alias {
  std::string name;
  double value;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and builds what the measured loop needs. Called
  /// several times (setup_s is their median); the last call's state is used.
  virtual void setup(std::uint64_t seed) = 0;

  /// Units in one pass over the inputs; every run times whole passes.
  [[nodiscard]] virtual std::size_t units_per_pass() const = 0;

  /// Runs unit `unit` (< units_per_pass()), checks its outcome, and adds it
  /// to `e2e`. With `tracer` set it also records spans and layer counters.
  virtual void run_unit(std::size_t unit, E2e& e2e, Tracer* tracer) = 0;

  /// Derives ratio metrics once a traced pass is complete.
  virtual void finish_trace(Tracer& /*tracer*/) {}

  /// Workload-specific names for the end-to-end figures of a timed run.
  [[nodiscard]] virtual std::vector<Alias> aliases(const E2e& e2e,
                                                   const Summary& s) const = 0;
};

std::unique_ptr<Workload> make_check_corpus(const Options& opt);
std::unique_ptr<Workload> make_stream_long(const Options& opt);
std::unique_ptr<Workload> make_explore_suite(const Options& opt);
std::unique_ptr<Workload> make_runtime_record(const Options& opt);

}  // namespace perfbench
