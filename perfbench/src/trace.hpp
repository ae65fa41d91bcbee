// In-memory span and counter recorder for the traced run.
//
// Spans are recorded only in the benchmark's own files, around the calls
// into each layer's public entry points. Each span has a name, start, end,
// parent span and request id (the history, the window, the config, the
// sampled op). Counters are recorded at the same boundaries. Everything
// stays in memory until the pass ends; write() then dumps the spans with
// their self time (duration minus the time covered by child spans).
//
// A Tracer is single-threaded; worker threads record into their own and
// the owner merges them afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  ///< string literal
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 = root
  };

  struct NameTotals {
    double inclusive_s = 0;
    double self_s = 0;
    std::size_t count = 0;
  };

  /// Opens a child of the innermost open span; returns its id.
  std::int32_t open(const char* name, std::uint64_t request);
  /// Closes span `id` (the innermost open one); returns its duration in ns.
  std::int64_t close(std::int32_t id);
  /// Renames a span (e.g. once the call reveals which path it took).
  void rename(std::int32_t id, const char* name) { spans_[id].name = name; }

  void add(const std::string& metric, double v) { metrics_[metric] += v; }
  void max(const std::string& metric, double v);
  void set(const std::string& metric, double v) { metrics_[metric] = v; }
  [[nodiscard]] double get(const std::string& metric) const;

  /// Appends another tracer's spans (re-parented) and sums its counters.
  void merge(const Tracer& other);

  /// Inclusive and self time per span name.
  [[nodiscard]] std::map<std::string, NameTotals> totals_by_name() const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Writes one span per line: name, request, start_ns, end_ns, parent,
  /// self_ns (tab separated, with a header). False on I/O failure.
  bool write(const std::string& path) const;

 private:
  /// Per span, the summed duration of its direct children.
  [[nodiscard]] std::vector<std::int64_t> child_ns() const;

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, double> metrics_;
};

/// Adds one finished stream's per-window latencies (µs, in stream order)
/// to the first-tenth / last-tenth window counters. Streams shorter than
/// ten windows have no tenths and are skipped.
void note_window_series(Tracer& tracer, const std::vector<double>& window_us);

/// Sets incremental.window_us_{first,last}_tenth and window_growth from
/// the counters note_window_series accumulated.
void finish_window_series(Tracer& tracer);

/// RAII span; a null tracer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), id_(tracer ? tracer->open(name, request) : -1) {}
  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (idempotent); returns its duration in seconds.
  double close() {
    if (tracer_ != nullptr && !closed_) {
      closed_ = true;
      ns_ = tracer_->close(id_);
    }
    return static_cast<double>(ns_) * 1e-9;
  }
  void rename(const char* name) {
    if (tracer_ != nullptr) tracer_->rename(id_, name);
  }

 private:
  Tracer* tracer_;
  std::int32_t id_;
  bool closed_ = false;
  std::int64_t ns_ = 0;
};

}  // namespace perfbench
