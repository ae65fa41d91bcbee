// Drives an IncrementalChecker action by action, as `cal_check --follow`
// does, and times each push that closes a window (the verdict lag). Used by
// stream-long (one long stream) and by explore-suite's enum-check
// configuration (many short ones).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cal/engine/incremental.hpp"
#include "trace.hpp"

namespace perfbench {

class StreamFeed {
 public:
  /// With `tracer` set, pushes are recorded as spans and the per-window
  /// series and frontier maxima are kept for record().
  StreamFeed(const cal::CaSpec& spec, const cal::engine::IncrementalOptions& io,
             Tracer* tracer)
      : checker_(spec, io), tracer_(tracer) {}

  /// Pushes one action; returns the push's duration in µs when it closed a
  /// window. `request` tags the push span.
  std::optional<double> push(const cal::Action& action, std::uint64_t request);

  void finish(std::uint64_t request);

  [[nodiscard]] const cal::engine::IncrementalChecker& checker() const {
    return checker_;
  }
  [[nodiscard]] std::size_t windows() const noexcept { return windows_; }
  /// Per-window push latencies in stream order (traced feeds only).
  [[nodiscard]] const std::vector<double>& window_us() const noexcept {
    return window_us_;
  }

  /// Adds the stream's incremental.* counters and its window series to the
  /// tracer (traced feeds only).
  void record() const;

 private:
  cal::engine::IncrementalChecker checker_;
  Tracer* tracer_;
  std::size_t windows_ = 0;
  std::size_t frontier_max_ = 0;
  std::size_t active_max_ = 0;
  std::vector<double> window_us_;
};

}  // namespace perfbench
