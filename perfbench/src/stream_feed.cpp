#include "stream_feed.hpp"

#include <algorithm>

#include "bench.hpp"

namespace perfbench {

std::optional<double> StreamFeed::push(const cal::Action& action,
                                       std::uint64_t request) {
  ScopedSpan span(tracer_, "incremental.push", request);
  const auto p0 = Clock::now();
  checker_.push(action);
  const auto p1 = Clock::now();
  const cal::engine::IncrementalStatus& s = checker_.status();
  if (s.windows_checked == windows_) return std::nullopt;
  windows_ = s.windows_checked;
  span.rename("incremental.window");
  const double us = seconds_between(p0, p1) * 1e6;
  if (tracer_ != nullptr) {
    window_us_.push_back(us);
    frontier_max_ = std::max(frontier_max_, s.frontier_size);
    active_max_ = std::max(active_max_, s.active_ops);
  }
  return us;
}

void StreamFeed::finish(std::uint64_t request) {
  ScopedSpan span(tracer_, "incremental.finish", request);
  checker_.finish();
}

void StreamFeed::record() const {
  if (tracer_ == nullptr) return;
  const cal::engine::IncrementalStatus& s = checker_.status();
  Tracer& tr = *tracer_;
  tr.add("incremental.streams", 1);
  tr.add("incremental.windows", static_cast<double>(s.windows_checked));
  tr.add("incremental.visited_states", static_cast<double>(s.visited_states));
  tr.add("incremental.retired_ops", static_cast<double>(s.retired_ops));
  tr.max("incremental.frontier_max",
         static_cast<double>(std::max(frontier_max_, s.frontier_size)));
  tr.max("incremental.active_ops_max",
         static_cast<double>(std::max(active_max_, s.active_ops)));
  note_window_series(tr, window_us_);
}

}  // namespace perfbench
