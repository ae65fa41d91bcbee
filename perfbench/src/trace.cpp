#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int32_t Tracer::open(const char* name, std::uint64_t request) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, request, now_ns(), 0, parent});
  open_.push_back(id);
  return id;
}

std::int64_t Tracer::close(std::int32_t id) {
  Span& s = spans_[id];
  s.end_ns = now_ns();
  // Spans nest, so the one closing is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return s.end_ns - s.start_ns;
}

void Tracer::max(const std::string& metric, double v) {
  auto [it, inserted] = metrics_.emplace(metric, v);
  if (!inserted) it->second = std::max(it->second, v);
}

double Tracer::get(const std::string& metric) const {
  const auto it = metrics_.find(metric);
  return it == metrics_.end() ? 0.0 : it->second;
}

void Tracer::merge(const Tracer& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
  for (const auto& [name, v] : other.metrics_) metrics_[name] += v;
}

std::vector<std::int64_t> Tracer::child_ns() const {
  // Child spans of one parent never overlap (one thread nests them), so a
  // span's self time is its duration minus the sum of its children's.
  std::vector<std::int64_t> out(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) out[s.parent] += s.end_ns - s.start_ns;
  }
  return out;
}

std::map<std::string, Tracer::NameTotals> Tracer::totals_by_name() const {
  const std::vector<std::int64_t> child = child_ns();
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameTotals& t = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.inclusive_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

void note_window_series(Tracer& tracer, const std::vector<double>& window_us) {
  const std::size_t tenth = window_us.size() / 10;
  if (tenth == 0) return;
  for (std::size_t i = 0; i < tenth; ++i) {
    tracer.add("incremental.first_tenth_sum_us", window_us[i]);
    tracer.add("incremental.last_tenth_sum_us",
               window_us[window_us.size() - 1 - i]);
  }
  tracer.add("incremental.tenth_windows", static_cast<double>(tenth));
}

void finish_window_series(Tracer& tracer) {
  const double n = tracer.get("incremental.tenth_windows");
  if (n == 0) return;
  const double first = tracer.get("incremental.first_tenth_sum_us") / n;
  const double last = tracer.get("incremental.last_tenth_sum_us") / n;
  tracer.set("incremental.window_us_first_tenth", first);
  tracer.set("incremental.window_us_last_tenth", last);
  if (first > 0) tracer.set("incremental.window_growth", last / first);
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> child = child_ns();
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "name\trequest\tstart_ns\tend_ns\tparent\tself_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\t%llu\t%lld\t%lld\t%d\t%lld\n", s.name,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<long long>(s.end_ns - s.start_ns - child[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
