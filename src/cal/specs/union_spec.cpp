#include "cal/specs/union_spec.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace cal {

SpecState UnionCaSpec::initial() const {
  SpecState out;
  for (const Entry& e : specs_) {
    const SpecState sub = e.second->initial();
    out.push_back(static_cast<std::int64_t>(sub.size()));
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::size_t UnionCaSpec::max_element_size() const {
  std::size_t max = 1;
  for (const Entry& e : specs_) {
    const std::size_t m = e.second->max_element_size();
    if (m == 0) return 0;  // one unbounded sub-spec makes the union unbounded
    max = std::max(max, m);
  }
  return max;
}

SpecState UnionCaSpec::sub_state(const SpecState& state,
                                 std::size_t index) const {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < index; ++i) {
    pos += 1 + static_cast<std::size_t>(state[pos]);
  }
  const auto len = static_cast<std::size_t>(state[pos]);
  return SpecState(state.begin() + static_cast<std::ptrdiff_t>(pos + 1),
                   state.begin() + static_cast<std::ptrdiff_t>(pos + 1 + len));
}

SpecState UnionCaSpec::replace_sub_state(const SpecState& state,
                                         std::size_t index,
                                         const SpecState& next) const {
  SpecState out;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const auto len = static_cast<std::size_t>(state[pos]);
    if (i == index) {
      out.push_back(static_cast<std::int64_t>(next.size()));
      out.insert(out.end(), next.begin(), next.end());
    } else {
      out.insert(out.end(),
                 state.begin() + static_cast<std::ptrdiff_t>(pos),
                 state.begin() + static_cast<std::ptrdiff_t>(pos + 1 + len));
    }
    pos += 1 + len;
  }
  return out;
}

bool UnionCaSpec::compatible(Symbol object,
                             const std::vector<Operation>& ops) const {
  for (const Entry& e : specs_) {
    if (e.first == object) return e.second->compatible(object, ops);
  }
  return false;  // no registered spec for this object
}

std::vector<CaStepResult> UnionCaSpec::step(
    const SpecState& state, Symbol object,
    const std::vector<Operation>& ops) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].first != object) continue;
    std::vector<CaStepResult> out;
    for (CaStepResult& sr :
         specs_[i].second->step(sub_state(state, i), object, ops)) {
      out.push_back(CaStepResult{replace_sub_state(state, i, sr.next),
                                 std::move(sr.element)});
    }
    return out;
  }
  return {};  // no registered spec for this object
}

std::vector<CaElement> merge_part_witnesses(std::vector<PartWitness> parts) {
  // points[k][i]: the point of part k's element i, non-decreasing in i.
  std::vector<std::vector<std::size_t>> points(parts.size());
  std::vector<std::uint32_t> by_thread;
  std::size_t total = 0;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    // The part's operations grouped by thread, each group in invocation
    // order: the walk's k-th operation of a thread is its k-th entry.
    const auto& inv = parts[k].invocations;
    by_thread.resize(inv.size());
    for (std::uint32_t i = 0; i < by_thread.size(); ++i) by_thread[i] = i;
    std::stable_sort(by_thread.begin(), by_thread.end(),
                     [&inv](std::uint32_t a, std::uint32_t b) {
                       return inv[a].first < inv[b].first;
                     });
    // Position in by_thread of each thread's next operation.
    std::unordered_map<ThreadId, std::size_t> next;
    std::size_t point = 0;
    const std::vector<CaElement>& elements = parts[k].elements;
    points[k].reserve(elements.size());
    for (const CaElement& element : elements) {
      for (const Operation& op : element.ops()) {
        auto [it, fresh] = next.try_emplace(op.tid, 0);
        if (fresh) {
          it->second = static_cast<std::size_t>(
              std::lower_bound(by_thread.begin(), by_thread.end(), op.tid,
                               [&inv](std::uint32_t e, ThreadId t) {
                                 return inv[e].first < t;
                               }) -
              by_thread.begin());
        }
        std::size_t& pos = it->second;
        if (pos < by_thread.size() && inv[by_thread[pos]].first == op.tid) {
          point = std::max(point, inv[by_thread[pos++]].second);
        }
      }
      points[k].push_back(point);
    }
    total += elements.size();
  }
  // Merges the parts by point; on a tie (impossible between two objects)
  // the earlier part goes first, so the sort is stable.
  std::vector<std::size_t> cursor(parts.size(), 0);
  std::vector<CaElement> out;
  out.reserve(total);
  while (out.size() < total) {
    std::size_t best = parts.size();
    for (std::size_t k = 0; k < parts.size(); ++k) {
      if (cursor[k] == points[k].size()) continue;
      if (best == parts.size() ||
          points[k][cursor[k]] < points[best][cursor[best]]) {
        best = k;
      }
    }
    out.push_back(std::move(parts[best].elements[cursor[best]++]));
  }
  return out;
}

}  // namespace cal
