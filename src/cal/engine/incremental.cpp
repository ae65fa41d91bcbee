#include "cal/engine/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "cal/engine/cal_policy.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/history_index.hpp"

namespace cal::engine {

namespace {

/// Position of global id `gid` in an ascending table of active ids: the
/// operation's local index in a window search.
std::size_t local_index(const std::vector<std::size_t>& ids, std::size_t gid) {
  return static_cast<std::size_t>(
      std::lower_bound(ids.begin(), ids.end(), gid) - ids.begin());
}

}  // namespace

WitnessSegment::WitnessSegment(std::shared_ptr<const WitnessSegment> parent,
                               std::vector<CaElement> elements)
    : parent_(std::move(parent)), elements_(std::move(elements)) {}

WitnessSegment::~WitnessSegment() {
  // Trampoline: the outermost destructor on a thread releases the chain in
  // a loop, and a destructor run by one of those releases hands its parent
  // back to the loop instead of releasing it, so no release recurses.
  // shared_ptr's own count decides which segments die: a segment another
  // owner still holds simply stops the loop.
  thread_local std::shared_ptr<const WitnessSegment>* handoff = nullptr;
  if (handoff != nullptr) {
    *handoff = std::move(parent_);
    return;
  }
  std::shared_ptr<const WitnessSegment> next = std::move(parent_);
  handoff = &next;
  while (next) {
    std::shared_ptr<const WitnessSegment> released = std::move(next);
    released.reset();  // refills `next` if this was the last owner
  }
  handoff = nullptr;
}

std::vector<CaElement> WitnessSegment::trace(const WitnessSegment* last) {
  std::vector<const WitnessSegment*> chain;
  std::size_t size = 0;
  for (const WitnessSegment* s = last; s != nullptr; s = s->parent_.get()) {
    chain.push_back(s);
    size += s->elements_.size();
  }
  std::vector<CaElement> out;
  out.reserve(size);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out.insert(out.end(), (*it)->elements_.begin(), (*it)->elements_.end());
  }
  return out;
}

IncrementalChecker::IncrementalChecker(const CaSpec& spec,
                                       IncrementalOptions options)
    : spec_(spec), options_(std::move(options)) {
  if (options_.window == 0) options_.window = 1;
  FrontierEntry root;
  root.state = spec_.initial();
  frontier_.push_back(std::move(root));
}

void IncrementalChecker::fail(std::string reason) {
  status_.ok = false;
  if (status_.violation_window == 0) {
    status_.violation_window = status_.windows_checked;
  }
  status_.reason = std::move(reason);
}

void IncrementalChecker::violation(std::string reason) {
  frontier_.clear();
  status_.frontier_size = 0;
  status_.active_ops = active_ids_.size();
  fail(std::move(reason));
}

OpRecord& IncrementalChecker::active_op(std::size_t gid) {
  return active_ops_[local_index(active_ids_, gid)];
}

void IncrementalChecker::push(const Action& action) {
  if (!status_.ok || status_.finished) return;
  const std::size_t idx = status_.actions_consumed++;
  std::size_t& open = open_[action.tid];
  if (action.is_invoke()) {
    if (open != ThreadTable::kNone) {
      fail("not well-formed: invocation while thread " +
           std::to_string(action.tid) + " has an open call");
      return;
    }
    OpRecord rec;
    rec.op = Operation{action.tid, action.object, action.method,
                       action.payload, std::nullopt};
    rec.inv_index = idx;
    const std::size_t gid = status_.operations++;
    open = gid;
    active_ids_.push_back(gid);
    active_ops_.push_back(std::move(rec));
  } else {
    if (open == ThreadTable::kNone) {
      fail("not well-formed: response without an open call on thread " +
           std::to_string(action.tid));
      return;
    }
    OpRecord& rec = active_op(open);
    if (rec.op.object != action.object || rec.op.method != action.method) {
      fail("not well-formed: response does not match the open call on "
           "thread " +
           std::to_string(action.tid));
      return;
    }
    rec.op.ret = action.payload;
    rec.res_index = idx;
    newly_completed_.push_back(open);
    open_.erase(action.tid);
    ++status_.completed;
  }
  if (++buffered_ >= options_.window) check_window();
}

void IncrementalChecker::push(const History& history) {
  for (const Action& a : history.actions()) push(a);
}

void IncrementalChecker::finish() {
  if (status_.finished) return;
  if (status_.ok && buffered_ > 0) check_window();
  if (status_.ok && !options_.complete_pending) {
    // Without completion-by-extension, only explanations that fired no
    // never-completed operation count (window searches fire pending ops
    // speculatively, since mid-stream "pending" may still complete).
    std::vector<FrontierEntry> kept;
    kept.reserve(frontier_.size());
    for (FrontierEntry& entry : frontier_) {
      bool fired_pending = false;
      for (std::size_t gid : entry.fired) {
        if (active_op(gid).is_pending()) {
          fired_pending = true;
          break;
        }
      }
      if (!fired_pending) kept.push_back(std::move(entry));
    }
    frontier_ = std::move(kept);
    status_.frontier_size = frontier_.size();
    if (frontier_.empty()) {
      violation("violation: every explanation fires an operation that never "
                "completed");
    }
  }
  status_.finished = true;
}

std::optional<CaTrace> IncrementalChecker::witness() const {
  if (!status_.ok || !options_.track_witness || frontier_.empty()) {
    return std::nullopt;
  }
  return CaTrace(WitnessSegment::trace(frontier_.front().witness.get()));
}

void IncrementalChecker::apply_responses() {
  if (newly_completed_.empty()) return;
  std::vector<FrontierEntry> kept;
  kept.reserve(frontier_.size());
  for (FrontierEntry& entry : frontier_) {
    bool alive = true;
    for (std::size_t gid : newly_completed_) {
      const auto it = std::lower_bound(
          entry.pending_rets.begin(), entry.pending_rets.end(), gid,
          [](const auto& p, std::size_t g) { return p.first < g; });
      if (it == entry.pending_rets.end() || it->first != gid) continue;
      if (!(it->second == *active_op(gid).op.ret)) {
        alive = false;  // guessed a different return than the real one
        break;
      }
      entry.pending_rets.erase(it);  // confirmed; now an ordinary fired op
    }
    if (alive) kept.push_back(std::move(entry));
  }
  frontier_ = std::move(kept);
  newly_completed_.clear();
  if (frontier_.empty()) {
    violation("violation: every explanation committed to a different "
              "return value than the one observed");
  }
}

void IncrementalChecker::check_window() {
  buffered_ = 0;
  ++status_.windows_checked;
  apply_responses();
  if (!status_.ok) return;

  // The window problem ranges over the active operations; an operation's
  // local index is its position in the active table.
  SearchOptions sopts;
  sopts.max_visited = options_.max_visited;
  sopts.exact_visited = options_.exact_visited;

  // The frontier, in local indices, is the window search's roots.
  std::vector<CalPolicy::Node> roots;
  roots.reserve(frontier_.size());
  const std::size_t words = (active_ids_.size() + 63) / 64;
  for (std::uint32_t e = 0; e < frontier_.size(); ++e) {
    const FrontierEntry& fe = frontier_[e];
    CalPolicy::Node n{fe.state, StateMask(words, 0), 0, 0, {}, e};
    for (std::size_t gid : fe.fired) {
      const std::size_t l = local_index(active_ids_, gid);
      mask_set(n.fired, l);
      if (!active_ops_[l].is_pending()) ++n.fired_completed;
    }
    // Local order preserves global order, so this stays ascending.
    n.pending_rets.reserve(fe.pending_rets.size());
    for (const auto& [gid, v] : fe.pending_rets) {
      n.pending_rets.emplace_back(
          static_cast<std::uint32_t>(local_index(active_ids_, gid)), v);
    }
    roots.push_back(std::move(n));
  }

  std::vector<FrontierEntry> next;
  const auto sink = [&](const CalPolicy::Node& node,
                        const std::vector<CaElement>& prefix) {
    FrontierEntry entry;
    entry.state = node.state;
    for (std::size_t l = 0; l < active_ids_.size(); ++l) {
      if (mask_test(node.fired, l)) entry.fired.push_back(active_ids_[l]);
    }
    entry.pending_rets.reserve(node.pending_rets.size());
    for (const auto& [l, v] : node.pending_rets) {
      entry.pending_rets.emplace_back(active_ids_[l], v);
    }
    if (options_.track_witness) {
      // A goal reached without firing anything shares its root's segment.
      const std::shared_ptr<const WitnessSegment>& root =
          frontier_[node.root].witness;
      entry.witness = prefix.empty()
                          ? root
                          : std::make_shared<const WitnessSegment>(root, prefix);
    }
    next.push_back(std::move(entry));
  };

  // Operations pending now may still respond (Pending::kOpen), even with
  // complete_pending off: that restriction only excludes operations that
  // never complete, and finish() applies it.
  CalPolicy policy(active_ops_, spec_, Pending::kOpen, std::move(roots));
  SequentialSearch<CalPolicy> driver(policy, sopts);
  const SearchStats stats = driver.run_collect(sink);
  status_.visited_states += stats.visited_states;

  if (stats.exhausted) {
    status_.exhausted = true;
    fail("window search exhausted: max_visited cap hit");
    return;
  }
  if (next.empty()) {
    violation("violation: no explanation fires every completed operation");
    return;
  }
  frontier_ = std::move(next);
  retire();
  status_.frontier_size = frontier_.size();
  status_.active_ops = active_ids_.size();
}

void IncrementalChecker::retire() {
  // fired_in[l]: entries that fired the completed active operation l.
  std::vector<std::size_t> fired_in(active_ids_.size(), 0);
  for (const FrontierEntry& entry : frontier_) {
    for (std::size_t gid : entry.fired) {
      const std::size_t l = local_index(active_ids_, gid);
      if (!active_ops_[l].is_pending()) ++fired_in[l];
    }
  }
  std::vector<std::size_t> retired;  // ascending global ids
  std::size_t kept = 0;
  for (std::size_t l = 0; l < active_ids_.size(); ++l) {
    if (fired_in[l] == frontier_.size()) {
      retired.push_back(active_ids_[l]);
      continue;
    }
    if (kept != l) {
      active_ids_[kept] = active_ids_[l];
      active_ops_[kept] = std::move(active_ops_[l]);
    }
    ++kept;
  }
  if (retired.empty()) return;
  status_.retired_ops += retired.size();
  active_ids_.resize(kept);
  active_ops_.resize(kept);
  for (FrontierEntry& entry : frontier_) {
    entry.fired.erase(std::remove_if(entry.fired.begin(), entry.fired.end(),
                                     [&retired](std::size_t gid) {
                                       return std::binary_search(
                                           retired.begin(), retired.end(),
                                           gid);
                                     }),
                      entry.fired.end());
  }
}

}  // namespace cal::engine
