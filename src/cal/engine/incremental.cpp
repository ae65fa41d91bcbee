#include "cal/engine/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
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

/// One window of the streaming search: the CAL policy over the *active*
/// operations only (local indices), enumerating successors with the same
/// CalExpansion, with two extensions — multiple roots (one per frontier
/// entry, remembered in Node::root for witness stitching) and
/// pending-return tracking (Node::pending_rets records the value the spec
/// chose for each fired-while-pending operation, and participates in the
/// node encoding so explanations differing only in a guess stay
/// distinct). Goals — nodes with every completed active operation fired —
/// are collect-mode sinks: their pending-only continuations stay reachable
/// from them in the next window, so not expanding them loses nothing.
class StreamPolicy {
 public:
  struct Node {
    SpecState state;
    StateMask fired;
    std::size_t fired_completed;
    /// (local index, committed return) for fired pending ops, ascending.
    std::vector<std::pair<std::uint32_t, Value>> pending_rets;
    /// Index of the frontier entry this search state grew from (not part
    /// of the node identity — any root reaching a state explains it).
    std::uint32_t root;
  };
  using Label = CaElement;

  /// `ops[l]` is the active operation with global id `ids[l]`.
  StreamPolicy(const std::vector<OpRecord>& ops,
               const std::vector<std::size_t>& ids, const CaSpec& spec,
               const std::vector<FrontierEntry>& frontier)
      : ops_(ops),
        ids_(ids),
        frontier_(frontier),
        expansion_(ops, spec, /*pending_candidates=*/true) {}

  std::vector<Node> roots() const {
    const std::size_t words = (ops_.size() + 63) / 64;
    std::vector<Node> out;
    out.reserve(frontier_.size());
    for (std::uint32_t e = 0; e < frontier_.size(); ++e) {
      const FrontierEntry& fe = frontier_[e];
      Node n{fe.state, StateMask(words, 0), 0, {}, e};
      for (std::size_t gid : fe.fired) {
        const std::size_t l = local_index(ids_, gid);
        mask_set(n.fired, l);
        if (!ops_[l].is_pending()) ++n.fired_completed;
      }
      n.pending_rets.reserve(fe.pending_rets.size());
      for (const auto& [gid, v] : fe.pending_rets) {
        n.pending_rets.emplace_back(
            static_cast<std::uint32_t>(local_index(ids_, gid)), v);
      }
      // fe lists are ascending by global id and local order preserves
      // global order, so n.pending_rets is already sorted.
      out.push_back(std::move(n));
    }
    return out;
  }

  bool is_goal(const Node& n) const {
    return n.fired_completed == expansion_.index().completed();
  }

  void encode(const Node& n, NodeKey& out) const {
    encode_state_and_masks(n.state, {&n.fired}, out);
    out.push_back(static_cast<std::int64_t>(n.pending_rets.size()));
    for (const auto& [l, v] : n.pending_rets) {
      out.push_back(static_cast<std::int64_t>(l));
      out.push_back(static_cast<std::int64_t>(v.hash()));
    }
  }

  void on_enter(const Node&, std::size_t) {}
  bool cancelled() const { return false; }

  /// Pending operations are always candidates mid-stream, even with
  /// complete_pending off: an operation pending *now* may complete later,
  /// and the batch verdict (complete_pending=false) only excludes ops that
  /// never complete. finish() discards explanations that fired one.
  template <typename Emit>
  void expand(const Node& node, std::size_t /*depth*/,
              const std::vector<Label>& /*prefix*/, Emit&& emit) {
    expansion_.each_element(
        node.state, node.fired,
        [&](std::span<const std::size_t> chosen, std::size_t newly_completed,
            const std::vector<CaStepResult>& outcomes) {
          for (const CaStepResult& sr : outcomes) {
            Node next{sr.next, node.fired,
                      node.fired_completed + newly_completed,
                      node.pending_rets, node.root};
            for (std::size_t i : chosen) mask_set(next.fired, i);
            commit_pending_returns(chosen, sr.element, next.pending_rets);
            if (!emit(std::move(next), CaElement(sr.element))) return false;
          }
          return true;
        });
  }

 private:
  /// Commits to the return values the spec chose for the element's
  /// pending participants (matched by thread: co-fired operations overlap
  /// in real time, so their threads are distinct).
  void commit_pending_returns(
      std::span<const std::size_t> chosen, const CaElement& element,
      std::vector<std::pair<std::uint32_t, Value>>& pending_rets) const {
    for (std::size_t i : chosen) {
      if (!ops_[i].is_pending()) continue;
      for (const Operation& op : element.ops()) {
        if (op.tid != ops_[i].op.tid || !op.ret.has_value()) continue;
        const auto entry = std::make_pair(static_cast<std::uint32_t>(i), *op.ret);
        pending_rets.insert(
            std::upper_bound(pending_rets.begin(), pending_rets.end(), entry,
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }),
            entry);
        break;
      }
    }
  }

  const std::vector<OpRecord>& ops_;
  const std::vector<std::size_t>& ids_;
  const std::vector<FrontierEntry>& frontier_;
  CalExpansion expansion_;
};

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
  if (action.is_invoke()) {
    if (open_.count(action.tid) != 0) {
      fail("not well-formed: invocation while thread " +
           std::to_string(action.tid) + " has an open call");
      return;
    }
    OpRecord rec;
    rec.op = Operation{action.tid, action.object, action.method,
                       action.payload, std::nullopt};
    rec.inv_index = idx;
    const std::size_t gid = status_.operations++;
    open_[action.tid] = gid;
    active_ids_.push_back(gid);
    active_ops_.push_back(std::move(rec));
  } else {
    const auto it = open_.find(action.tid);
    if (it == open_.end()) {
      fail("not well-formed: response without an open call on thread " +
           std::to_string(action.tid));
      return;
    }
    OpRecord& rec = active_op(it->second);
    if (rec.op.object != action.object || rec.op.method != action.method) {
      fail("not well-formed: response does not match the open call on "
           "thread " +
           std::to_string(action.tid));
      return;
    }
    rec.op.ret = action.payload;
    rec.res_index = idx;
    newly_completed_.push_back(it->second);
    open_.erase(it);
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

  std::vector<FrontierEntry> next;
  const auto sink = [&](const StreamPolicy::Node& node,
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

  StreamPolicy policy(active_ops_, active_ids_, spec_, frontier_);
  SequentialSearch<StreamPolicy> driver(policy, sopts);
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
