#include "cal/engine/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <string>
#include <utility>

#include "cal/engine/cal_policy.hpp"
#include "cal/engine/order_checker.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/history_index.hpp"
#include "cal/specs/union_spec.hpp"

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

namespace detail {

/// One decision procedure for a stream, or for one object's part of it.
/// The checker has already checked every action well-formed; `gid`
/// numbers the stream's operations in invocation order and `at` is an
/// action's index in the whole stream.
class StreamDecider {
 public:
  struct Counters {
    std::size_t frontier = 1;
    std::size_t active = 0;
    std::size_t retired = 0;
    std::size_t visited = 0;
  };

  virtual ~StreamDecider() = default;

  virtual void invoke(std::size_t gid, const Action& a, std::size_t at) = 0;
  /// The response to operation `gid`, invoked at action `inv`. False on a
  /// violation (`reason`).
  virtual bool respond(std::size_t gid, std::size_t inv, const Action& a,
                       std::size_t at) = 0;
  /// A window boundary of the whole stream. False on a violation.
  virtual bool close_window() = 0;
  /// The end of the stream, after its last window. False on a violation.
  virtual bool finish(bool complete_pending) = 0;
  /// Appends the witness elements, in order (after a successful finish()).
  virtual void witness(std::vector<CaElement>& out) const = 0;
  [[nodiscard]] virtual Counters counters() const = 0;
  [[nodiscard]] virtual bool order_decided() const = 0;

  std::string reason;
  bool exhausted = false;
};

}  // namespace detail

namespace {

using detail::StreamDecider;

/// Appends `elements` to `out`, moving them (and taking the buffer when
/// `out` is empty).
void append(std::vector<CaElement>& out, std::vector<CaElement>&& elements) {
  if (out.empty()) {
    out = std::move(elements);
    return;
  }
  out.insert(out.end(), std::make_move_iterator(elements.begin()),
             std::make_move_iterator(elements.end()));
}

std::unique_ptr<StreamDecider> make_decider(const CaSpec& spec,
                                            const IncrementalOptions& o);

/// Window searches on the engine (see the header): a frontier of
/// explanations, advanced by one CalPolicy collect-search per window.
class EngineWindows final : public StreamDecider {
 public:
  EngineWindows(const CaSpec& spec, const IncrementalOptions& o)
      : spec_(spec), options_(o) {
    FrontierEntry root;
    root.state = spec_.initial();
    frontier_.push_back(std::move(root));
  }

  void invoke(std::size_t gid, const Action& a, std::size_t at) override {
    OpRecord rec;
    rec.op = Operation{a.tid, a.object, a.method, a.payload, std::nullopt};
    rec.inv_index = at;
    active_ids_.push_back(gid);
    active_ops_.push_back(std::move(rec));
  }

  bool respond(std::size_t gid, std::size_t /*inv*/, const Action& a,
               std::size_t at) override {
    OpRecord& rec = active_op(gid);
    rec.op.ret = a.payload;
    rec.res_index = at;
    newly_completed_.push_back(gid);
    return true;
  }

  bool close_window() override;

  bool finish(bool complete_pending) override {
    if (complete_pending) return true;
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
    if (frontier_.empty()) {
      reason = "violation: every explanation fires an operation that never "
               "completed";
      return false;
    }
    return true;
  }

  void witness(std::vector<CaElement>& out) const override {
    if (frontier_.empty()) return;
    append(out, WitnessSegment::trace(frontier_.front().witness.get()));
  }

  [[nodiscard]] Counters counters() const override {
    return Counters{frontier_.size(), active_ids_.size(), retired_, visited_};
  }
  [[nodiscard]] bool order_decided() const override { return false; }

 private:
  /// One surviving explanation: a spec state reachable by firing exactly
  /// the listed active operations (every retired one, and for the pending
  /// ones among them the return values committed to).
  struct FrontierEntry {
    SpecState state;
    /// Global ids of fired, non-retired operations, ascending.
    std::vector<std::size_t> fired;
    /// Return values committed to for fired-while-pending operations,
    /// ascending by global id (a subset of `fired`).
    std::vector<std::pair<std::size_t, Value>> pending_rets;
    /// Last segment of the CA-elements fired since the start of the stream
    /// (when track_witness; null while nothing has fired). Entries that
    /// grew from the same explanation share every earlier segment.
    std::shared_ptr<const WitnessSegment> witness;
  };

  /// fails for a stream no explanation survives: empties the frontier.
  bool violation(std::string why) {
    frontier_.clear();
    reason = std::move(why);
    return false;
  }
  /// Drops frontier entries whose committed pending returns contradict the
  /// responses that arrived since the previous window.
  bool apply_responses();
  /// Retires operations that completed and are fired in every entry.
  void retire();
  /// The active operation with global id `gid` (which must be active).
  OpRecord& active_op(std::size_t gid) {
    return active_ops_[local_index(active_ids_, gid)];
  }

  const CaSpec& spec_;
  IncrementalOptions options_;
  /// The non-retired operations, ascending by global id: `active_ops_[i]`
  /// has id `active_ids_[i]`, and a window search's local index is that
  /// position. Retirement erases from both.
  std::vector<std::size_t> active_ids_;
  std::vector<OpRecord> active_ops_;
  std::vector<std::size_t> newly_completed_;  ///< since the last window
  std::vector<FrontierEntry> frontier_;
  std::size_t retired_ = 0;
  std::size_t visited_ = 0;
};

bool EngineWindows::apply_responses() {
  if (newly_completed_.empty()) return true;
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
    return violation("violation: every explanation committed to a different "
                     "return value than the one observed");
  }
  return true;
}

bool EngineWindows::close_window() {
  if (!apply_responses()) return false;

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
  visited_ += stats.visited_states;

  if (stats.exhausted) {
    exhausted = true;
    reason = "window search exhausted: max_visited cap hit";
    return false;
  }
  if (next.empty()) {
    return violation("violation: no explanation fires every completed "
                     "operation");
  }
  frontier_ = std::move(next);
  retire();
  return true;
}

void EngineWindows::retire() {
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
  retired_ += retired.size();
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

/// An exchanger or synchronous-queue object, decided online by a
/// PairingMonitor (order_checker.hpp): no window searches, and a violation
/// at the response that makes the stream unexplainable.
class PairingStream final : public StreamDecider {
 public:
  PairingStream(const PairingShapes& shapes, const IncrementalOptions& o)
      : shapes_(shapes),
        track_(o.track_witness),
        monitor_(/*eager=*/true, /*keep_elements=*/o.track_witness) {}

  void invoke(std::size_t gid, const Action& a, std::size_t at) override {
    Operation op{a.tid, a.object, a.method, a.payload, std::nullopt};
    const std::size_t record = records_++;
    monitor_.invoke(record, shapes_.shape(op), at);
    if (track_) ops_.emplace_back();
    open_.push_back(Open{gid, record, std::move(op)});
  }

  bool respond(std::size_t gid, std::size_t inv, const Action& a,
               std::size_t at) override {
    std::size_t k = 0;
    while (open_[k].gid != gid) ++k;
    Open call = std::move(open_[k]);
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(k));
    call.op.ret = a.payload;
    const PairShape shape = shapes_.shape(call.op);
    if (track_) ops_[call.record] = std::move(call.op);
    ++completed_;
    if (monitor_.respond(call.record, shape, inv, at)) return true;
    failed_ = true;
    reason = shape.kind == PairShape::Kind::kReject
                 ? "violation: no CA-element of the spec admits thread " +
                       std::to_string(a.tid) + "'s response"
                 : "violation: no explanation pairs every completed "
                   "operation with a partner";
    return false;
  }

  bool close_window() override { return true; }

  bool finish(bool complete_pending) override {
    if (track_) {
      // Still-open calls are pending: the monitor may complete them as
      // partners.
      for (Open& call : open_) ops_[call.record] = call.op;
    }
    if (monitor_.finish(complete_pending)) return true;
    failed_ = true;
    reason = complete_pending
                 ? "violation: no explanation pairs every completed "
                   "operation with a partner"
                 : "violation: a completed operation's only partners never "
                   "completed";
    return false;
  }

  void witness(std::vector<CaElement>& out) const override {
    out.reserve(out.size() + monitor_.elements().size());
    for (const PairingMonitor::Element& e : monitor_.elements()) {
      const Operation& first = ops_[e.first];
      if (e.second == PairingMonitor::kNoRecord) {
        out.push_back(CaElement::singleton(first.object, first));
        continue;
      }
      Operation second = ops_[e.second];
      if (e.partner) second.ret = shapes_.partner_return(first);
      out.emplace_back(first.object,
                       std::vector<Operation>{first, std::move(second)});
    }
  }

  /// As the engine windows count them at a boundary: every completed
  /// operation is retired there (an owed one waits only for an open
  /// partner, as a retired one whose partner fired pending does), and the
  /// open calls are active.
  [[nodiscard]] Counters counters() const override {
    return Counters{failed_ ? 0u : 1u, open_.size(), completed_, 0};
  }
  [[nodiscard]] bool order_decided() const override { return true; }

 private:
  struct Open {
    std::size_t gid = 0;
    std::size_t record = 0;  ///< the monitor's id: ops_'s index
    Operation op;
  };

  const PairingShapes& shapes_;
  bool track_;
  PairingMonitor monitor_;
  std::vector<Open> open_;  ///< the open calls, ascending invocation
  /// With track_witness: every operation (a deque, so the O(stream) store
  /// grows without copying itself).
  std::deque<Operation> ops_;
  std::size_t records_ = 0;
  std::size_t completed_ = 0;
  bool failed_ = false;
};

/// A spec with parts, decided object by object (DESIGN.md § "Locality").
class ObjectSplit final : public StreamDecider {
 public:
  ObjectSplit(const CaSpec& spec, const IncrementalOptions& o)
      : track_(o.track_witness) {
    for (const CaSpec::Part& part : spec.parts()) {
      // The first entry of an object governs it, as in UnionCaSpec::step.
      if (find(part.first) != nullptr) continue;
      parts_.push_back(Sub{part.first, make_decider(*part.second, o), false, {}});
    }
  }

  void invoke(std::size_t gid, const Action& a, std::size_t at) override {
    // A pending call on an unregistered object never has to fire.
    Sub* sub = find(a.object);
    if (sub == nullptr) return;
    sub->decider->invoke(gid, a, at);
    sub->buffered = true;
    if (track_) sub->invocations.emplace_back(a.tid, at);
  }

  bool respond(std::size_t gid, std::size_t inv, const Action& a,
               std::size_t at) override {
    Sub* sub = find(a.object);
    if (sub == nullptr) {
      reason = "violation: no spec is registered for object " +
               a.object.str() + " (thread " + std::to_string(a.tid) +
               "'s response)";
      return false;
    }
    sub->buffered = true;
    return sub->decider->respond(gid, inv, a, at) || adopt(*sub);
  }

  bool close_window() override {
    for (Sub& sub : parts_) {
      if (!sub.buffered) continue;
      sub.buffered = false;
      if (!sub.decider->close_window()) return adopt(sub);
    }
    return true;
  }

  bool finish(bool complete_pending) override {
    for (Sub& sub : parts_) {
      if (!sub.decider->finish(complete_pending)) return adopt(sub);
    }
    return true;
  }

  void witness(std::vector<CaElement>& out) const override {
    std::vector<PartWitness> parts(parts_.size());
    for (std::size_t k = 0; k < parts_.size(); ++k) {
      parts_[k].decider->witness(parts[k].elements);
      parts[k].invocations = parts_[k].invocations;
    }
    append(out, merge_part_witnesses(std::move(parts)));
  }

  [[nodiscard]] Counters counters() const override {
    Counters total;
    for (const Sub& sub : parts_) {
      const Counters c = sub.decider->counters();
      total.frontier = c.frontier == 0 || total.frontier <= kSaturate / c.frontier
                           ? total.frontier * c.frontier
                           : kSaturate;
      total.active += c.active;
      total.retired += c.retired;
      total.visited += c.visited;
    }
    return total;
  }

  [[nodiscard]] bool order_decided() const override {
    return std::any_of(parts_.begin(), parts_.end(), [](const Sub& sub) {
      return sub.decider->order_decided();
    });
  }

 private:
  static constexpr std::size_t kSaturate = static_cast<std::size_t>(-1);

  struct Sub {
    Symbol object;
    std::unique_ptr<StreamDecider> decider;
    /// Received an action since the last window boundary.
    bool buffered = false;
    /// With track_witness: (thread, action index) of each invocation, for
    /// merge_part_witnesses.
    std::vector<std::pair<ThreadId, std::size_t>> invocations;
  };

  Sub* find(Symbol object) {
    for (Sub& sub : parts_) {
      if (sub.object == object) return &sub;
    }
    return nullptr;
  }
  /// Takes over a part's violation, naming its object.
  bool adopt(const Sub& sub) {
    reason = sub.object.str() + ": " + sub.decider->reason;
    exhausted = sub.decider->exhausted;
    return false;
  }

  bool track_;
  std::vector<Sub> parts_;
};

std::unique_ptr<StreamDecider> make_decider(const CaSpec& spec,
                                            const IncrementalOptions& o) {
  if (o.order_check) {
    if (!spec.parts().empty()) return std::make_unique<ObjectSplit>(spec, o);
    if (const PairingShapes* shapes = spec.pairing()) {
      return std::make_unique<PairingStream>(*shapes, o);
    }
  }
  return std::make_unique<EngineWindows>(spec, o);
}

}  // namespace

IncrementalChecker::IncrementalChecker(const CaSpec& spec,
                                       IncrementalOptions options)
    : options_(std::move(options)) {
  if (options_.window == 0) options_.window = 1;
  decider_ = make_decider(spec, options_);
}

IncrementalChecker::~IncrementalChecker() = default;

bool IncrementalChecker::order_decided() const {
  return decider_->order_decided();
}

void IncrementalChecker::fail(std::string reason) {
  status_.ok = false;
  if (status_.violation_window == 0) {
    status_.violation_window = status_.windows_checked;
  }
  status_.reason = std::move(reason);
}

void IncrementalChecker::violation(std::size_t window) {
  status_.ok = false;
  if (status_.violation_window == 0) status_.violation_window = window;
  status_.reason = decider_->reason;
  status_.exhausted = decider_->exhausted;
  sync_counters();
}

void IncrementalChecker::sync_counters() {
  const detail::StreamDecider::Counters c = decider_->counters();
  status_.frontier_size = c.frontier;
  status_.active_ops = c.active;
  status_.retired_ops = c.retired;
  status_.visited_states = c.visited;
}

void IncrementalChecker::push(const Action& action) {
  if (!status_.ok || status_.finished) return;
  const std::size_t idx = status_.actions_consumed++;
  std::size_t& slot = open_[action.tid];
  if (action.is_invoke()) {
    if (slot != ThreadTable::kNone) {
      fail("not well-formed: invocation while thread " +
           std::to_string(action.tid) + " has an open call");
      return;
    }
    const std::size_t gid = status_.operations++;
    const OpenCall call{gid, idx, action.object, action.method};
    if (free_calls_.empty()) {
      slot = calls_.size();
      calls_.push_back(call);
    } else {
      slot = free_calls_.back();
      free_calls_.pop_back();
      calls_[slot] = call;
    }
    decider_->invoke(gid, action, idx);
  } else {
    if (slot == ThreadTable::kNone) {
      fail("not well-formed: response without an open call on thread " +
           std::to_string(action.tid));
      return;
    }
    const OpenCall call = calls_[slot];
    if (call.object != action.object || call.method != action.method) {
      fail("not well-formed: response does not match the open call on "
           "thread " +
           std::to_string(action.tid));
      return;
    }
    free_calls_.push_back(slot);
    open_.erase(action.tid);
    ++status_.completed;
    if (!decider_->respond(call.gid, call.inv, action, idx)) {
      // The response lies in the window being filled.
      violation(status_.windows_checked + 1);
      return;
    }
  }
  if (++buffered_ >= options_.window) check_window();
}

void IncrementalChecker::push(const History& history) {
  for (const Action& a : history.actions()) push(a);
}

void IncrementalChecker::check_window() {
  buffered_ = 0;
  ++status_.windows_checked;
  if (!decider_->close_window()) {
    violation(status_.windows_checked);
    return;
  }
  sync_counters();
}

void IncrementalChecker::finish() {
  if (status_.finished) return;
  if (status_.ok && buffered_ > 0) check_window();
  if (status_.ok) {
    if (decider_->finish(options_.complete_pending)) {
      sync_counters();
    } else {
      violation(status_.windows_checked);
    }
  }
  status_.finished = true;
}

std::optional<CaTrace> IncrementalChecker::witness() const {
  if (!status_.ok || !status_.finished || !options_.track_witness) {
    return std::nullopt;
  }
  std::vector<CaElement> elements;
  decider_->witness(elements);
  return CaTrace(std::move(elements));
}

}  // namespace cal::engine
