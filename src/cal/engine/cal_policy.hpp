// CAL membership (Def. 6) as a search-engine policy — the one policy
// behind every CAL search: CalChecker's batch check, each window of the
// streaming IncrementalChecker, and LinChecker's engine path, which runs
// it over SeqAsCaSpec (linearizability w.r.t. S is CAL w.r.t.
// SeqAsCaSpec(S), §3).
//
// Nodes are Wing–Gong states (spec state, fired-set, #completed fired);
// successors fire one CA-element: a non-empty subset of enabled operations
// of one object (enabled = every real-time predecessor already fired, so
// candidate sets are automatically ≺H-antichains), enumerated largest
// first with CaSpec::compatible pruning partial subsets together with all
// their supersets, and each subset stepped through the per-search spec
// memo. The goal is every completed operation fired. Labels are the fired
// CA-elements, so an accept-mode witness is exactly a trace T ∈ 𝒯 with
// H^c ⊑CAL T.
//
// The callers differ only in their roots and in what pending operations
// may do (Pending). A batch check starts from one root at the spec's
// initial state. A stream window starts from the stream's frontier, over
// the operations still active, and runs in collect mode; its pending
// operations may still respond, so each node also carries the returns it
// committed them to.
//
// Objects are visited in reverse order of their first enabled operation —
// the order the pre-engine checker's per-node hash map iterated in for up
// to two objects — so with the sequential driver and exact dedup this
// policy is bit-for-bit the historical CalChecker, witness included, on
// histories of at most two objects. With three or more, the hash map's
// order depended on the symbols' ids; the reverse-first-enabled order is
// the deterministic rule for every object count. On one object with
// singleton elements it fires enabled operations in index order, the
// Wing–Gong order that tests/cal/data/policy_pins.txt holds LinChecker's
// counters and witnesses to.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/engine/policy_base.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/history.hpp"
#include "cal/history_index.hpp"
#include "cal/spec.hpp"
#include "cal/value.hpp"

namespace cal::engine {

/// Memo key for spec.step(state, object, element): the chosen operations
/// are identified by their indices in the search's fixed array, so the key
/// pins the query exactly without serializing Values (cal/step_cache.hpp).
inline void encode_cal_step_key(const SpecState& state, Symbol object,
                                std::span<const std::size_t> chosen,
                                StepKey& out) {
  out.clear();
  out.reserve(2 + chosen.size() + state.size());
  out.push_back(static_cast<std::int64_t>(object.id()));
  out.push_back(static_cast<std::int64_t>(chosen.size()));
  for (std::size_t i : chosen) {
    out.push_back(static_cast<std::int64_t>(i));
  }
  out.insert(out.end(), state.begin(), state.end());
}

/// Reusable scratch of one CalPolicy::expand call.
struct CalExpandScratch {
  /// One object's candidates: candidates[first, first + count).
  struct Group {
    std::uint32_t object;  ///< dense object index
    std::size_t first;
    std::size_t count;
  };
  std::vector<std::size_t> enabled;     ///< candidate ops, ascending
  std::vector<std::size_t> candidates;  ///< the same ops, grouped by object
  std::vector<Group> groups;            ///< by first enabled operation
  /// Per dense object: 1 + its index in `groups`, or 0. All zero between
  /// calls.
  std::vector<std::uint32_t> group_of;
  std::vector<std::size_t> chosen;
  std::vector<Operation> chosen_ops;
  StepKey key;
};

/// What a search may do with the operations its records leave pending.
enum class Pending {
  /// Never fire them: the batch verdict without completion.
  kDrop,
  /// Fire them with the return the spec chooses (completion by response
  /// extension, Def. 2): the batch default.
  kComplete,
  /// Fire them as kComplete does, but they may still respond: a stream
  /// window. Firing one commits to the spec's return, and the commitment
  /// joins the node and its key, so explanations differing only in a
  /// committed return stay distinct; the stream drops the ones a later
  /// response contradicts.
  kOpen,
};

class CalPolicy {
 public:
  struct Node {
    SpecState state;
    StateMask fired;
    std::size_t fired_completed = 0;
    /// A prefix of the response order known to have fired (the parent's
    /// fired_prefix), where this node's walk resumes; not part of its
    /// identity.
    std::size_t prefix = 0;
    /// Pending::kOpen only: (operation index, committed return) of each
    /// fired pending operation, ascending by index.
    std::vector<std::pair<std::uint32_t, Value>> pending_rets;
    /// The root this node grew from (not part of its identity: any root
    /// reaching a node explains it). A stream stitches witnesses by it.
    std::uint32_t root = 0;
  };
  using Label = CaElement;

  /// `roots`: the search's entry points — batch_roots(spec, ops) for a
  /// batch check, a stream's frontier for one of its windows.
  CalPolicy(const std::vector<OpRecord>& ops, const CaSpec& spec,
            Pending pending, std::vector<Node> roots, bool symmetry = false)
      : ops_(ops),
        spec_(spec),
        pending_(pending),
        roots_(std::move(roots)),
        index_(ops),
        object_of_(ops.size()) {
    std::vector<std::uint32_t> objects(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      objects[i] = ops[i].op.object.id();
    }
    std::sort(objects.begin(), objects.end());
    objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      object_of_[i] = static_cast<std::uint32_t>(
          std::lower_bound(objects.begin(), objects.end(),
                           ops[i].op.object.id()) -
          objects.begin());
    }
    objects_ = objects.size();
    if (symmetry) build_groups();
  }

  /// A batch check's roots: one node, nothing fired, at the spec's
  /// initial state.
  [[nodiscard]] static std::vector<Node> batch_roots(
      const CaSpec& spec, const std::vector<OpRecord>& ops) {
    std::vector<Node> roots(1);
    roots[0].state = spec.initial();
    roots[0].fired.assign((ops.size() + 63) / 64, 0);
    return roots;
  }

  /// Hands the roots to the driver, which asks once per search.
  std::vector<Node> roots() { return std::move(roots_); }

  bool is_goal(const Node& n) const {
    return n.fired_completed == index_.completed();
  }

  /// With symmetry groups, the dedup key identifies nodes up to swapping
  /// fired/unfired status *within* a group: grouped bits are cleared from
  /// the fired mask and replaced by per-group fired counts. Sound because
  /// group members are spec-interchangeable (CaSpec::symmetry_class) and
  /// have identical real-time constraints in both directions — the same
  /// predecessor prefix and the same successor set — so any within-group
  /// permutation maps enabled candidate sets to enabled candidate sets and
  /// spec steps to equal spec steps (DESIGN.md). Under Pending::kOpen the
  /// committed returns follow, as exact value keys.
  void encode(const Node& n, NodeKey& out) const {
    if (groups_.empty()) {
      encode_state_and_masks(n.state, {&n.fired}, out);
    } else {
      StateMask masked = n.fired;
      for (std::size_t w = 0; w < masked.size(); ++w) {
        masked[w] &= ~grouped_mask_[w];
      }
      encode_state_and_masks(n.state, {&masked}, out);
      for (const std::vector<std::size_t>& members : groups_) {
        std::int64_t fired = 0;
        for (std::size_t i : members) {
          if (mask_test(n.fired, i)) ++fired;
        }
        out.push_back(fired);
      }
    }
    if (pending_ != Pending::kOpen) return;
    out.push_back(static_cast<std::int64_t>(n.pending_rets.size()));
    for (const auto& [i, v] : n.pending_rets) {
      out.push_back(static_cast<std::int64_t>(i));
      v.encode(out);
    }
  }

  void on_enter(const Node&, std::size_t) {}

  /// Dedup-hit attribution (engine hook): a hit on a node where some group
  /// is *partially* fired may have merged a genuinely distinct fired set —
  /// an upper bound on the merges classic dedup would have missed.
  void on_dedup(const Node& n) {
    if (groups_.empty()) return;
    for (const std::vector<std::size_t>& members : groups_) {
      std::size_t fired = 0;
      for (std::size_t i : members) {
        if (mask_test(n.fired, i)) ++fired;
      }
      if (fired != 0 && fired != members.size()) {
        ++symmetry_merged_;
        return;
      }
    }
  }

  bool cancelled() const { return false; }

  /// Successors fire one candidate CA-element each: a non-empty subset of
  /// the enabled operations of one object, enumerated largest first (the
  /// common witness shape of CA-objects, e.g. exchanger swaps, comes first)
  /// with CaSpec::compatible pruning every superset of an incompatible set;
  /// each survivor is stepped through the per-search memo. The per-node
  /// working set lives in a ScratchLease, so expanding a node allocates
  /// nothing of its own once the scratch has grown. In collect mode (a
  /// stream window) the driver never expands a goal: past a goal lie only
  /// pending operations, and the next window reaches them from the goal as
  /// a root.
  template <typename Emit>
  void expand(const Node& node, std::size_t /*depth*/,
              const std::vector<Label>& /*prefix*/, Emit&& emit) {
    const std::size_t prefix = index_.fired_prefix(node.fired, node.prefix);
    each_element(
        node.state, node.fired, prefix,
        [&](std::span<const std::size_t> chosen, std::size_t newly_completed,
            const std::vector<CaStepResult>& outcomes) {
          for (const CaStepResult& sr : outcomes) {
            ++fired_elements_;
            Node next{sr.next, node.fired,
                      node.fired_completed + newly_completed, prefix,
                      node.pending_rets, node.root};
            for (std::size_t i : chosen) mask_set(next.fired, i);
            if (pending_ == Pending::kOpen &&
                newly_completed < chosen.size()) {
              commit_pending_returns(chosen, sr.element, next.pending_rets);
            }
            if (!emit(std::move(next), CaElement(sr.element))) return false;
          }
          return true;
        });
  }

  [[nodiscard]] std::size_t fired_elements() const {
    return fired_elements_;
  }
  [[nodiscard]] std::size_t pruned_subsets() const {
    return pruned_subsets_;
  }
  [[nodiscard]] std::size_t symmetry_merged() const {
    return symmetry_merged_;
  }
  [[nodiscard]] std::size_t step_cache_hits() const { return memo_.hits(); }
  [[nodiscard]] std::size_t step_cache_misses() const {
    return memo_.misses();
  }

 private:
  /// Fills s.candidates with the node's candidate operations grouped by
  /// object, and s.groups with the groups in order of first enabled
  /// operation. With `prefix` == index_.fired_prefix(fired), the enabled
  /// operations are the unfired ones below index_.scan_end(prefix) whose
  /// predecessors all lie in that prefix.
  void group_candidates(const StateMask& fired, std::size_t prefix,
                        CalExpandScratch& s) const {
    s.enabled.clear();
    s.groups.clear();
    if (s.group_of.size() < objects_) s.group_of.resize(objects_, 0);
    const std::size_t end = index_.scan_end(prefix);
    // The unfired operations below `end`, ascending, a mask word at a time.
    for (std::size_t w = 0; w * 64 < end; ++w) {
      for (std::uint64_t open = ~fired[w]; open != 0; open &= open - 1) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(std::countr_zero(open));
        if (i >= end) break;
        if (index_.pred_count(i) > prefix) continue;
        if (ops_[i].is_pending() && pending_ == Pending::kDrop) continue;
        std::uint32_t& g = s.group_of[object_of_[i]];
        if (g == 0) {
          s.groups.push_back({object_of_[i], 0, 0});
          g = static_cast<std::uint32_t>(s.groups.size());
        }
        ++s.groups[g - 1].count;
        s.enabled.push_back(i);
      }
    }
    if (s.groups.size() <= 1) {
      s.candidates.swap(s.enabled);
    } else {
      // Counting sort by group; `count` doubles as the fill cursor.
      std::size_t at = 0;
      for (CalExpandScratch::Group& grp : s.groups) {
        grp.first = at;
        at += grp.count;
        grp.count = 0;
      }
      s.candidates.resize(s.enabled.size());
      for (std::size_t i : s.enabled) {
        CalExpandScratch::Group& grp = s.groups[s.group_of[object_of_[i]] - 1];
        s.candidates[grp.first + grp.count++] = i;
      }
    }
    for (const CalExpandScratch::Group& grp : s.groups) {
      s.group_of[grp.object] = 0;
    }
  }

  /// Calls `fire(chosen, newly_completed, outcomes)` for every candidate
  /// element of the node (state, fired) with fired prefix `prefix`:
  /// `chosen` are its operations' indices, ascending; `newly_completed`
  /// counts the completed ones; `outcomes` are the spec's results, each a
  /// successor. Stops when `fire` returns false.
  template <typename Fire>
  void each_element(const SpecState& state, const StateMask& fired,
                    std::size_t prefix, Fire&& fire) {
    ScratchLease<CalExpandScratch> scratch;
    CalExpandScratch& s = *scratch;
    group_candidates(fired, prefix, s);
    for (std::size_t g = s.groups.size(); g-- > 0;) {
      const std::span<const std::size_t> candidates(
          s.candidates.data() + s.groups[g].first, s.groups[g].count);
      const Symbol object = ops_[candidates.front()].op.object;
      const std::size_t cap =
          spec_.max_element_size() == 0
              ? candidates.size()
              : std::min(spec_.max_element_size(), candidates.size());
      for (std::size_t size = cap; size >= 1; --size) {
        s.chosen.clear();
        s.chosen_ops.clear();
        if (!try_subsets(state, object, candidates, 0, size, s, fire)) {
          return;
        }
      }
    }
  }

  /// Extends s.chosen by `remaining` of candidates[from, ...) and steps
  /// each complete choice through the memo. False = the driver asked to
  /// stop (goal found / cancelled).
  template <typename Fire>
  bool try_subsets(const SpecState& state, Symbol object,
                   std::span<const std::size_t> candidates, std::size_t from,
                   std::size_t remaining, CalExpandScratch& s, Fire& fire) {
    if (remaining == 0) {
      std::size_t newly_completed = 0;
      for (std::size_t i : s.chosen) {
        if (!ops_[i].is_pending()) ++newly_completed;
      }
      encode_cal_step_key(state, object, s.chosen, s.key);
      const std::vector<CaStepResult>& outcomes = memo_.find_or_insert(
          s.key, [&] { return spec_.step(state, object, s.chosen_ops); });
      return fire(std::span<const std::size_t>(s.chosen), newly_completed,
                  outcomes);
    }
    for (std::size_t i = from; i + remaining <= candidates.size(); ++i) {
      s.chosen.push_back(candidates[i]);
      s.chosen_ops.push_back(ops_[candidates[i]].op);
      bool keep_going = true;
      if (!spec_.compatible(object, s.chosen_ops)) {
        ++pruned_subsets_;
      } else {
        keep_going = try_subsets(state, object, candidates, i + 1,
                                 remaining - 1, s, fire);
      }
      s.chosen.pop_back();
      s.chosen_ops.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  /// Records the returns the spec chose for the element's pending
  /// operations (matched by thread: co-fired operations overlap in real
  /// time, so their threads are distinct).
  void commit_pending_returns(
      std::span<const std::size_t> chosen, const CaElement& element,
      std::vector<std::pair<std::uint32_t, Value>>& pending_rets) const {
    for (std::size_t i : chosen) {
      if (!ops_[i].is_pending()) continue;
      for (const Operation& op : element.ops()) {
        if (op.tid != ops_[i].op.tid || !op.ret.has_value()) continue;
        const auto entry =
            std::make_pair(static_cast<std::uint32_t>(i), *op.ret);
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

  /// Partitions the completed operations into interchangeability groups.
  /// Two operations may share a group only when
  ///   * the spec declares them interchangeable (equal nonzero
  ///     symmetry_class for their object),
  ///   * they have the same real-time predecessors (equal pred-prefix
  ///     length — predecessor lists are prefixes of one response-sorted
  ///     order), and
  ///   * they constrain the same successors: their positions in the
  ///     response-sorted order fall on the same side of every distinct
  ///     predecessor-count threshold.
  /// Groups of size 1 are dropped — they reduce nothing.
  void build_groups() {
    const std::size_t n = ops_.size();
    // Each completed op's position in the response-sorted order.
    const std::span<const std::size_t> by_res = index_.by_response();
    std::vector<std::size_t> pos(n, 0);
    for (std::size_t p = 0; p < by_res.size(); ++p) pos[by_res[p]] = p;
    // Successor bucket: how many distinct thresholds lie at or below the
    // op's response-sorted position (ops in the same bucket are
    // predecessors of exactly the same set of operations).
    std::vector<std::size_t> thresholds(n);
    for (std::size_t i = 0; i < n; ++i) thresholds[i] = index_.pred_count(i);
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    auto bucket = [&thresholds](std::size_t p) {
      return static_cast<std::size_t>(
          std::upper_bound(thresholds.begin(), thresholds.end(), p) -
          thresholds.begin());
    };
    // Group by (object, class, pred_count, bucket).
    struct GroupKey {
      std::uint32_t object;
      std::uint64_t cls;
      std::size_t preds;
      std::size_t bucket;
      bool operator==(const GroupKey&) const = default;
    };
    std::vector<std::pair<GroupKey, std::size_t>> found;  // key -> group idx
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < n; ++i) {
      if (ops_[i].is_pending()) continue;
      const std::uint64_t cls =
          spec_.symmetry_class(ops_[i].op.object, ops_[i].op);
      if (cls == 0) continue;
      const GroupKey key{ops_[i].op.object.id(), cls, index_.pred_count(i),
                         bucket(pos[i])};
      std::size_t g = groups.size();
      for (const auto& [fk, fg] : found) {
        if (fk == key) {
          g = fg;
          break;
        }
      }
      if (g == groups.size()) {
        found.emplace_back(key, g);
        groups.emplace_back();
      }
      groups[g].push_back(i);
    }
    grouped_mask_.assign((n + 63) / 64, 0);
    for (std::vector<std::size_t>& g : groups) {
      if (g.size() < 2) continue;
      for (std::size_t i : g) mask_set(grouped_mask_, i);
      groups_.push_back(std::move(g));
    }
  }

  const std::vector<OpRecord>& ops_;
  const CaSpec& spec_;
  Pending pending_;
  std::vector<Node> roots_;
  HistoryIndex index_;
  /// Dense object index of each operation, and the number of objects.
  std::vector<std::uint32_t> object_of_;
  std::size_t objects_ = 0;
  StepMemo<CaStepResult> memo_;
  std::size_t pruned_subsets_ = 0;
  /// Interchangeability groups (≥ 2 members each) and the bit-mask of all
  /// grouped operations; both empty when symmetry is off or inapplicable.
  std::vector<std::vector<std::size_t>> groups_;
  StateMask grouped_mask_;
  std::size_t fired_elements_ = 0;
  std::size_t symmetry_merged_ = 0;
};

}  // namespace cal::engine
