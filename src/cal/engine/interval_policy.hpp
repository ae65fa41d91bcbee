// Interval-linearizability as a search-engine policy.
//
// Nodes are (spec state, closed-set, open-set, #completed closed);
// successors run one per-object *round*: any non-empty set of the
// object's currently open operations plus newly starting ones (New ⊆
// startable, Close ⊆ participants enumerated by bitmask — candidate sets
// are small), stepped through the per-search round memo. An operation may
// start only when every completed real-time predecessor has closed. The
// goal is every completed operation closed and nothing half-open that the
// history says returned. A label records one round's participants with
// their starts/ends flags; since labels sit at consecutive depths, a
// witness label path *is* the round sequence, and the checker reads each
// operation's interval (first round, last round) straight off it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cal/engine/policy_base.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/history.hpp"
#include "cal/history_index.hpp"
#include "cal/interval_lin.hpp"
#include "cal/spec.hpp"

namespace cal::engine {

class IntervalPolicy {
 public:
  struct Node {
    SpecState state;
    StateMask closed;
    StateMask open;
    std::size_t closed_completed;
  };
  /// One round: each participant's operation index plus whether its
  /// interval starts and/or ends here.
  struct Label {
    struct Part {
      std::size_t op;
      bool starts;
      bool ends;
    };
    std::vector<Part> parts;
  };

  IntervalPolicy(const std::vector<OpRecord>& ops, const IntervalSpec& spec,
                 bool complete_pending)
      : ops_(ops),
        spec_(spec),
        complete_pending_(complete_pending),
        index_(ops) {}

  std::vector<Node> roots() const {
    const std::size_t words = (ops_.size() + 63) / 64;
    return {Node{spec_.initial(), StateMask(words, 0), StateMask(words, 0),
                 0}};
  }

  /// Every completed operation has closed and nothing is left half-open
  /// that the history says returned.
  bool is_goal(const Node& n) const {
    if (n.closed_completed != index_.completed()) return false;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (mask_test(n.open, i) && !ops_[i].is_pending()) return false;
    }
    return true;
  }

  void encode(const Node& n, NodeKey& out) const {
    encode_state_and_masks(n.state, {&n.closed, &n.open}, out);
  }

  void on_enter(const Node&, std::size_t) {}
  bool cancelled() const { return false; }

  template <typename Emit>
  void expand(const Node& node, std::size_t /*depth*/,
              const std::vector<Label>& /*prefix*/, Emit&& emit) {
    // Rounds are per-object: participants are the currently open operations
    // of the object plus any newly starting ones. An operation may start
    // when every real-time predecessor has *closed* (its response precedes
    // our invocation in any explanation).
    std::unordered_map<Symbol, std::vector<std::size_t>> startable;
    std::unordered_map<Symbol, std::vector<std::size_t>> open_by_object;
    const std::size_t closed_prefix = index_.fired_prefix(node.closed);
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (mask_test(node.open, i)) {
        open_by_object[ops_[i].op.object].push_back(i);
      } else if (index_.enabled(i, node.closed, closed_prefix)) {
        if (ops_[i].is_pending() && !complete_pending_) continue;
        startable[ops_[i].op.object].push_back(i);
      }
    }

    std::unordered_set<Symbol> objects;
    for (const auto& kv : startable) objects.insert(kv.first);
    for (const auto& kv : open_by_object) objects.insert(kv.first);

    for (Symbol object : objects) {
      const auto& st = startable[object];
      const auto& op = open_by_object[object];
      // Enumerate New ⊆ startable by bitmask (candidate sets are small).
      const std::size_t sn = st.size();
      for (std::size_t new_bits = 0; new_bits < (1ull << sn); ++new_bits) {
        std::vector<std::size_t> participants = op;
        std::vector<bool> starts(op.size(), false);
        for (std::size_t b = 0; b < sn; ++b) {
          if (new_bits & (1ull << b)) {
            participants.push_back(st[b]);
            starts.push_back(true);
          }
        }
        if (participants.empty()) continue;
        if (spec_.max_round_size() != 0 &&
            participants.size() > spec_.max_round_size()) {
          continue;
        }
        // Enumerate Close ⊆ participants.
        const std::size_t pn = participants.size();
        for (std::size_t close_bits = 0; close_bits < (1ull << pn);
             ++close_bits) {
          if (new_bits == 0 && close_bits == 0) continue;  // no-op round
          std::vector<IntervalOpRef> refs;
          refs.reserve(pn);
          for (std::size_t b = 0; b < pn; ++b) {
            refs.push_back(IntervalOpRef{ops_[participants[b]].op, starts[b],
                                         (close_bits >> b) & 1u ? true
                                                                : false});
          }
          if (!fire_round(node, object, participants, refs, emit)) return;
        }
      }
    }
  }

  [[nodiscard]] std::size_t step_cache_hits() const { return memo_.hits(); }
  [[nodiscard]] std::size_t step_cache_misses() const {
    return memo_.misses();
  }

 private:
  /// spec_.round through the memo. The participants' op indices plus their
  /// (starts, ends) flags pin the query exactly — the round's outcome
  /// never depends on the round number or the masks. The returned
  /// reference stays valid across the recursion.
  const std::vector<IntervalRoundResult>& rounded(
      const SpecState& state, Symbol object,
      const std::vector<std::size_t>& participants,
      const std::vector<IntervalOpRef>& refs) {
    ScratchLease<StepKey> key;
    key->clear();
    key->push_back(static_cast<std::int64_t>(object.id()));
    key->push_back(static_cast<std::int64_t>(participants.size()));
    for (std::size_t b = 0; b < participants.size(); ++b) {
      key->push_back(static_cast<std::int64_t>(
          (participants[b] << 2) | (refs[b].starts ? 1u : 0u) |
          (refs[b].ends ? 2u : 0u)));
    }
    key->insert(key->end(), state.begin(), state.end());
    return memo_.find_or_insert(
        *key, [&] { return spec_.round(state, object, refs); });
  }

  /// False = the driver asked to stop.
  template <typename Emit>
  bool fire_round(const Node& node, Symbol object,
                  const std::vector<std::size_t>& participants,
                  const std::vector<IntervalOpRef>& refs, Emit& emit) {
    for (const IntervalRoundResult& rr :
         rounded(node.state, object, participants, refs)) {
      Node next{rr.next, node.closed, node.open, node.closed_completed};
      Label label;
      label.parts.reserve(refs.size());
      for (std::size_t b = 0; b < refs.size(); ++b) {
        const std::size_t i = participants[b];
        label.parts.push_back({i, refs[b].starts, refs[b].ends});
        if (refs[b].starts) mask_set(next.open, i);
        if (refs[b].ends) {
          mask_clear(next.open, i);
          mask_set(next.closed, i);
          if (!ops_[i].is_pending()) ++next.closed_completed;
        }
      }
      if (!emit(std::move(next), std::move(label))) return false;
    }
    return true;
  }

  const std::vector<OpRecord>& ops_;
  const IntervalSpec& spec_;
  bool complete_pending_;
  HistoryIndex index_;
  StepMemo<IntervalRoundResult> memo_;
};

}  // namespace cal::engine
