// The unified search core behind every checker in this library.
//
// CalChecker (Def. 5/6 membership), LinChecker (Wing–Gong), the interval
// checker, and sched::Explorer's state-space walk are all the same
// algorithm: a depth-first search over policy-defined nodes with
// deduplication on a flat int64 encoding, an optional node cap, and either
// a *first goal wins* (accept) or a *collect every goal* (collect) result
// discipline. What differs per checker — node layout, successor
// generation, spec-step memoization — lives in a Policy; what is shared —
// the DFS drivers (sequential and work-stealing parallel), the visited
// set, the cap/exhaustion bookkeeping, and the witness stack — lives here.
//
// Policy concept
// --------------
//   struct Policy {
//     struct Node;                  // copyable (the parallel driver forks)
//     struct Label;                 // one witness step (copyable)
//     std::vector<Node> roots();    // search entry points, tried in order
//     bool is_goal(const Node&);
//     void encode(const Node&, NodeKey& out);     // dedup key (out.clear()!)
//     void on_enter(const Node&, std::size_t depth);   // pre-dedup hook
//     bool cancelled() const;       // policy-side early stop
//     template <typename Emit>
//     void expand(const Node&, std::size_t depth,
//                 const std::vector<Label>& prefix, Emit&& emit);
//   };
//
// expand() calls emit(Node&&, Label&&) once per successor; the driver
// *recurses inside emit* and returns false when expansion should stop
// (goal found / cancelled), so successor generation and recursion
// interleave exactly as in a hand-written DFS — which is what keeps
// witnesses byte-identical to the pre-engine checkers. `prefix` is the
// label path from this node's root (the explorer records violation
// schedules from it; checkers ignore it).
//
// Drivers
// -------
//   SequentialSearch: plain recursive DFS, VisitedSet, witness stack.
//   ParallelSearch:   the shape proven out by the original parallel CAL
//     checker — subtree tasks forked onto a work-stealing par::TaskPool at
//     depth < kForkDepth (each task carrying a copy of its label prefix),
//     SharedVisitedSet for cross-worker dedup, cooperative cancellation
//     through an atomic flag once a goal is published (accept mode) or the
//     cap trips. Collect mode serializes sink calls under a mutex and does
//     not cancel on goals.
//
// Node-entry ordering (load-bearing for drop-in compatibility):
//   accept mode:  cancelled? → goal? → cap? → dedup insert → expand
//     (goal precedes dedup so a root that is already a goal reports
//      visited_states == 0, as the original checkers did);
//   collect mode: cancelled? → on_enter → cap? → dedup insert → count →
//                 goal? (sink, no expansion) → expand
//     (matching the explorer: depth/event accounting precedes the cap,
//      terminals are counted once per *deduped* state, and goal nodes are
//      sinks — their successors, if any, are not explored).
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "cal/engine/visited.hpp"
#include "cal/parallel/task_pool.hpp"

namespace cal::engine {

struct SearchOptions {
  /// Node cap: searches stop with `exhausted` once this many nodes have
  /// been deduplicated (0 = unbounded).
  std::size_t max_visited = 0;
  /// Store exact node encodings instead of 128-bit fingerprints.
  bool exact_visited = false;
  /// Deduplicate at all (the explorer's merge_states=false turns this off;
  /// the cap then counts entered nodes instead of deduped ones).
  bool dedup = true;
};

struct SearchStats {
  /// Accept mode: a goal was reached (witness() holds its label path).
  bool found = false;
  /// The node cap tripped; a negative verdict is inconclusive.
  bool exhausted = false;
  /// Nodes deduplicated (== nodes entered when dedup is off).
  std::size_t visited_states = 0;
  /// Peak footprint of the visited set.
  std::size_t visited_bytes = 0;
  /// Nodes pruned because their encoding was already visited.
  std::size_t dedup_hits = 0;
  /// Deepest node entered (labels from root).
  std::size_t max_depth = 0;
  /// Successors never generated thanks to partial-order reduction (filled
  /// from `policy.por_pruned()` when the policy provides it; else 0).
  std::size_t por_pruned = 0;
  /// Dedup hits that only exist because the encoding canonicalized away a
  /// symmetry (filled from `policy.symmetry_merged()` when provided).
  std::size_t symmetry_merged = 0;
};

/// Copies the policy's reduction counters into the stats when the policy
/// exposes them (detected per accessor; policies without reductions need
/// no boilerplate).
template <typename Policy>
void fill_policy_stats(Policy& policy, SearchStats& stats) {
  if constexpr (requires { policy.por_pruned(); }) {
    stats.por_pruned = policy.por_pruned();
  }
  if constexpr (requires { policy.symmetry_merged(); }) {
    stats.symmetry_merged = policy.symmetry_merged();
  }
}

/// Single-threaded driver. One instance runs one search.
template <typename Policy>
class SequentialSearch {
 public:
  using Node = typename Policy::Node;
  using Label = typename Policy::Label;

  SequentialSearch(Policy& policy, const SearchOptions& options)
      : policy_(policy), options_(options), visited_(options.exact_visited) {}

  /// Accept mode: stops at the first goal. witness() is its label path.
  SearchStats run() {
    for (Node& root : policy_.roots()) {
      if (dfs_accept(root, 0)) {
        stats_.found = true;
        break;
      }
    }
    return finish();
  }

  /// Collect mode: visits every node, feeding each goal (with the label
  /// path from its root) to `sink(const Node&, const std::vector<Label>&)`.
  template <typename Sink>
  SearchStats run_collect(Sink&& sink) {
    for (Node& root : policy_.roots()) {
      dfs_collect(root, 0, sink);
      prefix_.clear();
    }
    return finish();
  }

  [[nodiscard]] std::vector<Label>&& witness() { return std::move(prefix_); }

 private:
  SearchStats finish() {
    stats_.visited_states = options_.dedup ? visited_.size() : entered_;
    stats_.visited_bytes = visited_.bytes();
    fill_policy_stats(policy_, stats_);
    return stats_;
  }

  bool at_cap() {
    const std::size_t count = options_.dedup ? visited_.size() : entered_;
    if (options_.max_visited != 0 && count >= options_.max_visited) {
      stats_.exhausted = true;
      return true;
    }
    return false;
  }

  /// True iff the node is new (or dedup is off).
  bool enter(const Node& node) {
    if (!options_.dedup) return true;
    policy_.encode(node, scratch_);
    if (!visited_.insert(scratch_)) {
      ++stats_.dedup_hits;
      if constexpr (requires { policy_.on_dedup(node); }) {
        policy_.on_dedup(node);  // e.g. attribute the hit to a reduction
      }
      return false;
    }
    return true;
  }

  bool dfs_accept(const Node& node, std::size_t depth) {
    if (policy_.cancelled()) return false;
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    policy_.on_enter(node, depth);
    if (policy_.is_goal(node)) return true;
    if (at_cap()) return false;
    if (!enter(node)) return false;
    bool found = false;
    policy_.expand(node, depth, prefix_,
                   [&](Node&& next, Label&& label) -> bool {
                     prefix_.push_back(std::move(label));
                     found = dfs_accept(next, depth + 1);
                     if (!found) prefix_.pop_back();
                     return !found && !policy_.cancelled();
                   });
    return found;
  }

  template <typename Sink>
  void dfs_collect(const Node& node, std::size_t depth, Sink& sink) {
    // Exhaustion is sticky in collect mode, as in the parallel driver
    // (whose cancelled() folds it in): once the cap trips, nothing further
    // is expanded — the count can never come back under the cap, and
    // policy-side work counters (e.g. the explorer's transitions) should
    // freeze where the pre-engine explorers froze them.
    if (policy_.cancelled() || stats_.exhausted) return;
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    policy_.on_enter(node, depth);
    if (at_cap()) return;
    if (!enter(node)) return;
    ++entered_;
    if (policy_.is_goal(node)) {
      sink(node, prefix_);
      return;
    }
    policy_.expand(node, depth, prefix_,
                   [&](Node&& next, Label&& label) -> bool {
                     prefix_.push_back(std::move(label));
                     dfs_collect(next, depth + 1, sink);
                     prefix_.pop_back();
                     return !policy_.cancelled() && !stats_.exhausted;
                   });
  }

  Policy& policy_;
  SearchOptions options_;
  VisitedSet visited_;
  SearchStats stats_;
  std::vector<Label> prefix_;
  NodeKey scratch_;
  std::size_t entered_ = 0;  // nodes entered; the count when dedup is off
};

/// Work-stealing parallel driver. The policy is shared by all workers, so
/// its expand()/is_goal()/encode() must be thread-safe (the policies
/// achieve this with sharded step memos and atomic counters — see their
/// kShared template parameter).
template <typename Policy>
class ParallelSearch {
 public:
  using Node = typename Policy::Node;
  using Label = typename Policy::Label;

  /// Subtrees shallower than this are forked as tasks; deeper ones run
  /// inline. Depth 2 saturates tens of workers on realistic branching
  /// while keeping per-task prefix copies negligible.
  static constexpr std::size_t kForkDepth = 2;

  ParallelSearch(Policy& policy, const SearchOptions& options,
                 std::size_t threads)
      : policy_(policy),
        options_(options),
        threads_(threads),
        visited_(options.exact_visited) {}

  SearchStats run() {
    drive([this](Node&& root, std::vector<Label>&& prefix) {
      dfs_accept(std::move(root), 0, prefix);
    });
    SearchStats stats = finish();
    stats.found = found_.load(std::memory_order_acquire);
    return stats;
  }

  template <typename Sink>
  SearchStats run_collect(Sink&& sink) {
    drive([this, &sink](Node&& root, std::vector<Label>&& prefix) {
      dfs_collect(std::move(root), 0, prefix, sink);
    });
    return finish();
  }

  [[nodiscard]] std::vector<Label>&& witness() { return std::move(witness_); }

 private:
  template <typename Body>
  void drive(Body&& body) {
    par::TaskPool pool(threads_);
    pool_ = &pool;
    for (Node& root : policy_.roots()) {
      pool.submit([this, &body, root = std::move(root)]() mutable {
        body(std::move(root), std::vector<Label>());
      });
    }
    pool.wait_idle();
    pool_ = nullptr;
  }

  SearchStats finish() {
    SearchStats stats;
    stats.exhausted = exhausted_.load(std::memory_order_acquire);
    stats.visited_states = options_.dedup
                               ? visited_.size()
                               : entered_.load(std::memory_order_relaxed);
    stats.visited_bytes = visited_.bytes();
    stats.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
    stats.max_depth = max_depth_.load(std::memory_order_relaxed);
    fill_policy_stats(policy_, stats);
    return stats;
  }

  bool cancelled() const {
    return found_.load(std::memory_order_acquire) ||
           exhausted_.load(std::memory_order_acquire) || policy_.cancelled();
  }

  bool at_cap() {
    const std::size_t count = options_.dedup
                                  ? visited_count_.load(std::memory_order_relaxed)
                                  : entered_.load(std::memory_order_relaxed);
    if (options_.max_visited != 0 && count >= options_.max_visited) {
      exhausted_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  bool enter(const Node& node) {
    if (!options_.dedup) return true;
    NodeKey key;
    policy_.encode(node, key);
    if (!visited_.insert(std::move(key))) {
      dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      if constexpr (requires { policy_.on_dedup(node); }) {
        policy_.on_dedup(node);  // must be thread-safe in shared policies
      }
      return false;
    }
    visited_count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void note_depth(std::size_t depth) {
    std::size_t seen = max_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth_.compare_exchange_weak(seen, depth,
                                             std::memory_order_relaxed)) {
    }
  }

  void publish_witness(const std::vector<Label>& prefix) {
    std::lock_guard<std::mutex> lock(result_mutex_);
    if (found_.load(std::memory_order_relaxed)) return;
    witness_ = prefix;
    found_.store(true, std::memory_order_release);
  }

  /// One task: searches a subtree, forking shallow children as new tasks.
  /// `prefix` is this task's private label path from the root.
  void dfs_accept(Node&& node, std::size_t depth, std::vector<Label>& prefix) {
    if (cancelled()) return;
    note_depth(depth);
    policy_.on_enter(node, depth);
    if (policy_.is_goal(node)) {
      publish_witness(prefix);
      return;
    }
    if (at_cap()) return;
    if (!enter(node)) return;
    policy_.expand(node, depth, prefix,
                   [&](Node&& next, Label&& label) -> bool {
                     step(std::move(next), std::move(label), depth, prefix,
                          [this](Node&& n, std::size_t d,
                                 std::vector<Label>& p) {
                            dfs_accept(std::move(n), d, p);
                          });
                     return !cancelled();
                   });
  }

  template <typename Sink>
  void dfs_collect(Node&& node, std::size_t depth, std::vector<Label>& prefix,
                   Sink& sink) {
    if (cancelled()) return;
    note_depth(depth);
    policy_.on_enter(node, depth);
    if (at_cap()) return;
    if (!enter(node)) return;
    entered_.fetch_add(1, std::memory_order_relaxed);
    if (policy_.is_goal(node)) {
      std::lock_guard<std::mutex> lock(result_mutex_);
      sink(node, prefix);
      return;
    }
    policy_.expand(node, depth, prefix,
                   [&](Node&& next, Label&& label) -> bool {
                     step(std::move(next), std::move(label), depth, prefix,
                          [this, &sink](Node&& n, std::size_t d,
                                        std::vector<Label>& p) {
                            dfs_collect(std::move(n), d, p, sink);
                          });
                     return !cancelled();
                   });
  }

  /// Recurse into a successor: as a forked task (with its own prefix copy)
  /// near the root, inline below kForkDepth.
  template <typename Recurse>
  void step(Node&& next, Label&& label, std::size_t depth,
            std::vector<Label>& prefix, Recurse recurse) {
    if (depth < kForkDepth) {
      std::vector<Label> child_prefix = prefix;
      child_prefix.push_back(std::move(label));
      pool_->submit([this, recurse, next = std::move(next),
                     child_prefix = std::move(child_prefix),
                     depth]() mutable {
        recurse(std::move(next), depth + 1, child_prefix);
      });
    } else {
      prefix.push_back(std::move(label));
      recurse(std::move(next), depth + 1, prefix);
      prefix.pop_back();
    }
  }

  Policy& policy_;
  SearchOptions options_;
  std::size_t threads_;
  SharedVisitedSet visited_;
  par::TaskPool* pool_ = nullptr;

  std::atomic<bool> found_{false};
  std::atomic<bool> exhausted_{false};
  std::atomic<std::size_t> visited_count_{0};
  std::atomic<std::size_t> entered_{0};
  std::atomic<std::size_t> dedup_hits_{0};
  std::atomic<std::size_t> max_depth_{0};
  std::mutex result_mutex_;
  std::vector<Label> witness_;
};

}  // namespace cal::engine
