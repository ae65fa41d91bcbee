// Streaming (incremental) CAL membership checking.
//
// The batch CalChecker re-searches the whole history on every query. This
// frontend instead consumes actions *as they are published* — from a
// runtime::Recorder cursor, a file tail, or any other action stream — and
// re-decides membership window-by-window with bounded latency: a violation
// is reported within one window of the response that causes it, and the
// final verdict after finish() equals the batch verdict on the full
// history.
//
// The checker itself keeps what the whole stream shares: well-formedness
// (the thread table and the three malformed-stream rules, checked once on
// the whole stream), the window count, and the status. It hands each
// action to one decision procedure, chosen as CalChecker chooses its path
// (IncrementalOptions::order_check mirrors CalCheckOptions::order_check):
//
//  * Object split — a spec with parts (UnionCaSpec) is decided object by
//    object: CAL is local (DESIGN.md § "Locality"), so each object's
//    sub-stream goes to its own procedure, and at every window boundary of
//    the whole stream each part that received actions closes its window.
//    A completed operation on an unregistered object is a violation. The
//    witness merges the parts' witnesses by the point rule
//    (merge_part_witnesses).
//  * Online pairing — an exchanger or synchronous-queue object is decided
//    by engine::PairingMonitor, the online form of the batch pairing
//    decision: no search, a violation reported at the response that makes
//    the stream unexplainable, and a compact witness built only by
//    witness().
//  * Engine windows — every other spec, and every spec with order_check
//    off (where a union runs as the product of its parts, the differential
//    oracle):
//
// After window w the engine holds the *frontier*: every search state in
// which all operations completed by the end of window w have fired (plus
// any subset of still-pending invocations, whose return values the spec
// chose). The frontier is complete because every operation completed by
// window w precedes — in real time — every operation invoked later, so any
// witness for any extension must fire all of them before anything newer:
// every witness threads through a frontier state. Window w+1 then runs the
// batch checker's own search, engine::CalPolicy (engine/cal_policy.hpp),
// in collect mode: the frontier is its roots, the active operations its
// alphabet, and its goal states the new frontier. A batch check is the
// one-window case: one root at the spec's initial state, every operation
// active. An empty frontier is a violation (engine-equivalence tests pin
// the final verdict on the whole corpus).
//
// Two mechanisms keep the engine windows sound and scalable:
//
//  * pending returns — firing a still-pending invocation commits to the
//    return value the spec chose (Pending::kOpen). Each frontier entry
//    records these choices; when the real response arrives, entries that
//    guessed a different value are dropped. The guess is part of the
//    window-search node key as the value's exact key (Value::encode), so
//    explanations differing only in a guess are never merged;
//  * retirement — an operation that has completed and is fired in *every*
//    frontier entry can never be unfired: it leaves the active set, so
//    window searches and node encodings scale with the (small) set of
//    still-undecided operations, not with the length of the run.
//
// Nothing per window depends on the length of the run: the engine stores
// only the active operations (retirement erases them), the pairing
// monitor only the open and owed ones (plus, with track_witness, one
// compact entry per operation for witness()), and a frontier entry
// carries its witness as a pointer into a chain of shared, immutable
// per-window segments (WitnessSegment) rather than as a copy of the trace.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cal/action.hpp"
#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/spec.hpp"
#include "cal/thread_table.hpp"
#include "cal/value.hpp"

namespace cal::engine {

struct IncrementalOptions {
  /// Actions consumed between window checks (the violation-detection
  /// latency bound). finish() checks any shorter remainder.
  std::size_t window = 16;
  /// Per-window node cap; 0 = unlimited. Tripping it makes the stream
  /// verdict inconclusive (`exhausted`), mirroring the batch checker.
  std::size_t max_visited = 0;
  /// Accept explanations that fire invocations left pending at the end of
  /// the stream (completion by response extension), as in CalCheckOptions.
  /// Window searches always fire mid-stream pending operations — those may
  /// still complete later — so with this off the restriction is applied at
  /// finish(): explanations that fired a never-completed operation are
  /// discarded.
  bool complete_pending = true;
  /// Exact stored-key dedup instead of 128-bit fingerprints.
  bool exact_visited = false;
  /// Keep a witness trace for every frontier entry (and the pairing
  /// monitor's decided elements). It is the one piece of state that grows
  /// with the stream (the trace itself is O(stream)): off drops that
  /// memory, leaving only the active operations and the frontier, and
  /// witness() is then unavailable.
  bool track_witness = true;
  /// Decide by the order paths, as CalCheckOptions::order_check does in
  /// batch: a spec with parts object by object, and an exchanger or
  /// synchronous-queue object by the online pairing monitor instead of
  /// window searches. Off, every window runs the engine search on the
  /// whole spec (a union as the product of its parts).
  bool order_check = true;
};

struct IncrementalStatus {
  /// No violation so far (final verdict once `finished`).
  bool ok = true;
  /// A window search hit max_visited; `ok` is then inconclusive-negative.
  bool exhausted = false;
  /// finish() was called; `ok` is the batch-equivalent verdict.
  bool finished = false;
  std::size_t actions_consumed = 0;
  std::size_t operations = 0;  ///< invocations seen
  std::size_t completed = 0;   ///< responses seen
  /// Window boundaries of the whole stream passed (every `window` actions,
  /// and finish()'s remainder).
  std::size_t windows_checked = 0;
  /// Surviving explanations after the last window check (0 once a
  /// violation has emptied the frontier); split by object, the product of
  /// the parts' counts, where the pairing monitor's is 1.
  std::size_t frontier_size = 1;
  /// Operations still in play: for window searches those not retired, for
  /// the pairing monitor the open calls.
  std::size_t active_ops = 0;
  /// Completed operations fired in every surviving explanation (for the
  /// pairing monitor, every completed operation: an owed one waits only
  /// for an open partner, as a retired one whose partner fired pending
  /// does in the engine windows).
  std::size_t retired_ops = 0;
  /// Cumulative engine nodes over all window searches (the pairing monitor
  /// searches none).
  std::size_t visited_states = 0;
  /// 1-based window of the violation (the window containing the response
  /// that made the stream unexplainable); 0 = none.
  std::size_t violation_window = 0;
  /// Human-readable cause when !ok.
  std::string reason;
};

/// One window's piece of a witness trace: the CA-elements a window search
/// fired on its way to one explanation, after the segment of the frontier
/// entry it grew from. Segments are immutable and shared by every
/// explanation that descends from them, so carrying a witness into the
/// next window costs a pointer, not a copy of the trace so far.
class WitnessSegment {
 public:
  WitnessSegment(std::shared_ptr<const WitnessSegment> parent,
                 std::vector<CaElement> elements);
  /// Releases the earlier segments that only this one kept alive in a
  /// loop, not recursively: a chain as long as the stream would overflow
  /// the stack.
  ~WitnessSegment();
  WitnessSegment(const WitnessSegment&) = delete;
  WitnessSegment& operator=(const WitnessSegment&) = delete;

  /// Every element from the start of the stream through `last`, in order
  /// (empty for a null chain).
  [[nodiscard]] static std::vector<CaElement> trace(
      const WitnessSegment* last);

 private:
  /// The earlier windows; null at the start of the stream.
  std::shared_ptr<const WitnessSegment> parent_;
  std::vector<CaElement> elements_;
};

namespace detail {
/// One decision procedure for a stream or for one object's part of it
/// (defined in incremental.cpp).
class StreamDecider;
}  // namespace detail

class IncrementalChecker {
 public:
  explicit IncrementalChecker(const CaSpec& spec,
                              IncrementalOptions options = {});
  ~IncrementalChecker();
  IncrementalChecker(const IncrementalChecker&) = delete;
  IncrementalChecker& operator=(const IncrementalChecker&) = delete;

  /// Consumes one action; runs a window check every `options.window`
  /// actions. After a violation (or finish()) further pushes are ignored.
  void push(const Action& action);

  /// Convenience: push every action of `history` in order.
  void push(const History& history);

  /// Checks the buffered remainder and seals the verdict: afterwards
  /// status().ok equals CalChecker::check on the full consumed history
  /// with the same order_check (modulo `exhausted` and the fingerprint
  /// false-prune risk).
  void finish();

  [[nodiscard]] bool ok() const noexcept { return status_.ok; }
  /// Threads with an open call. A response erases its thread from the
  /// open-call table, so the table stays this small however many thread
  /// ids a stream names.
  [[nodiscard]] std::size_t open_threads() const noexcept {
    return open_.size();
  }
  [[nodiscard]] const IncrementalStatus& status() const noexcept {
    return status_;
  }
  /// True when an order path (the pairing monitor) decides some object of
  /// the stream instead of window searches; the engine's own options
  /// (exact_visited, max_visited) have no effect there.
  [[nodiscard]] bool order_decided() const;

  /// On acceptance (after finish(), with track_witness): a witness trace
  /// explaining every completed operation of the stream.
  [[nodiscard]] std::optional<CaTrace> witness() const;

 private:
  /// The open call of one thread.
  struct OpenCall {
    std::size_t gid = 0;  ///< the operation's number in the stream
    std::size_t inv = 0;  ///< its invocation's action index
    Symbol object;
    Symbol method;
  };

  void fail(std::string reason);
  /// Records the decider's violation, found in `window`.
  void violation(std::size_t window);
  void check_window();
  /// Copies the decider's counters into the status.
  void sync_counters();

  IncrementalOptions options_;
  IncrementalStatus status_;
  ThreadTable open_;  ///< tid → slot in calls_; a response erases its tid
  std::vector<OpenCall> calls_;
  std::vector<std::size_t> free_calls_;  ///< reusable slots of calls_
  std::size_t buffered_ = 0;  ///< actions since the last window check
  std::unique_ptr<detail::StreamDecider> decider_;
};

}  // namespace cal::engine
