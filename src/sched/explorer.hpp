// Exhaustive interleaving exploration.
//
// Depth-first enumeration of every schedule of the simulated program, one
// atomic step (shared access / nondeterministic choice) at a time. Two
// modes:
//
//   * merged (default): worlds are hashed and converged schedules explored
//     once. Sound for the online audit (L1-L3 and the rely/guarantee
//     auditor are per-step checks, so equal states have equal futures);
//     this is what makes 3-thread exchanger configurations tractable.
//   * enumerating (merge_states = false, record_history = true): every
//     interleaving is walked to a terminal state and its complete history
//     (plus final raw 𝒯) collected — the input for the *offline* checkers,
//     which cross-validate the online audit in the test suite.
//
// A TransitionAuditor hook observes every (pre, post, actor) transition and
// every reached state; the rely/guarantee audit of Fig. 4 (sched/rg.hpp) is
// implemented as one.
//
// The walk is one engine policy (ExplorePolicy in explorer.cpp) run by the
// shared search engine (cal/engine/search_engine.hpp) in collect mode:
// worlds are nodes, schedule steps are labels, terminal states are goals.
// One thread runs it on the sequential driver, more threads on the
// engine's work-stealing ParallelSearch. With `check_spec` set, every
// collected terminal history is additionally checked for CAL membership by
// the streaming checker (cal/engine/incremental.hpp) as a post-pass.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cal/spec.hpp"
#include "sched/world.hpp"

namespace cal::sched {

class TransitionAuditor {
 public:
  virtual ~TransitionAuditor() = default;

  /// Checks one transition by `actor`; a returned string is a violation.
  [[nodiscard]] virtual std::optional<std::string> check_transition(
      const World& pre, const World& post, ThreadId actor) const = 0;

  /// Checks a state invariant (the paper's J); called on every new state.
  [[nodiscard]] virtual std::optional<std::string> check_invariant(
      const World& world) const = 0;
};

struct ExploreOptions {
  bool merge_states = true;
  /// Hard cap on distinct states (0 = unlimited); trips `exhausted`.
  std::size_t max_states = 0;
  bool stop_on_first_violation = true;
  /// Collect unique terminal histories/traces (needs record_history /
  /// record_trace in the WorldConfig; usually with merge_states = false).
  bool collect_terminals = false;
  /// Worker threads (1 = the sequential engine, bit-for-bit the historical
  /// behavior; 0 = one per hardware thread). With more than one thread the
  /// same walk runs on the engine's work-stealing parallel driver, whose
  /// workers share the state-merging table. Verdicts (and, absent
  /// violations and caps, the states/transitions/terminals counters) are
  /// identical to the sequential engine. The reported violation is the one
  /// found whose schedule sorts first in expansion order (thread index,
  /// then choice, flush steps last); with merge_states off that is exactly
  /// the sequential engine's. Under merge_states the schedule can differ
  /// from run to run (it is always a real, replayable counterexample). The
  /// order of collected histories, and of violations when
  /// stop_on_first_violation is off, is unspecified.
  std::size_t threads = 1;
  /// When set (together with collect_terminals), every collected terminal
  /// history is checked for CAL membership against this spec with the
  /// streaming checker; verdicts land in ExploreResult::history_verdicts
  /// and failures in ExploreResult::check_failures. The spec must outlive
  /// the exploration.
  const CaSpec* check_spec = nullptr;
  /// Window size for the post-pass streaming checks.
  std::size_t check_window = 16;
  /// Dynamic partial-order reduction: sleep sets over the Env layer's
  /// per-step footprints prune interleavings that only commute pure yield
  /// operations (disjoint cells, or both loads). Sound for verdicts,
  /// events, and terminal histories — every invoke/respond/append step is
  /// dependent with everything, so each pruned interleaving has an
  /// explored representative with the identical history (DESIGN.md).
  /// Forced off while a TransitionAuditor is attached: the auditor must
  /// observe every transition, including the pruned ones.
  bool por = false;
  /// Thread-symmetry canonicalization: worlds that differ only by a
  /// renaming of identically-programmed threads merge in the visited set
  /// (WorldCanon in sched/world.hpp; requires its value discipline, else
  /// it deactivates itself). Also forced off under an auditor.
  bool symmetry = false;
  /// Memory model of the simulated machine. kTso adds per-thread store
  /// buffers and nondeterministic flush transitions (sched/sim_memory.hpp).
  /// kSc here defers to the WorldConfig's own memory_model, so either
  /// surface can select TSO; setting kTso overrides the config.
  MemoryModel memory_model = MemoryModel::kSc;
};

/// One step of a recorded schedule: which thread acted, and the value of
/// the nondeterministic choice it consumed (-1 = none). A flush step
/// (TSO) makes the thread's oldest buffered write globally visible
/// instead of running the thread's program.
struct ScheduleStep {
  ThreadId tid = 0;
  std::int32_t choice = -1;
  bool flush = false;

  friend bool operator==(const ScheduleStep&, const ScheduleStep&) = default;
};

struct ScheduleViolation {
  std::string what;
  /// Every step up to and including the violating one — a replayable
  /// counterexample (see Explorer::replay).
  std::vector<ScheduleStep> schedule;

  [[nodiscard]] std::string to_string() const;
};

struct ExploreResult {
  std::size_t states = 0;       ///< distinct states visited
  std::size_t transitions = 0;  ///< steps executed (incl. merged re-entries)
  std::size_t merged = 0;       ///< prunes due to visited-set hits
  std::size_t terminals = 0;    ///< terminal states reached
  std::size_t max_depth = 0;
  /// Expansions skipped by POR (ExploreOptions::por): the thread was in
  /// the node's sleep set, or the child was covered by a smaller
  /// already-explored sleep mask for the same state (subsumption).
  std::size_t por_pruned = 0;
  /// Visited-set hits whose key came from a non-identity thread renaming
  /// (ExploreOptions::symmetry): merges classic dedup would have missed.
  std::size_t symmetry_merged = 0;
  /// TSO flush transitions executed (0 under kSc).
  std::size_t flush_steps = 0;
  /// High-water mark of total buffered writes over all reached states.
  std::size_t buffered_max = 0;
  /// Max blocks handed out by the recycler along any reached path
  /// (0 without WorldConfig::recycle_addresses).
  std::size_t recycled_allocs = 0;
  /// High-water mark of the retired-pending set over all reached states.
  std::size_t retired_max = 0;
  bool exhausted = false;
  /// OR of World::events() over every reached state (reachability beacons).
  std::uint64_t events = 0;
  std::vector<ScheduleViolation> violations;
  std::vector<History> histories;  ///< unique terminal histories
  std::vector<CaTrace> traces;     ///< final raw 𝒯 per collected history
  /// With ExploreOptions::check_spec: streaming-checker verdict for each
  /// entry of `histories` (same indexing).
  std::vector<bool> history_verdicts;
  /// Human-readable reasons for each false entry of history_verdicts.
  std::vector<std::string> check_failures;

  /// No schedule violations and no failed history checks.
  [[nodiscard]] bool ok() const noexcept {
    return violations.empty() && check_failures.empty();
  }
};

class Explorer {
 public:
  Explorer(const WorldConfig& config,
           std::vector<std::unique_ptr<SimObject>> objects,
           ExploreOptions options = {});

  void set_auditor(const TransitionAuditor* auditor) { auditor_ = auditor; }

  [[nodiscard]] ExploreResult run();

  /// Deterministically re-executes a recorded schedule from the initial
  /// world (e.g. a violation's counterexample) and returns the resulting
  /// world — histories, traces, and the violation (if any) can then be
  /// inspected. Steps beyond a violation or past thread completion stop
  /// the replay. Enable `record` to capture history/trace regardless of
  /// the exploration config.
  [[nodiscard]] World replay(const std::vector<ScheduleStep>& schedule,
                             bool record = true);

 private:
  /// The walk: the engine collect driver over ExplorePolicy<kShared>
  /// (explorer.cpp) — sequential, or parallel on `threads` workers.
  template <bool kShared>
  [[nodiscard]] ExploreResult walk(std::size_t threads);
  /// The check_spec post-pass over collected terminal histories.
  void check_collected(ExploreResult& result) const;

  /// Owned copy of the caller's config with ExploreOptions::memory_model
  /// applied (worlds keep a pointer to their config, so the explorer must
  /// own the adjusted one for its whole lifetime).
  WorldConfig owned_config_;
  const WorldConfig& config_;
  std::vector<std::unique_ptr<SimObject>> objects_;
  ExploreOptions options_;
  const TransitionAuditor* auditor_ = nullptr;
  /// Storage for replay()'s recording-enabled config copies (worlds keep a
  /// pointer to their config, so each must outlive its returned World —
  /// one owned copy per replay call, never destroyed while the Explorer
  /// lives, so earlier replays' worlds stay valid).
  std::vector<std::unique_ptr<WorldConfig>> replay_configs_;
};

}  // namespace cal::sched
