// The explorer's world state and the online CAL audit.
//
// A World is one configuration of the simulated program: the shared memory,
// every thread's control state, and the audit state. Worlds are plain
// values — the explorer copies them to branch and hashes their encoding to
// merge converged schedules. The recorded history and traces are shared
// immutable values: an append builds a new value and swaps the pointer, so
// branching a world copies three pointers, not the recorded path.
//
// The online audit is the executable form of the paper's proof obligations.
// The instrumentation appends CA-elements to 𝒯 at commit points; the audit
// maintains, per thread, whether its current operation has been logged and
// with what result, and checks:
//
//   (L1) an appended element only mentions *currently executing, not yet
//        logged* operations, with matching method and argument;
//   (L2) every response returns exactly the value its operation was logged
//        with — the paper's postcondition TE|tid = T·(element);
//   (L3) the appended elements, viewed through the object's composed view
//        function 𝔽_o, replay against the interface specification
//        (T_o ∈ 𝒯spec).
//
// L1 guarantees every logged element is a set of pairwise-overlapping
// operations appended inside all its members' intervals, so the recorded
// history automatically agrees with 𝒯 (Def. 5: take π = element position);
// L2 ties the concrete return values to 𝒯; L3 ties 𝒯 to the spec. Together
// a violation-free exploration establishes CAL (Def. 6) for every schedule.
// The offline checkers cross-validate this argument on enumerated histories
// in the test suite.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/spec.hpp"
#include "cal/view.hpp"
#include "runtime/reclaim/reclaimer.hpp"
#include "sched/sim_memory.hpp"

namespace cal::sched {

using cal::ThreadId;

/// One operation a thread will perform: which simulated object (index into
/// the world's object table), which method, which argument.
struct Call {
  std::size_t object = 0;
  Symbol method;
  Value arg;
};

/// A thread's whole program: the sequence of calls it makes.
struct ThreadProgram {
  ThreadId tid = 0;
  std::vector<Call> calls;
};

/// Lifecycle of a thread's current call under the re-execution engine
/// (sched/sim_env.hpp): idle (next step invokes), running the attempt
/// body, or completed (next step replays the body to recover the return
/// value and responds).
enum class ThreadStage : std::uint8_t { kIdle = 0, kRunning = 1, kDone = 2 };

struct ThreadCtx {
  ThreadId tid = 0;
  std::size_t program = 0;   ///< index into the immutable program table
  std::size_t call_idx = 0;  ///< next / current call
  std::int32_t pc = 0;
  std::array<Word, 8> regs{};
  std::int32_t choice = -1;  ///< set by the explorer before a choice step

  // Re-execution state for Env-instantiated bodies (sched/sim_env.hpp):
  // the results of the yield operations (and allocations) already
  // committed by the current attempt, in program order. Each scheduler
  // step re-runs the body, replaying this log and committing exactly one
  // fresh yield operation.
  std::vector<Word> oplog;
  /// Frozen-read results logged under recycling (sched/sim_env.hpp
  /// load_frozen): with address reuse a "frozen" cell can be promoted and
  /// rewritten after the attempt observed it, so replays must return the
  /// recorded words. Kept out of the oplog so that log stays what the
  /// reclamation auditor scans: addresses obtained from yield-granularity
  /// shared observations (plus allocs), not data values read through them.
  std::vector<Word> frozen;
  std::uint32_t emits = 0;    ///< CA-elements already appended this call
  /// Non-yield reclamation side-effects (release/retire/free_private)
  /// already performed this attempt — the emit discipline applied to the
  /// reclamation layer (sched/sim_env.hpp). Deterministically derived
  /// from the oplog, so it needs no slot in the state encoding.
  std::uint32_t reclaims = 0;
  std::uint32_t retries = 0;  ///< attempts already abandoned this call
  ThreadStage stage = ThreadStage::kIdle;

  // Audit bookkeeping for the current operation.
  bool op_active = false;
  bool op_logged = false;
  Value op_logged_ret;

  bool truncated = false;  ///< halted at a retry bound; operation pending

  [[nodiscard]] bool done(std::size_t program_size) const noexcept {
    return truncated || call_idx >= program_size;
  }
};

/// Dependence footprint of one scheduler step, recorded by the Env layer
/// as the step executes. A step is *pure* when its only shared effect is
/// its single yield operation (load/store/CAS/choose) — no invoke,
/// respond, CA-element append, truncation, or violation. Two pure steps
/// commute iff either is a local choice, both are loads, or they touch
/// different cells; any non-pure step is dependent with everything (its
/// history action / audit effect is order-sensitive). The explorer's
/// partial-order reduction (sched/explorer.cpp) builds sleep sets from
/// these footprints; see DESIGN.md for the soundness argument.
struct StepFootprint {
  enum class Kind : std::uint8_t {
    kNone = 0,  ///< no yield op committed (invoke / respond / truncate step)
    kLoad,
    kStore,
    kUpdate,  ///< CAS, successful or not
    kLocal,   ///< choose: no shared-memory access
  };
  Kind kind = Kind::kNone;
  Addr addr = kNull;
  /// Globally visible effect beyond the yield op (invoke, respond,
  /// append_element, truncate, violation): dependent with every step.
  bool global = false;

  [[nodiscard]] bool pure() const noexcept {
    return kind != Kind::kNone && !global;
  }
};

/// Commutativity of two pure steps (non-pure steps never commute).
[[nodiscard]] inline bool footprints_independent(
    const StepFootprint& a, const StepFootprint& b) noexcept {
  if (!a.pure() || !b.pure()) return false;
  if (a.kind == StepFootprint::Kind::kLocal ||
      b.kind == StepFootprint::Kind::kLocal) {
    return true;
  }
  if (a.kind == StepFootprint::Kind::kLoad &&
      b.kind == StepFootprint::Kind::kLoad) {
    return true;
  }
  return a.addr != b.addr;
}

/// Immutable per-exploration configuration shared by all world copies.
struct WorldConfig {
  std::vector<ThreadProgram> programs;
  /// Interface name of each simulated object, indexed by Call::object.
  std::vector<Symbol> object_names;
  /// Interface-level specification used by the online replay (L3).
  const CaSpec* spec = nullptr;
  /// Composed view 𝔽 applied to every appended element before the replay
  /// and the logging marks; null = identity.
  const ViewFunction* view = nullptr;
  /// Record the interleaved history / raw trace along each path (disables
  /// nothing by itself, but meaningful mostly with merging off).
  bool record_history = false;
  bool record_trace = false;
  /// Heap cells per thread in the simulated memory.
  std::size_t heap_cells = 512;
  std::size_t global_cells = 64;
  /// Memory model of the simulated machine (sched/sim_memory.hpp). Under
  /// kTso the explorer additionally offers one flush transition per thread
  /// with a non-empty store buffer, and terminal states require all
  /// buffers drained.
  MemoryModel memory_model = MemoryModel::kSc;

  // --- reclamation / address reuse (the reuse-aware allocator mode) ---
  /// Recycle retired heap blocks: alloc() reuses the oldest eligible
  /// retired (or free_private'd) block of the same size before bumping
  /// the cursor. Off (the default), addresses are never reused — the
  /// historical no-ABA mode, and the control that shows recycling is
  /// load-bearing for the ABA mutants. Recycling adds the reclamation
  /// state to World::encode and deactivates WorldCanon (recycled blocks
  /// break its segment-ownership value discipline).
  bool recycle_addresses = false;
  /// Which backend's protection protocol the simulated Env models when
  /// recycling: kEbr (protect = plain load; grace = operation intervals),
  /// kHp (protect publishes a hazard slot), kTagged (protect records the
  /// cell's generation; CAS/validate compare it tag-widened).
  runtime::ReclaimPolicy reclaim_policy = runtime::ReclaimPolicy::kEbr;
  /// Generation-counter width under kTagged: CAS/validate compare
  /// generations modulo 2^tag_bits. 0 models the tag-width-truncation
  /// mutant (every generation congruent — the tag defends nothing).
  unsigned tag_bits = 16;
  /// Mutant switch: retired blocks become reusable immediately, ignoring
  /// grace periods and hazard slots (a reclaimer that frees too early).
  bool premature_free = false;
};

// --- simulated reclamation state (WorldConfig::recycle_addresses) ---

/// One protect record of the simulated tagged backend: the protected
/// cell, the value observed, and the cell's generation at observation
/// time — the side-table analogue of runtime/reclaim/tagged.hpp's packed
/// tag (simulated cells hold plain values; generations live beside them).
struct ProtRecord {
  Addr cell = kNull;
  Word value = 0;
  std::uint32_t version = 0;

  friend bool operator==(const ProtRecord&, const ProtRecord&) = default;
};

/// A retired but not yet reusable block.
struct RetiredBlock {
  Addr block = kNull;
  Word cells = 0;
  /// Thread indices whose operations were active when the block was
  /// retired under grace semantics; bits clear as those operations
  /// respond, and the block becomes reusable when the mask empties.
  std::uint64_t graced_mask = 0;
  bool grace = false;  ///< retired via retire_grace (grace under any policy)
  /// Thread index of the retirer. The protocols let the retirer keep the
  /// address in its oplog past the retire, so the rely/guarantee
  /// reclamation auditor exempts it from the stale-reference check.
  std::uint32_t retirer = 0;

  friend bool operator==(const RetiredBlock&, const RetiredBlock&) = default;
};

/// Per-thread protection-protocol state.
struct ThreadReclaim {
  /// Hazard slots under kHp — same budget and round-robin rotation as the
  /// real backend (runtime/reclaim/hazard.hpp kSlots).
  std::array<Word, 4> hazards{};
  std::uint32_t next_slot = 0;
  /// Tagged protect records; the first record per cell wins, like the
  /// real backend (a refresh would be unsound — see tagged.cpp).
  std::vector<ProtRecord> records;

  friend bool operator==(const ThreadReclaim&, const ThreadReclaim&) = default;
};

class World {
 public:
  explicit World(const WorldConfig& config);

  // --- machine-facing API (one shared access per scheduling step) ---
  //
  // The thread-less overloads bypass the memory model (no store-buffer
  // interaction): object init code and private (pre-publication) stores
  // use them, as do read-only observers that must see flushed memory
  // (auditors, frozen reads — the frozen-cell discipline guarantees the
  // value was published before the reader could learn the address).
  [[nodiscard]] Word read(Addr a) const { return mem_.read(a); }
  void write(Addr a, Word v) { mem_.write(a, v); }
  bool cas(Addr a, Word expect, Word desired) {
    return mem_.cas(a, expect, desired);
  }

  // Model-aware accesses of the yield operations (sched/sim_env.hpp):
  // routed by thread index so TSO store buffering attributes correctly.
  [[nodiscard]] Word read(const ThreadCtx& t, Addr a,
                          objects::MemOrder mo) const {
    return mem_.load(static_cast<std::uint32_t>(t.program), a, mo);
  }
  /// Returns true iff the store buffered instead of hitting memory.
  bool write(const ThreadCtx& t, Addr a, Word v, objects::MemOrder mo) {
    return mem_.store(static_cast<std::uint32_t>(t.program), a, v, mo);
  }
  bool cas(const ThreadCtx& t, Addr a, Word expect, Word desired,
           objects::MemOrder mo) {
    return mem_.cas(static_cast<std::uint32_t>(t.program), a, expect,
                    desired, mo);
  }
  /// Buffered writes pending for the thread (0 under kSc).
  [[nodiscard]] std::size_t buffered(const ThreadCtx& t) const noexcept {
    return mem_.buffer_size(static_cast<std::uint32_t>(t.program));
  }

  // --- TSO flush transitions (explorer-facing) ---
  /// True iff thread index `i` has a buffered write to flush.
  [[nodiscard]] bool flushable(std::size_t i) const noexcept {
    return mem_.model() == MemoryModel::kTso &&
           mem_.buffer_size(static_cast<std::uint32_t>(i)) != 0;
  }
  /// Executes one flush step for thread index `i`: the oldest buffered
  /// write becomes globally visible. Records a store footprint at the
  /// flushed address — a flush is exactly a deferred store, so the POR
  /// dependence relation treats it as one.
  void flush_one(std::size_t i) {
    const auto t = static_cast<std::uint32_t>(i);
    note_yield(StepFootprint::Kind::kStore, mem_.flush_addr(t));
    mem_.flush_one(t);
  }
  Addr alloc(const ThreadCtx& t, std::size_t n) {
    // Heap segments are owned by thread *index* (== program index), not
    // tid: tids are free-form labels and may be large (the symmetry
    // canonicalizer's value discipline picks them outside the address
    // range).
    return mem_.alloc(static_cast<std::uint32_t>(t.program), n);
  }
  Addr alloc_global(std::size_t n) { return mem_.alloc_global(n); }

  // --- simulated reclamation (SimEnv-facing; sched/sim_env.hpp) ---
  [[nodiscard]] bool recycling() const noexcept {
    return config_->recycle_addresses;
  }
  [[nodiscard]] runtime::ReclaimPolicy reclaim_policy() const noexcept {
    return config_->reclaim_policy;
  }
  /// Allocation for Env bodies: under recycling, reuses the oldest
  /// eligible freed/retired block of exactly `cells` cells (zeroing it)
  /// before bumping the cursor; always records the block's size for the
  /// retire-size check.
  [[nodiscard]] Addr reclaim_alloc(const ThreadCtx& t, std::size_t cells);
  /// Registers t's protection of `cell` observed holding `v`: a hazard
  /// slot under kHp, a first-wins generation record under kTagged.
  void reclaim_protect(const ThreadCtx& t, Addr cell, Word v);
  /// Drops all of t's protections (the body's release()).
  void reclaim_release(const ThreadCtx& t);
  /// Tag-widened recheck under kTagged: true iff `cell` still holds what
  /// t's protect observed *and* its generation is congruent mod
  /// 2^tag_bits. Sets the per-step tagged-ABA flag when truncation alone
  /// made the generations congruent.
  [[nodiscard]] bool reclaim_validate(const ThreadCtx& t, Addr cell);
  /// The widened CAS under kTagged: value compare plus generation
  /// congruence against t's record of the cell; bumps the generation and
  /// advances the record on success. Falls back to the plain model-aware
  /// CAS when t holds no record of the cell (non-protocol cell).
  bool reclaim_cas(const ThreadCtx& t, Addr a, Word expected, Word desired,
                   objects::MemOrder mo);
  /// Retires a block (grace = retire_grace semantics). Checks the retired
  /// size against the allocated size in every mode; feeds the reuse lists
  /// only under recycling.
  void reclaim_retire(const ThreadCtx& t, Addr block, Word cells, bool grace);
  /// Frees a never-published block: immediately reusable under recycling.
  void reclaim_free(Addr block, Word cells);
  /// Allocated size of `block` (0 = unknown, e.g. init-time globals).
  [[nodiscard]] Word alloc_size(Addr block) const noexcept;

  // Read-side accessors for the reclamation auditor and the explorer.
  [[nodiscard]] const std::vector<RetiredBlock>& retired() const noexcept {
    return retired_;
  }
  [[nodiscard]] const std::vector<std::pair<Addr, Word>>& free_blocks()
      const noexcept {
    return free_;
  }
  [[nodiscard]] const std::vector<ThreadReclaim>& reclaim_threads()
      const noexcept {
    return reclaim_;
  }
  /// Transient, per step (cleared by begin_step): a truncated tag admitted
  /// a stale generation in this step's CAS/validate.
  [[nodiscard]] bool tagged_aba_step() const noexcept { return tagged_aba_; }
  /// Blocks handed out by the recycler so far on this path (monotone along
  /// a schedule; the explorer reports the max over reached states).
  [[nodiscard]] std::uint32_t recycled_allocs() const noexcept {
    return recycled_allocs_;
  }

  /// Records the invocation of the thread's current call.
  void invoke(ThreadCtx& t);
  /// Records the response; runs check L2; advances to the next call.
  void respond(ThreadCtx& t, Value ret);
  /// Appends a CA-element to 𝒯 atomically with the current step; runs
  /// checks L1 and L3 through the configured view.
  void append_element(const CaElement& element);
  /// Halts the thread at a retry bound; its current operation stays pending.
  void truncate(ThreadCtx& t);

  // --- explorer-facing API ---
  [[nodiscard]] const WorldConfig& config() const noexcept { return *config_; }
  [[nodiscard]] std::vector<ThreadCtx>& threads() noexcept { return threads_; }
  [[nodiscard]] const std::vector<ThreadCtx>& threads() const noexcept {
    return threads_;
  }
  [[nodiscard]] const SimMemory& memory() const noexcept { return mem_; }
  [[nodiscard]] SimMemory& memory() noexcept { return mem_; }

  [[nodiscard]] bool violated() const noexcept {
    return violation_.has_value();
  }
  [[nodiscard]] const std::optional<std::string>& violation() const noexcept {
    return violation_;
  }
  void report_violation(std::string what) {
    footprint_.global = true;
    if (!violation_) violation_ = std::move(what);
  }

  // --- step-footprint recording (partial-order reduction) ---
  /// Clears the footprint; the explorer calls this before every step.
  void begin_step() noexcept {
    footprint_ = {};
    tagged_aba_ = false;
  }
  /// Records the step's single fresh yield operation (SimEnv commit path).
  void note_yield(StepFootprint::Kind kind, Addr a) noexcept {
    footprint_.kind = kind;
    footprint_.addr = a;
  }
  /// Marks the step dependent with every other step.
  void note_global_effect() noexcept { footprint_.global = true; }
  [[nodiscard]] const StepFootprint& footprint() const noexcept {
    return footprint_;
  }

  [[nodiscard]] bool all_done() const noexcept;

  /// Reachability beacons: machines set a bit when a path of interest is
  /// taken (e.g. "an elimination completed"). Flags are part of the state
  /// encoding, so state merging never hides a reachable event; the explorer
  /// ORs them over all reached states into ExploreResult::events.
  void signal_event(unsigned bit) noexcept {
    events_ |= (1ull << (bit & 63u));
  }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  [[nodiscard]] const History& history() const noexcept {
    return history_ ? *history_ : kNoHistory;
  }
  [[nodiscard]] const CaTrace& trace() const noexcept {
    return trace_ ? *trace_ : kNoTrace;
  }
  /// The view image of the raw trace accumulated so far (L3's input).
  [[nodiscard]] const CaTrace& viewed_trace() const noexcept {
    return viewed_trace_ ? *viewed_trace_ : kNoTrace;
  }
  /// The online replay's abstract state (for the canonical encoder).
  [[nodiscard]] const SpecState& view_state() const noexcept {
    return view_state_;
  }

  /// Canonical state encoding for the visited set (excludes history/trace).
  void encode(std::vector<std::int64_t>& out) const;

  /// Interface name of the object the thread's current call targets.
  [[nodiscard]] Symbol object_symbol(const ThreadCtx& t) const {
    const Call& call = config_->programs[t.program].calls[t.call_idx];
    return config_->object_names[call.object];
  }

 private:
  /// Marks the op logged on its thread; returns a violation reason if L1
  /// fails (not executing / mismatched call / already logged / pending).
  [[nodiscard]] std::optional<std::string> mark_logged(const Operation& op);

  /// True iff the retired block may be handed back to the allocator under
  /// the configured policy right now.
  [[nodiscard]] bool promotable(const RetiredBlock& r) const noexcept;
  /// Bitmask of thread indices with an active operation (grace pinning).
  [[nodiscard]] std::uint64_t active_ops_mask() const noexcept;
  /// Generation congruence modulo 2^tag_bits.
  [[nodiscard]] bool tag_congruent(std::uint32_t a,
                                   std::uint32_t b) const noexcept;
  /// Zeroes a recycled block's cells and counts the reuse.
  void recycle_block(Addr block, Word cells);

  const WorldConfig* config_;
  SimMemory mem_;
  std::vector<ThreadCtx> threads_;
  SpecState view_state_;
  std::uint64_t events_ = 0;
  StepFootprint footprint_;  ///< transient per-step metadata, not encoded
  bool tagged_aba_ = false;  ///< transient per-step metadata, not encoded
  std::optional<std::string> violation_;
  // Recorded path (WorldConfig::record_history / record_trace): shared
  // between branched worlds and never mutated; null while empty.
  std::shared_ptr<const History> history_;
  std::shared_ptr<const CaTrace> trace_;
  std::shared_ptr<const CaTrace> viewed_trace_;
  static const History kNoHistory;
  static const CaTrace kNoTrace;

  // Reclamation state (encoded only under recycle_addresses; empty and
  // inert otherwise, so legacy encodings are byte-identical).
  std::vector<ThreadReclaim> reclaim_;       ///< per thread index
  std::vector<RetiredBlock> retired_;        ///< FIFO retirement order
  std::vector<std::pair<Addr, Word>> free_;  ///< reusable blocks, FIFO
  /// Per-cell generation counters under kTagged (indexed by address).
  std::vector<std::uint32_t> versions_;
  /// Block → allocated size, append-only (the retire-size check).
  std::vector<std::pair<Addr, Word>> alloc_cells_;
  std::uint32_t recycled_allocs_ = 0;  ///< path statistic, not encoded
};

/// Thread-symmetry canonicalizer. Threads running identical programs
/// (same object / method / argument sequence) are interchangeable: the
/// world obtained by permuting their tids, heap segments, and every word
/// referring to either is reachable iff the original is. encode() picks a
/// canonical representative of that orbit — per-thread state is rewritten
/// into renaming-invariant tokens (segment references become (new thread
/// slot, offset) pairs, tid literals become thread-slot tokens), the
/// interchangeable threads are sorted by their abstracted state, and the
/// permuted world is encoded — so symmetric worlds hash identically and
/// the visited set merges them.
///
/// Value discipline (checked at construction; violations deactivate the
/// canonicalizer, falling back to the identity encoding, so soundness
/// never depends on the caller): interchangeable threads' tids must lie
/// outside [0, memory size) so tid literals in cells and oplogs are
/// distinguishable from addresses and counters, and no program argument
/// may collide with those tids or with an interchangeable heap segment.
class WorldCanon {
 public:
  explicit WorldCanon(const WorldConfig& config);

  /// At least one class has ≥ 2 members and the value discipline holds.
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Canonical encoding of `world` (plus the permuted `sleep_mask`, bit i
  /// = thread index i is asleep). `renamed` reports a non-identity
  /// permutation. Falls back to World::encode when inactive.
  void encode(const World& world, std::uint64_t sleep_mask,
              std::vector<std::int64_t>& out, bool& renamed) const;

 private:
  void emit_thread(const World& world, std::size_t i, bool abstract,
                   const std::vector<std::size_t>& new_index,
                   std::vector<std::int64_t>& out) const;
  void emit_word(Word w, bool abstract, std::size_t self,
                 const std::vector<std::size_t>& new_index,
                 std::vector<std::int64_t>& out) const;

  std::size_t threads_ = 0;
  std::size_t heap_cells_ = 0;
  Addr heaps_base_ = 0;
  std::size_t mem_size_ = 0;
  std::vector<int> class_of_;          ///< -1 = unique thread
  std::vector<bool> interchangeable_;  ///< member of a multi-member class
  /// tid value → thread index, for interchangeable threads only.
  std::vector<std::pair<Word, std::size_t>> tid_to_thread_;
  std::vector<std::vector<std::size_t>> class_members_;
  bool active_ = false;
};

/// Outcome of one machine step.
struct StepResult {
  enum class Kind : std::uint8_t {
    kRan,     ///< one atomic step executed
    kChoice,  ///< the machine needs ctx.choice ∈ [0, nchoices)
  };
  Kind kind = Kind::kRan;
  std::int32_t nchoices = 0;

  [[nodiscard]] static StepResult ran() { return {Kind::kRan, 0}; }
  [[nodiscard]] static StepResult choice(std::int32_t n) {
    return {Kind::kChoice, n};
  }
};

/// A simulated object: allocates its globals in init() (before exploration)
/// and advances one thread by one atomic step in step(). Implementations
/// are immutable during exploration; all mutable state lives in the World.
class SimObject {
 public:
  virtual ~SimObject() = default;
  virtual void init(World& world) = 0;
  virtual StepResult step(World& world, ThreadCtx& t) const = 0;
};

}  // namespace cal::sched
