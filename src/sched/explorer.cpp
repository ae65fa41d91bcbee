#include "sched/explorer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "cal/engine/incremental.hpp"
#include "cal/engine/key_table.hpp"
#include "cal/engine/policy_base.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/parallel/task_pool.hpp"

namespace cal::sched {

namespace {

/// Serializes a history for terminal deduplication. Payloads take their
/// exact keys: two histories differing only in hash-colliding values must
/// both be collected.
std::vector<std::int64_t> encode_history(const History& h) {
  std::vector<std::int64_t> out;
  out.reserve(h.size() * 7);
  for (const Action& a : h.actions()) {
    out.push_back(a.is_invoke() ? 1 : 2);
    out.push_back(a.tid);
    out.push_back(a.object.id());
    out.push_back(a.method.id());
    a.payload.encode(out);
  }
  return out;
}

// --- partial-order reduction: sleep sets over step footprints -------------
//
// A sleep entry records a thread whose next step was already explored from
// an earlier sibling branch, together with that step's footprint. The
// footprint of a thread's next step is a function of its own context and
// frozen cells only, and stays valid while the thread sleeps: every
// executed step is independent of it (a dependent step removes the entry),
// so it cannot change the cell the sleeping step touches, the step's
// control path, or its purity. See DESIGN.md for the full argument.

struct SleepEntry {
  std::size_t thread = 0;
  StepFootprint fp;
};
using SleepSet = std::vector<SleepEntry>;

bool is_sleeping(const SleepSet& sleep, std::size_t thread) {
  for (const SleepEntry& e : sleep) {
    if (e.thread == thread) return true;
  }
  return false;
}

std::uint64_t sleep_mask_of(const SleepSet& sleep) {
  std::uint64_t m = 0;
  for (const SleepEntry& e : sleep) m |= (1ull << (e.thread & 63u));
  return m;
}

/// The sleep set a successor inherits: every entry independent of the
/// executed step `g` stays asleep; dependent entries wake.
SleepSet inherit_sleep(const SleepSet& cur, const StepFootprint& g) {
  SleepSet out;
  out.reserve(cur.size());
  for (const SleepEntry& e : cur) {
    if (footprints_independent(e.fp, g)) out.push_back(e);
  }
  return out;
}

/// Visited-set key: canonical (symmetry) encoding when a canonicalizer is
/// attached, else World::encode; under POR the sleep mask is part of the
/// key, making the reduced successor set a function of the key — which is
/// what keeps sleep sets sound under state merging. When `por`, the mask
/// is always the *last* element (SleepSubsumption peels it back off).
void encode_world_key(const World& world, const WorldCanon* canon, bool por,
                      std::uint64_t sleep_mask,
                      std::vector<std::int64_t>& out, bool& renamed) {
  out.clear();
  renamed = false;
  if (canon != nullptr) {
    canon->encode(world, por ? sleep_mask : 0, out, renamed);
  } else {
    world.encode(out);
    if (por) out.push_back(static_cast<std::int64_t>(sleep_mask));
  }
}

/// Sleep-mask subsumption (sleep sets with state matching, Godefroid
/// style): exact (state, mask) dedup alone *splits* states — the same
/// world re-entered under an incomparable sleep mask is a fresh key — so
/// on top of it, a node's expansion is pruned outright when the same state
/// was already expanded with a *subset* mask: fewer sleeping threads means
/// the earlier expansion explored a superset of this node's successor
/// closure. Re-visits under incomparable masks still re-expand, which is
/// what keeps the reduction sound (DESIGN.md). Striped-lock sharded so the
/// parallel driver's workers can share one instance; the sequential driver
/// uses the same type with the locks uncontended. Each shard is a flat
/// KeyTable whose dense key ids index the keys' recorded masks.
class SleepSubsumption {
 public:
  /// True iff `key` was already expanded with a recorded mask ⊆ `mask`.
  /// Otherwise records `mask` (dropping recorded supersets, which it now
  /// covers) and returns false.
  bool covered(const std::vector<std::int64_t>& key, std::uint64_t mask) {
    const std::uint64_t h = hash_state(key);
    // Shard from the high bits: the table slots from the low ones.
    Shard& s = shards_[(h >> 48 ^ h >> 24) % kShards];
    std::lock_guard<std::mutex> lock(s.mu);
    const auto [id, inserted] = s.keys.insert(key, h);
    if (inserted) {
      s.masks.push_back({mask});
      return false;
    }
    std::vector<std::uint64_t>& masks = s.masks[id];
    for (std::uint64_t m : masks) {
      if ((m & ~mask) == 0) return true;
    }
    std::erase_if(masks,
                  [mask](std::uint64_t m) { return (mask & ~m) == 0; });
    masks.push_back(mask);
    return false;
  }

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    std::mutex mu;
    engine::KeyTable keys;
    std::vector<std::vector<std::uint64_t>> masks;  ///< by key id
  };
  std::array<Shard, kShards> shards_;
};

/// The exploration as an engine policy: worlds are nodes, schedule steps
/// are labels, terminal worlds are goals (collect-mode sinks). Per-step
/// audits (transition guarantee, state invariant, choice protocol) run in
/// expand() *before* a successor is emitted, so violating worlds never
/// enter the search. The engine owns state merging, the max_states cap,
/// depth, and the schedule prefix; this policy owns transitions/events
/// accounting and violation recording.
///
/// kShared = true is the instantiation the parallel driver shares across
/// its workers: atomic counters, and a per-worker `renamed` flag between
/// encode() and on_dedup(). Recorded violations sit behind a mutex in
/// both instantiations.
///
/// First violation (stop_on_first_violation): the policy keeps the
/// violation whose schedule sorts first in expansion order — thread index,
/// then choice, flush steps after program steps — and prunes only the
/// successors that sort after it. The sequential DFS visits schedules in
/// exactly that order, so there everything after the first violation is
/// pruned; parallel workers keep exploring the subtrees that could still
/// hold an earlier one. Without state merging both drivers therefore
/// report the same schedule.
template <bool kShared>
class ExplorePolicy {
 public:
  /// A node is a world plus its sleep set (empty when POR is off); the
  /// sleep set travels with the node because the engine recurses inside
  /// emit, and it joins the dedup key via encode().
  struct Node {
    World world;
    SleepSet sleep;
  };
  using Label = ScheduleStep;

  ExplorePolicy(const WorldConfig& config,
                const std::vector<std::unique_ptr<SimObject>>& objects,
                const ExploreOptions& options,
                const TransitionAuditor* auditor, const WorldCanon* canon,
                bool por)
      : config_(config),
        objects_(objects),
        options_(options),
        auditor_(auditor),
        canon_(canon),
        por_(por) {
    // Subsumption only matters under state merging: without it the walk
    // is a plain tree DFS, where sleep sets alone are the classic (sound)
    // reduction.
    if (por_ && options_.merge_states) {
      subsume_ = std::make_unique<SleepSubsumption>();
    }
    for (std::size_t i = 0; i < config_.programs.size(); ++i) {
      thread_index_[config_.programs[i].tid] = i;
    }
  }

  std::vector<Node> roots() {
    World initial(config_);
    for (const auto& obj : objects_) obj->init(initial);
    std::vector<Node> out;
    out.push_back(Node{std::move(initial), {}});
    return out;
  }

  [[nodiscard]] bool is_goal(const Node& node) const {
    return node.world.all_done();
  }

  void encode(const Node& node, engine::NodeKey& out) const {
    encode_world_key(node.world, canon_, por_, sleep_mask_of(node.sleep),
                     out, last_renamed_);
  }

  /// Engine dedup-hit hook: a hit whose key was produced by a non-identity
  /// renaming is a merge only the canonicalizer could have made.
  void on_dedup(const Node& /*node*/) {
    if (last_renamed_) engine::bump(symmetry_merged_);
  }

  void on_enter(const Node& node, std::size_t /*depth*/) {
    engine::note_bits(events_, node.world.events());
    engine::note_max(buffered_max_, node.world.memory().buffered_total());
    engine::note_max(recycled_allocs_, node.world.recycled_allocs());
    engine::note_max(retired_max_, node.world.retired().size());
  }

  /// Violations prune by schedule order (after_kept), never the whole
  /// search.
  [[nodiscard]] bool cancelled() const noexcept { return false; }

  template <typename Emit>
  void expand(const Node& node, std::size_t /*depth*/,
              const std::vector<ScheduleStep>& prefix, Emit&& emit) {
    const World& world = node.world;
    // Entries accumulate as siblings are explored: a later thread's child
    // inherits every earlier pure sibling step it is independent of.
    SleepSet cur = node.sleep;
    for (std::size_t i = 0; i < world.threads().size(); ++i) {
      const ThreadCtx& t = world.threads()[i];
      // (tid, -1) sorts before every choice of this thread's step.
      if (after_kept(prefix, ScheduleStep{t.tid, -1})) return;
      if (t.done(config_.programs[t.program].calls.size())) continue;
      if (por_ && is_sleeping(node.sleep, i)) {
        engine::bump(por_pruned_);
        continue;
      }
      const Call& call = config_.programs[t.program].calls[t.call_idx];
      const SimObject& object = *objects_[call.object];
      engine::bump(transitions_);

      World next = world;  // branch
      next.begin_step();
      ThreadCtx& nt = next.threads()[i];
      StepResult sr = object.step(next, nt);

      if (sr.kind == StepResult::Kind::kChoice) {
        // Fork one successor per choice value; the machine consumes the
        // choice on its next step. The step only joins sibling sleep sets
        // if every branch is pure (a single emitting branch makes the
        // whole step order-sensitive).
        bool all_pure = true;
        for (std::int32_t c = 0; c < sr.nchoices; ++c) {
          const ScheduleStep step{t.tid, c};
          if (after_kept(prefix, step)) return;
          World branch = world;
          branch.begin_step();
          ThreadCtx& bt = branch.threads()[i];
          bt.choice = c;
          StepResult inner = object.step(branch, bt);
          bt.choice = -1;
          if (inner.kind == StepResult::Kind::kChoice) {
            branch.report_violation(
                "machine asked for a choice twice in a row");
          }
          audit_transition(world, branch, bt.tid);
          const StepFootprint fp = branch.footprint();
          all_pure = all_pure && fp.pure();
          SleepSet child = por_ ? inherit_sleep(cur, fp) : SleepSet{};
          if (!offer(Node{std::move(branch), std::move(child)}, step, prefix,
                     emit)) {
            return;
          }
        }
        if (por_ && all_pure) {
          cur.push_back(SleepEntry{
              i, StepFootprint{StepFootprint::Kind::kLocal, kNull, false}});
        }
      } else {
        audit_transition(world, next, nt.tid);
        const StepFootprint fp = next.footprint();
        SleepSet child = por_ ? inherit_sleep(cur, fp) : SleepSet{};
        if (!offer(Node{std::move(next), std::move(child)},
                   ScheduleStep{t.tid, -1}, prefix, emit)) {
          return;
        }
        if (por_ && fp.pure()) cur.push_back(SleepEntry{i, fp});
      }
    }

    // TSO flush transitions: one per thread with a buffered write, offered
    // for completed threads too (terminal states must be drained). Flush
    // steps are never slept and never enter sleep sets — strictly less
    // reduction, trivially sound (DESIGN.md, "The memory-model layer") —
    // but their store footprint does wake dependent sleepers in the child.
    for (std::size_t i = 0; i < world.threads().size(); ++i) {
      if (!world.flushable(i)) continue;
      const ScheduleStep step{world.threads()[i].tid, -1, /*flush=*/true};
      if (after_kept(prefix, step)) return;
      engine::bump(transitions_);
      World next = world;
      next.begin_step();
      next.flush_one(i);
      engine::bump(flush_steps_);
      audit_transition(world, next, next.threads()[i].tid);
      const StepFootprint fp = next.footprint();
      SleepSet child = por_ ? inherit_sleep(cur, fp) : SleepSet{};
      if (!offer(Node{std::move(next), std::move(child)}, step, prefix,
                 emit)) {
        return;
      }
    }
  }

  [[nodiscard]] std::size_t transitions() const noexcept {
    return engine::read_counter(transitions_);
  }
  [[nodiscard]] std::uint64_t events() const noexcept {
    return engine::read_counter(events_);
  }
  [[nodiscard]] std::size_t por_pruned() const noexcept {
    return engine::read_counter(por_pruned_);
  }
  [[nodiscard]] std::size_t symmetry_merged() const noexcept {
    return engine::read_counter(symmetry_merged_);
  }
  [[nodiscard]] std::size_t flush_steps() const noexcept {
    return engine::read_counter(flush_steps_);
  }
  [[nodiscard]] std::size_t buffered_max() const noexcept {
    return engine::read_counter(buffered_max_);
  }
  [[nodiscard]] std::size_t recycled_allocs() const noexcept {
    return engine::read_counter(recycled_allocs_);
  }
  [[nodiscard]] std::size_t retired_max() const noexcept {
    return engine::read_counter(retired_max_);
  }
  /// Call once the search has finished.
  [[nodiscard]] std::vector<ScheduleViolation>&& violations() noexcept {
    return std::move(violations_);
  }

 private:
  void audit_transition(const World& pre, World& post, ThreadId actor) const {
    if (auditor_ == nullptr || post.violated()) return;
    if (auto why = auditor_->check_transition(pre, post, actor)) {
      post.report_violation("guarantee: " + *why);
    }
  }

  /// Expansion order of two steps taken from the same world: program
  /// steps by thread index, then choice; flush steps after all of them.
  [[nodiscard]] bool step_before(const ScheduleStep& a,
                                 const ScheduleStep& b) const {
    return std::tuple(a.flush, thread_index_.at(a.tid), a.choice) <
           std::tuple(b.flush, thread_index_.at(b.tid), b.choice);
  }

  /// True iff `prefix` + `step` sorts after the kept violation's schedule.
  /// Its whole subtree then does too, so it cannot hold a violation that
  /// sorts first.
  [[nodiscard]] bool after_kept(const std::vector<ScheduleStep>& prefix,
                                const ScheduleStep& step) {
    if (!kept_.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(violations_mu_);
    const std::vector<ScheduleStep>& kept = violations_.front().schedule;
    for (std::size_t k = 0; k <= prefix.size(); ++k) {
      if (k == kept.size()) return true;
      const ScheduleStep& s = k < prefix.size() ? prefix[k] : step;
      if (s != kept[k]) return step_before(kept[k], s);
    }
    return false;  // an ancestor of the kept violation
  }

  /// Records a violation; with stop_on_first_violation, keeps only the
  /// one whose schedule sorts first.
  void record(ScheduleViolation&& v) {
    std::lock_guard<std::mutex> lock(violations_mu_);
    if (!options_.stop_on_first_violation) {
      violations_.push_back(std::move(v));
      return;
    }
    if (!violations_.empty() &&
        !std::ranges::lexicographical_compare(
            v.schedule, violations_.front().schedule,
            [this](const ScheduleStep& a, const ScheduleStep& b) {
              return step_before(a, b);
            })) {
      return;
    }
    violations_.clear();
    violations_.push_back(std::move(v));
    kept_.store(true, std::memory_order_release);
  }

  /// Audits a freshly stepped world and either records its violation or
  /// hands it to the driver; false stops this node's expansion.
  template <typename Emit>
  bool offer(Node&& node, ScheduleStep step,
             const std::vector<ScheduleStep>& prefix, Emit& emit) {
    if (!node.world.violated() && auditor_ != nullptr) {
      if (auto why = auditor_->check_invariant(node.world)) {
        node.world.report_violation("invariant: " + *why);
      }
    }
    if (node.world.violated()) {
      std::vector<ScheduleStep> schedule = prefix;
      schedule.push_back(step);
      record(ScheduleViolation{node.world.violation().value_or("unknown"),
                               std::move(schedule)});
      // Every later sibling sorts after this violation.
      return !options_.stop_on_first_violation;
    }
    // Sleep-mask subsumption happens at child-generation time so a covered
    // revisit never enters the engine (and is never counted as a state).
    // Terminals are exempt: their final step is global, so they always
    // carry an empty sleep set and the exact visited key already dedups
    // them — keeping them out keeps the table small.
    if (subsume_ != nullptr && !node.world.all_done()) {
      // Per-worker scratch, done with before emit() recurses.
      static thread_local engine::NodeKey key;
      bool renamed = false;
      encode_world_key(node.world, canon_, /*por=*/true,
                       sleep_mask_of(node.sleep), key, renamed);
      const auto mask = static_cast<std::uint64_t>(key.back());
      key.pop_back();
      if (subsume_->covered(key, mask)) {
        engine::bump(por_pruned_);
        return true;
      }
    }
    return emit(std::move(node), std::move(step));
  }

  const WorldConfig& config_;
  const std::vector<std::unique_ptr<SimObject>>& objects_;
  const ExploreOptions& options_;
  const TransitionAuditor* auditor_;
  const WorldCanon* canon_;
  const bool por_;
  std::unique_ptr<SleepSubsumption> subsume_;
  std::unordered_map<ThreadId, std::size_t> thread_index_;

  engine::Counter<kShared> transitions_{0};
  engine::Counter<kShared, std::uint64_t> events_{0};
  engine::Counter<kShared> por_pruned_{0};
  engine::Counter<kShared> symmetry_merged_{0};
  engine::Counter<kShared> flush_steps_{0};
  engine::Counter<kShared> buffered_max_{0};
  engine::Counter<kShared> recycled_allocs_{0};
  engine::Counter<kShared> retired_max_{0};
  /// Set by encode() and read by on_dedup() right after it on the same
  /// worker.
  static inline thread_local bool last_renamed_ = false;

  std::mutex violations_mu_;
  std::vector<ScheduleViolation> violations_;
  /// violations_ holds the kept first violation (stop_on_first_violation).
  std::atomic<bool> kept_{false};
};

}  // namespace

Explorer::Explorer(const WorldConfig& config,
                   std::vector<std::unique_ptr<SimObject>> objects,
                   ExploreOptions options)
    : owned_config_(config),
      config_(owned_config_),
      objects_(std::move(objects)),
      options_(options) {
  // Either surface may select TSO: ExploreOptions::memory_model overrides
  // the config when set, and a TSO config is honored when the options keep
  // the default.
  if (options_.memory_model == MemoryModel::kTso) {
    owned_config_.memory_model = MemoryModel::kTso;
  }
}

ExploreResult Explorer::run() {
  const std::size_t threads = par::resolve_threads(options_.threads);
  ExploreResult result = threads > 1 ? walk<true>(threads) : walk<false>(1);
  check_collected(result);
  return result;
}

template <bool kShared>
ExploreResult Explorer::walk(std::size_t threads) {
  // Both reductions are gated off while an auditor is attached: the
  // auditor's per-transition and per-state checks must observe every
  // transition, including the ones a reduction would skip (DESIGN.md).
  // POR also needs one sleep-mask bit per thread, so >64 threads fall
  // back to the plain walk rather than alias mask bits.
  const bool por = options_.por && auditor_ == nullptr &&
                   config_.programs.size() <= 64;
  std::unique_ptr<WorldCanon> canon_storage;
  const WorldCanon* canon = nullptr;
  if (options_.symmetry && auditor_ == nullptr) {
    canon_storage = std::make_unique<WorldCanon>(config_);
    if (canon_storage->active()) canon = canon_storage.get();
  }

  using Policy = ExplorePolicy<kShared>;
  ExploreResult result;
  Policy policy(config_, objects_, options_, auditor_, canon, por);

  engine::SearchOptions sopts;
  sopts.max_visited = options_.max_states;
  sopts.exact_visited = true;  // state merging must be sound, not probable
  sopts.dedup = options_.merge_states;

  // The parallel driver calls the sink under its result lock.
  engine::KeyTable seen_histories;
  auto sink = [&](const typename Policy::Node& node,
                  const std::vector<ScheduleStep>&) {
    ++result.terminals;
    if (!options_.collect_terminals) return;
    if (seen_histories.insert(encode_history(node.world.history())).inserted) {
      result.histories.push_back(node.world.history());
      result.traces.push_back(node.world.trace());
    }
  };
  engine::SearchStats stats;
  if constexpr (kShared) {
    engine::ParallelSearch<Policy> search(policy, sopts, threads);
    stats = search.run_collect(sink);
  } else {
    engine::SequentialSearch<Policy> search(policy, sopts);
    stats = search.run_collect(sink);
  }

  result.states = stats.visited_states;
  result.transitions = policy.transitions();
  result.merged = stats.dedup_hits;
  result.max_depth = stats.max_depth;
  result.exhausted = stats.exhausted;
  result.events = policy.events();
  result.por_pruned = policy.por_pruned();
  result.symmetry_merged = policy.symmetry_merged();
  result.flush_steps = policy.flush_steps();
  result.buffered_max = policy.buffered_max();
  result.recycled_allocs = policy.recycled_allocs();
  result.retired_max = policy.retired_max();
  result.violations = policy.violations();
  return result;
}

void Explorer::check_collected(ExploreResult& result) const {
  if (options_.check_spec == nullptr || result.histories.empty()) return;
  result.history_verdicts.reserve(result.histories.size());
  for (std::size_t i = 0; i < result.histories.size(); ++i) {
    engine::IncrementalOptions iopts;
    iopts.window = options_.check_window;
    engine::IncrementalChecker checker(*options_.check_spec, iopts);
    checker.push(result.histories[i]);
    checker.finish();
    result.history_verdicts.push_back(checker.ok());
    if (!checker.ok()) {
      result.check_failures.push_back(
          "history " + std::to_string(i) + ": " + checker.status().reason);
    }
  }
}

std::string ScheduleViolation::to_string() const {
  std::string out = what + "\nschedule:";
  for (const ScheduleStep& s : schedule) {
    out += " t" + std::to_string(s.tid);
    if (s.flush) out += "!flush";
    if (s.choice >= 0) out += "#" + std::to_string(s.choice);
  }
  return out;
}

World Explorer::replay(const std::vector<ScheduleStep>& schedule,
                       bool record) {
  // The returned World keeps a pointer to its config, so the
  // recording-enabled copy must outlive it. One owned copy is kept per
  // replay call (never reused): a second replay() must not destroy the
  // config a previously returned World still references.
  const WorldConfig* cfg = &config_;
  if (record) {
    auto owned = std::make_unique<WorldConfig>(config_);
    owned->record_history = true;
    owned->record_trace = true;
    replay_configs_.push_back(std::move(owned));
    cfg = replay_configs_.back().get();
  }
  World world(*cfg);
  for (auto& obj : objects_) obj->init(world);

  for (const ScheduleStep& step : schedule) {
    if (world.violated()) break;
    ThreadCtx* ctx = nullptr;
    for (ThreadCtx& t : world.threads()) {
      if (t.tid == step.tid) ctx = &t;
    }
    if (ctx == nullptr) {
      world.report_violation("replay: unknown thread t" +
                             std::to_string(step.tid));
      break;
    }
    if (step.flush) {
      if (!world.flushable(ctx->program)) {
        world.report_violation("replay: t" + std::to_string(step.tid) +
                               " has no buffered write to flush");
        break;
      }
      world.begin_step();
      world.flush_one(ctx->program);
      continue;
    }
    if (ctx->done(config_.programs[ctx->program].calls.size())) {
      world.report_violation("replay: thread t" + std::to_string(step.tid) +
                             " cannot act");
      break;
    }
    const Call& call = config_.programs[ctx->program].calls[ctx->call_idx];
    world.begin_step();
    ctx->choice = step.choice;
    StepResult sr = objects_[call.object]->step(world, *ctx);
    ctx->choice = -1;
    if (sr.kind == StepResult::Kind::kChoice) {
      world.report_violation(
          "replay: step needs a choice but none was recorded");
      break;
    }
  }
  return world;
}

}  // namespace cal::sched
