#include "sched/world.hpp"

#include <algorithm>

namespace cal::sched {

namespace {

/// Copy-on-append for the recorded path: `log` (whose entries are
/// `entries`) may be shared with other worlds, so the append builds a new
/// value — the old entries plus `item` — and replaces the pointer.
template <typename Log, typename Item>
void append_shared(std::shared_ptr<const Log>& log,
                   const std::vector<Item>& entries, Item item) {
  std::vector<Item> next;
  next.reserve(entries.size() + 1);
  next.insert(next.end(), entries.begin(), entries.end());
  next.push_back(std::move(item));
  log = std::make_shared<const Log>(std::move(next));
}

}  // namespace

const History World::kNoHistory;
const CaTrace World::kNoTrace;

World::World(const WorldConfig& config)
    : config_(&config),
      mem_(config.programs.size(), config.heap_cells, config.global_cells,
           config.memory_model) {
  threads_.reserve(config.programs.size());
  for (std::size_t i = 0; i < config.programs.size(); ++i) {
    ThreadCtx t;
    t.tid = config.programs[i].tid;
    t.program = i;
    threads_.push_back(t);
  }
  if (config_->spec != nullptr) view_state_ = config_->spec->initial();
  if (config.recycle_addresses) {
    reclaim_.resize(config.programs.size());
    if (config.reclaim_policy == runtime::ReclaimPolicy::kTagged) {
      versions_.assign(mem_.size(), 0);
    }
  }
}

// --- simulated reclamation ------------------------------------------------

std::uint64_t World::active_ops_mask() const noexcept {
  std::uint64_t mask = 0;
  for (const ThreadCtx& t : threads_) {
    if (t.op_active) mask |= (1ull << (t.program & 63u));
  }
  return mask;
}

bool World::tag_congruent(std::uint32_t a, std::uint32_t b) const noexcept {
  const unsigned bits = config_->tag_bits;
  if (bits >= 32) return a == b;
  // bits == 0 → mask 0 → every generation congruent (the truncation
  // mutant: the tag defends nothing).
  const std::uint32_t mask = (1u << bits) - 1u;
  return ((a - b) & mask) == 0;
}

bool World::promotable(const RetiredBlock& r) const noexcept {
  // Under TSO a retired block could still have stale stores sitting in
  // some thread's buffer; promotion waits until every buffer is drained
  // (conservative — see DESIGN.md).
  if (mem_.model() == MemoryModel::kTso && mem_.buffered_total() != 0) {
    return false;
  }
  if (config_->premature_free) return true;
  const bool grace =
      r.grace || config_->reclaim_policy == runtime::ReclaimPolicy::kEbr;
  if (grace) return r.graced_mask == 0;
  if (config_->reclaim_policy == runtime::ReclaimPolicy::kHp) {
    for (const ThreadReclaim& tr : reclaim_) {
      for (Word h : tr.hazards) {
        if (h == static_cast<Word>(r.block)) return false;
      }
    }
    return true;
  }
  return true;  // kTagged non-grace: generations defend the reuse
}

void World::recycle_block(Addr block, Word cells) {
  // Reclamation-state mutations gate other threads' allocations, so the
  // step never commutes (POR) — and zeroing is a multi-cell write anyway.
  note_global_effect();
  for (Word c = 0; c < cells; ++c) {
    mem_.write(block + static_cast<Addr>(c), 0);
  }
  ++recycled_allocs_;
}

Addr World::reclaim_alloc(const ThreadCtx& t, std::size_t cells) {
  if (recycling()) {
    // Freed (never-published / tag-binned) blocks first, then retired
    // blocks in retirement order: deterministic FIFO reuse, like the real
    // tagged backend's bins. Only exact size matches (type stability).
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second != static_cast<Word>(cells)) continue;
      const Addr block = it->first;
      free_.erase(it);
      recycle_block(block, static_cast<Word>(cells));
      return block;
    }
    for (auto it = retired_.begin(); it != retired_.end(); ++it) {
      if (it->cells != static_cast<Word>(cells) || !promotable(*it)) continue;
      const Addr block = it->block;
      retired_.erase(it);
      recycle_block(block, static_cast<Word>(cells));
      return block;
    }
  }
  const Addr a = mem_.alloc(static_cast<std::uint32_t>(t.program), cells);
  alloc_cells_.emplace_back(a, static_cast<Word>(cells));
  return a;
}

Word World::alloc_size(Addr block) const noexcept {
  for (const auto& [a, n] : alloc_cells_) {
    if (a == block) return n;
  }
  return 0;
}

void World::reclaim_protect(const ThreadCtx& t, Addr cell, Word v) {
  if (!recycling()) return;
  note_global_effect();  // gates other threads' promotions
  ThreadReclaim& tr = reclaim_[t.program];
  if (config_->reclaim_policy == runtime::ReclaimPolicy::kHp) {
    tr.hazards[tr.next_slot % tr.hazards.size()] = v;
    tr.next_slot = (tr.next_slot + 1) % static_cast<std::uint32_t>(
                                            tr.hazards.size());
    return;
  }
  // kTagged: first record per cell wins (a refresh would be unsound —
  // runtime/reclaim/tagged.cpp).
  for (const ProtRecord& r : tr.records) {
    if (r.cell == cell) return;
  }
  const std::uint32_t ver =
      versions_.empty() ? 0 : versions_[static_cast<std::size_t>(cell)];
  tr.records.push_back({cell, v, ver});
}

void World::reclaim_release(const ThreadCtx& t) {
  if (!recycling()) return;
  ThreadReclaim& tr = reclaim_[t.program];
  if (tr.hazards == std::array<Word, 4>{} && tr.next_slot == 0 &&
      tr.records.empty()) {
    return;  // nothing held: keep the step pure
  }
  note_global_effect();
  tr.hazards = {};
  tr.next_slot = 0;
  tr.records.clear();
}

bool World::reclaim_validate(const ThreadCtx& t, Addr cell) {
  const ThreadReclaim& tr = reclaim_[t.program];
  for (const ProtRecord& r : tr.records) {
    if (r.cell != cell) continue;
    if (read(t, cell, objects::MemOrder::kSeqCst) != r.value) return false;
    const std::uint32_t ver =
        versions_.empty() ? 0 : versions_[static_cast<std::size_t>(cell)];
    if (!tag_congruent(ver, r.version)) return false;
    if (ver != r.version) tagged_aba_ = true;  // truncation admitted this
    return true;
  }
  return true;  // never protected: nothing to validate against
}

bool World::reclaim_cas(const ThreadCtx& t, Addr a, Word expected,
                        Word desired, objects::MemOrder mo) {
  ThreadReclaim& tr = reclaim_[t.program];
  ProtRecord* rec = nullptr;
  for (ProtRecord& r : tr.records) {
    if (r.cell == a) {
      rec = &r;
      break;
    }
  }
  if (rec == nullptr) {
    // Non-protocol cell (no protect preceded): plain value CAS.
    return cas(t, a, expected, desired, mo);
  }
  note_global_effect();  // generation bump gates other threads' CASes
  const std::uint32_t ver =
      versions_.empty() ? 0 : versions_[static_cast<std::size_t>(a)];
  if (!tag_congruent(ver, rec->version)) return false;  // widened mismatch
  const bool stale = ver != rec->version;
  if (!cas(t, a, expected, desired, mo)) return false;
  if (!versions_.empty()) versions_[static_cast<std::size_t>(a)] = ver + 1;
  if (stale) tagged_aba_ = true;  // ABA the truncated tag failed to stop
  rec->value = desired;
  rec->version = ver + 1;
  return true;
}

void World::reclaim_retire(const ThreadCtx& t, Addr block, Word cells,
                           bool grace) {
  // The retire-size check runs in every mode: retiring a different size
  // than was allocated corrupts any size-binned reclaimer.
  const Word sz = alloc_size(block);
  if (sz != 0 && sz != cells) {
    report_violation("t" + std::to_string(t.tid) + " retires block " +
                     std::to_string(block) + " as " + std::to_string(cells) +
                     " cells but it was allocated with " + std::to_string(sz));
    return;
  }
  if (!recycling()) return;  // addresses stay valid forever
  note_global_effect();
  RetiredBlock r;
  r.block = block;
  r.cells = cells;
  r.grace = grace;
  r.retirer = static_cast<std::uint32_t>(t.program);
  if (grace || config_->reclaim_policy == runtime::ReclaimPolicy::kEbr) {
    r.graced_mask = active_ops_mask();
  }
  retired_.push_back(r);
}

void World::reclaim_free(Addr block, Word cells) {
  if (!recycling()) return;
  note_global_effect();
  free_.emplace_back(block, cells);
}

void World::invoke(ThreadCtx& t) {
  note_global_effect();
  const ThreadProgram& prog = config_->programs[t.program];
  const Call& call = prog.calls[t.call_idx];
  if (t.op_active) {
    report_violation("thread invoked while an operation is active");
    return;
  }
  t.op_active = true;
  t.op_logged = false;
  t.op_logged_ret = Value::unit();
  if (config_->record_history) {
    append_shared(history_, history().actions(),
                  Action::invoke(t.tid, object_symbol(t), call.method,
                                 call.arg));
  }
}

void World::respond(ThreadCtx& t, Value ret) {
  note_global_effect();
  const ThreadProgram& prog = config_->programs[t.program];
  const Call& call = prog.calls[t.call_idx];
  if (!t.op_active) {
    report_violation("response without active operation");
    return;
  }
  // L2: the operation must have been logged, with exactly this result.
  if (config_->spec != nullptr) {
    if (!t.op_logged) {
      report_violation("t" + std::to_string(t.tid) + " returns " +
                       ret.to_string() + " from " + call.method.str() +
                       " but its operation was never logged in T");
      return;
    }
    if (t.op_logged_ret != ret) {
      report_violation(
          "t" + std::to_string(t.tid) + " returns " + ret.to_string() +
          " but T logged " + t.op_logged_ret.to_string() +
          " for its " + call.method.str() + " operation");
      return;
    }
  }
  if (config_->record_history) {
    append_shared(history_, history().actions(),
                  Action::respond(t.tid, object_symbol(t), call.method, ret));
  }
  t.op_active = false;
  t.op_logged = false;
  t.call_idx += 1;
  t.pc = 0;
  t.regs = {};
  t.oplog.clear();
  t.frozen.clear();
  t.emits = 0;
  t.reclaims = 0;
  t.retries = 0;
  t.stage = ThreadStage::kIdle;
  if (recycling()) {
    // The operation interval ends: its grace pin lifts and any leftover
    // protections drop (exit implies release).
    reclaim_release(t);
    const std::uint64_t bit = 1ull << (t.program & 63u);
    for (RetiredBlock& r : retired_) r.graced_mask &= ~bit;
  }
}

std::optional<std::string> World::mark_logged(const Operation& op) {
  for (ThreadCtx& t : threads_) {
    if (t.tid != op.tid) continue;
    if (!t.op_active) {
      return "element logs an operation of t" + std::to_string(op.tid) +
             " which is not executing";
    }
    const Call& call = config_->programs[t.program].calls[t.call_idx];
    if (call.method != op.method || call.arg != op.arg) {
      return "element logs " + op.to_string() + " but t" +
             std::to_string(op.tid) + " is executing " + call.method.str() +
             "(" + call.arg.to_string() + ")";
    }
    if (t.op_logged) {
      return "operation of t" + std::to_string(op.tid) +
             " logged twice in T";
    }
    if (!op.ret) {
      return "element logs a pending return for t" + std::to_string(op.tid);
    }
    t.op_logged = true;
    t.op_logged_ret = *op.ret;
    return std::nullopt;
  }
  return "element logs unknown thread t" + std::to_string(op.tid);
}

void World::append_element(const CaElement& element) {
  note_global_effect();
  if (config_->record_trace) {
    append_shared(trace_, trace().elements(), element);
  }

  // Apply the composed view 𝔽 to obtain interface-level elements.
  CaTrace image;
  if (config_->view != nullptr) {
    CaTrace raw;
    raw.append(element);
    image = total_apply(*config_->view, raw);
  } else {
    image.append(element);
  }

  for (const CaElement& e : image.elements()) {
    if (config_->record_trace) {
      append_shared(viewed_trace_, viewed_trace().elements(), e);
    }
    // L3: interface-level replay.
    if (config_->spec != nullptr) {
      bool stepped = false;
      for (const CaStepResult& sr :
           config_->spec->step(view_state_, e.object(), e.ops())) {
        if (sr.element == e) {
          view_state_ = sr.next;
          stepped = true;
          break;
        }
      }
      if (!stepped) {
        report_violation("logged element rejected by the specification: " +
                         e.to_string());
        return;
      }
    }
    // L1: every member is a currently-executing, unlogged operation.
    for (const Operation& op : e.ops()) {
      if (auto why = mark_logged(op)) {
        report_violation(*why);
        return;
      }
    }
  }
}

void World::truncate(ThreadCtx& t) {
  note_global_effect();
  t.truncated = true;
}

bool World::all_done() const noexcept {
  for (const ThreadCtx& t : threads_) {
    if (!t.done(config_->programs[t.program].calls.size())) return false;
  }
  // Under TSO a terminal state must be drained: pending buffered writes
  // still have futures (their flush transitions), and the explorer keeps
  // offering those for completed threads, so this always terminates.
  return mem_.buffered_total() == 0;
}

void World::encode(std::vector<std::int64_t>& out) const {
  mem_.encode(out);
  for (const ThreadCtx& t : threads_) {
    out.push_back(static_cast<std::int64_t>(t.call_idx));
    out.push_back(t.pc);
    for (Word r : t.regs) out.push_back(r);
    out.push_back(t.choice);
    out.push_back((t.op_active ? 1 : 0) | (t.op_logged ? 2 : 0) |
                  (t.truncated ? 4 : 0) |
                  (static_cast<std::int64_t>(t.stage) << 3));
    out.push_back(static_cast<std::int64_t>(t.op_logged_ret.hash()));
    out.push_back(static_cast<std::int64_t>(t.oplog.size()));
    out.insert(out.end(), t.oplog.begin(), t.oplog.end());
    out.push_back(static_cast<std::int64_t>(t.emits));
    out.push_back(static_cast<std::int64_t>(t.retries));
  }
  out.push_back(static_cast<std::int64_t>(view_state_.size()));
  out.insert(out.end(), view_state_.begin(), view_state_.end());
  out.push_back(static_cast<std::int64_t>(events_));

  // Reclamation state: part of the configuration iff recycling (retired
  // sets, protections, and generations all shape future transitions).
  // Appended last so legacy encodings stay byte-identical.
  if (config_->recycle_addresses) {
    for (const ThreadCtx& t : threads_) {
      // Frozen-read logs exist only under recycling; they are replay
      // state (future return values depend on them), so they separate
      // states like the oplog does.
      out.push_back(static_cast<std::int64_t>(t.frozen.size()));
      out.insert(out.end(), t.frozen.begin(), t.frozen.end());
    }
    for (const ThreadReclaim& tr : reclaim_) {
      for (Word h : tr.hazards) out.push_back(h);
      out.push_back(tr.next_slot);
      out.push_back(static_cast<std::int64_t>(tr.records.size()));
      for (const ProtRecord& r : tr.records) {
        out.push_back(static_cast<std::int64_t>(r.cell));
        out.push_back(r.value);
        out.push_back(r.version);
      }
    }
    out.push_back(static_cast<std::int64_t>(retired_.size()));
    for (const RetiredBlock& r : retired_) {
      out.push_back(static_cast<std::int64_t>(r.block));
      out.push_back(r.cells);
      out.push_back(static_cast<std::int64_t>(r.graced_mask));
      out.push_back((r.grace ? 1 : 0) |
                    (static_cast<std::int64_t>(r.retirer) << 1));
    }
    out.push_back(static_cast<std::int64_t>(free_.size()));
    for (const auto& [a, n] : free_) {
      out.push_back(static_cast<std::int64_t>(a));
      out.push_back(n);
    }
    out.push_back(static_cast<std::int64_t>(alloc_cells_.size()));
    for (const auto& [a, n] : alloc_cells_) {
      out.push_back(static_cast<std::int64_t>(a));
      out.push_back(n);
    }
    // Generations, sparsely (they only move on protocol-cell CASes).
    std::int64_t nonzero = 0;
    for (std::uint32_t v : versions_) nonzero += (v != 0);
    out.push_back(nonzero);
    for (std::size_t a = 0; a < versions_.size(); ++a) {
      if (versions_[a] == 0) continue;
      out.push_back(static_cast<std::int64_t>(a));
      out.push_back(versions_[a]);
    }
  }
}

// --- WorldCanon -----------------------------------------------------------

namespace {

bool same_program(const ThreadProgram& a, const ThreadProgram& b) {
  if (a.calls.size() != b.calls.size()) return false;
  for (std::size_t k = 0; k < a.calls.size(); ++k) {
    if (a.calls[k].object != b.calls[k].object ||
        a.calls[k].method != b.calls[k].method ||
        a.calls[k].arg != b.calls[k].arg) {
      return false;
    }
  }
  return true;
}

// Word-token tags of the canonical encoding. Every emitted word is a
// (tag, payload...) group, so equal encodings decode to worlds equal up
// to the applied renaming — the rewriting is injective.
constexpr std::int64_t kTagRaw = 0;
constexpr std::int64_t kTagRef = 1;  ///< interchangeable-segment address
constexpr std::int64_t kTagTid = 2;  ///< interchangeable thread's tid

/// WorldCanon::encode's working buffers, reused across calls so encoding
/// allocates nothing once warm. Per thread: the parallel explorer's
/// workers encode concurrently.
struct CanonScratch {
  std::vector<std::size_t> order;
  std::vector<std::vector<std::int64_t>> keys;
  std::vector<std::size_t> sorted;
  std::vector<std::size_t> new_index;
};
thread_local CanonScratch canon_scratch;

}  // namespace

WorldCanon::WorldCanon(const WorldConfig& config) {
  // Recycling breaks the segment-ownership premise of the renaming (a
  // promoted block migrates across thread heaps, and the reclamation
  // lists hold raw addresses the rewriter does not reach): fall back to
  // the identity encoding, which is always sound.
  if (config.recycle_addresses) return;
  threads_ = config.programs.size();
  heap_cells_ = config.heap_cells;
  heaps_base_ = static_cast<Addr>(1 + config.global_cells);
  mem_size_ = 1 + config.global_cells + threads_ * heap_cells_;

  // Classes: threads with identical call sequences, in index order.
  class_of_.assign(threads_, -1);
  for (std::size_t i = 0; i < threads_; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (same_program(config.programs[i], config.programs[j])) {
        class_of_[i] = class_of_[j];
        break;
      }
    }
    if (class_of_[i] < 0) {
      class_of_[i] = static_cast<int>(class_members_.size());
      class_members_.emplace_back();
    }
    class_members_[static_cast<std::size_t>(class_of_[i])].push_back(i);
  }

  interchangeable_.assign(threads_, false);
  bool any_multi = false;
  for (const auto& members : class_members_) {
    if (members.size() < 2) continue;
    any_multi = true;
    for (std::size_t i : members) interchangeable_[i] = true;
  }
  if (!any_multi) return;

  // Value discipline. Tids of interchangeable threads must not alias
  // addresses or small counters; no program argument may alias those tids
  // or an interchangeable heap segment (else word classification, and so
  // the renaming, would be ambiguous).
  for (std::size_t i = 0; i < threads_; ++i) {
    if (!interchangeable_[i]) continue;
    const Word tid = static_cast<Word>(config.programs[i].tid);
    if (tid >= 0 && tid < static_cast<Word>(mem_size_)) return;
    tid_to_thread_.emplace_back(tid, i);
  }
  const auto is_interchangeable_ref = [this](Word v) {
    if (v < static_cast<Word>(heaps_base_) ||
        v >= static_cast<Word>(mem_size_)) {
      return false;
    }
    const std::size_t t =
        (static_cast<std::size_t>(v) - heaps_base_) / heap_cells_;
    return bool{interchangeable_[t]};
  };
  for (const ThreadProgram& p : config.programs) {
    for (const Call& call : p.calls) {
      if (call.arg.kind() == Value::Kind::kUnit) continue;
      if (call.arg.kind() != Value::Kind::kInt) return;  // conservative
      const Word v = call.arg.as_int();
      if (is_interchangeable_ref(v)) return;
      for (const auto& [tid, idx] : tid_to_thread_) {
        if (v == tid) return;
      }
    }
  }
  active_ = true;
}

void WorldCanon::emit_word(Word w, bool abstract, std::size_t self,
                           const std::vector<std::size_t>& new_index,
                           std::vector<std::int64_t>& out) const {
  if (w >= static_cast<Word>(heaps_base_) &&
      w < static_cast<Word>(mem_size_)) {
    const std::size_t t =
        (static_cast<std::size_t>(w) - heaps_base_) / heap_cells_;
    if (interchangeable_[t]) {
      const Word off = w - static_cast<Word>(heaps_base_ +
                                             t * heap_cells_);
      out.push_back(kTagRef);
      // For the sort key the target's identity is abstracted to its class
      // (plus a self bit); ties between references to distinct siblings
      // only cost merges (under-approximation), never soundness.
      out.push_back(abstract ? static_cast<std::int64_t>(class_of_[t])
                             : static_cast<std::int64_t>(new_index[t]));
      if (abstract) out.push_back(t == self ? 1 : 0);
      out.push_back(off);
      return;
    }
  }
  for (const auto& [tid, t] : tid_to_thread_) {
    if (w == tid) {
      out.push_back(kTagTid);
      out.push_back(abstract ? static_cast<std::int64_t>(class_of_[t])
                             : static_cast<std::int64_t>(new_index[t]));
      if (abstract) out.push_back(t == self ? 1 : 0);
      return;
    }
  }
  out.push_back(kTagRaw);
  out.push_back(w);
}

void WorldCanon::emit_thread(const World& world, std::size_t i,
                             bool abstract,
                             const std::vector<std::size_t>& new_index,
                             std::vector<std::int64_t>& out) const {
  const ThreadCtx& t = world.threads()[i];
  const SimMemory& mem = world.memory();
  // Structural counters are emitted raw (they are never addresses or
  // tids); registers, oplog entries, and heap cells hold arbitrary words
  // and go through the token rewriter.
  out.push_back(static_cast<std::int64_t>(t.call_idx));
  out.push_back(t.pc);
  for (Word r : t.regs) emit_word(r, abstract, i, new_index, out);
  out.push_back(t.choice);
  out.push_back((t.op_active ? 1 : 0) | (t.op_logged ? 2 : 0) |
                (t.truncated ? 4 : 0) |
                (static_cast<std::int64_t>(t.stage) << 3));
  out.push_back(static_cast<std::int64_t>(t.op_logged_ret.hash()));
  out.push_back(static_cast<std::int64_t>(t.oplog.size()));
  for (Word w : t.oplog) emit_word(w, abstract, i, new_index, out);
  out.push_back(static_cast<std::int64_t>(t.emits));
  out.push_back(static_cast<std::int64_t>(t.retries));
  // TSO store buffer: FIFO of (addr, value). Addresses may reference an
  // interchangeable heap segment and values may be tids, so both go
  // through the token rewriter like cells do.
  const auto& buf = mem.buffer(static_cast<std::uint32_t>(i));
  out.push_back(static_cast<std::int64_t>(buf.size()));
  for (const SimMemory::BufferedWrite& w : buf) {
    emit_word(static_cast<Word>(w.addr), abstract, i, new_index, out);
    emit_word(w.value, abstract, i, new_index, out);
  }
  out.push_back(static_cast<std::int64_t>(mem.heap_next(i)));
  const Addr base = mem.segment_base(i);
  for (std::size_t c = 0; c < heap_cells_; ++c) {
    emit_word(mem.cell(base + static_cast<Addr>(c)), abstract, i, new_index,
              out);
  }
}

void WorldCanon::encode(const World& world, std::uint64_t sleep_mask,
                        std::vector<std::int64_t>& out,
                        bool& renamed) const {
  renamed = false;
  if (!active_) {
    world.encode(out);
    out.push_back(static_cast<std::int64_t>(sleep_mask));
    return;
  }

  // Pick the permutation: within each multi-member class, order members
  // by their abstracted (renaming-invariant) state. The permutation maps
  // class members onto the class's own slots; unique threads stay put.
  static const std::vector<std::size_t> kNoIndex;
  CanonScratch& sc = canon_scratch;
  std::vector<std::size_t>& order = sc.order;
  std::vector<std::vector<std::int64_t>>& keys = sc.keys;
  std::vector<std::size_t>& sorted = sc.sorted;
  std::vector<std::size_t>& new_index = sc.new_index;
  order.resize(threads_);
  for (std::size_t i = 0; i < threads_; ++i) order[i] = i;
  if (keys.size() < threads_) keys.resize(threads_);
  for (const auto& members : class_members_) {
    if (members.size() < 2) continue;
    for (std::size_t i : members) {
      keys[i].clear();
      emit_thread(world, i, /*abstract=*/true, kNoIndex, keys[i]);
    }
    // Stable insertion sort by abstracted state (classes are small, and
    // std::stable_sort would allocate its merge buffer).
    sorted.assign(members.begin(), members.end());
    for (std::size_t k = 1; k < sorted.size(); ++k) {
      const std::size_t m = sorted[k];
      std::size_t j = k;
      for (; j > 0 && keys[m] < keys[sorted[j - 1]]; --j) {
        sorted[j] = sorted[j - 1];
      }
      sorted[j] = m;
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      order[members[k]] = sorted[k];  // slot members[k] holds sorted[k]
    }
  }
  new_index.resize(threads_);
  for (std::size_t slot = 0; slot < threads_; ++slot) {
    new_index[order[slot]] = slot;
    if (order[slot] != slot) renamed = true;
  }

  // Emit the renamed world: globals, threads in permuted order, view
  // state, events, and the permuted sleep mask.
  const SimMemory& mem = world.memory();
  out.push_back(static_cast<std::int64_t>(mem.globals_used()));
  for (Addr a = 1; a < heaps_base_; ++a) {
    emit_word(mem.cell(a), /*abstract=*/false, threads_, new_index, out);
  }
  for (std::size_t slot = 0; slot < threads_; ++slot) {
    emit_thread(world, order[slot], /*abstract=*/false, new_index, out);
  }
  const SpecState& view = world.view_state();
  out.push_back(static_cast<std::int64_t>(view.size()));
  out.insert(out.end(), view.begin(), view.end());
  out.push_back(static_cast<std::int64_t>(world.events()));
  std::uint64_t permuted_sleep = 0;
  for (std::size_t i = 0; i < threads_ && i < 64; ++i) {
    if ((sleep_mask >> i) & 1u) permuted_sleep |= (1ull << new_index[i]);
  }
  out.push_back(static_cast<std::int64_t>(permuted_sleep));
}

}  // namespace cal::sched
