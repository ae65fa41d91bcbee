#include "runtime/reclaim/tagged.hpp"

#include <algorithm>
#include <cassert>

namespace cal::runtime {

TaggedReclaimer::~TaggedReclaimer() {
  // Type-stability ends with the reclaimer: drain every free bin.
  for (Bins& bins : bins_) {
    for (FreeBin& bin : bins.by_size) {
      for (const FreeBlock& free : bin.blocks) delete_block(free.block);
      bin.blocks.clear();
    }
  }
}

void TaggedReclaimer::enter(ThreadId t) noexcept {
  assert(t < kMaxThreads);
  grace_.pin(t);
}

void TaggedReclaimer::exit(ThreadId t) noexcept {
  release(t);
  grace_.unpin(t);
}

auto TaggedReclaimer::protect(ThreadId t, const std::atomic<Word>* cell,
                              std::memory_order order) noexcept -> Word {
  assert(t < kMaxThreads);
  const Word raw = cell->load(order);
  Records& records = records_[t];
  // First load wins: a re-protect of the same cell returns the fresh
  // stripped value but keeps the original record. Refreshing would be
  // unsound — a dereference made between the first protect and the
  // recheck (the MS-queue's next read) belongs to the original
  // generation, and a refreshed record would let the final CAS succeed
  // against a newer one, installing that stale dereference's result.
  for (std::size_t i = 0; i < records.count; ++i) {
    if (records.rec[i].cell == cell) return strip(raw);
  }
  if (records.count < kMaxRecords) {
    records.rec[records.count++] = Record{cell, raw};
  }
  // On overflow the record is dropped; the subsequent cas() falls back to
  // the raw compare, which fails against a tagged cell and retries — safe,
  // never unsound. The corpus holds at most 4 records.
  return strip(raw);
}

void TaggedReclaimer::release(ThreadId t) noexcept {
  assert(t < kMaxThreads);
  records_[t].count = 0;
}

bool TaggedReclaimer::validate(ThreadId t,
                               const std::atomic<Word>* cell) const noexcept {
  assert(t < kMaxThreads);
  const Records& records = records_[t];
  for (std::size_t i = 0; i < records.count; ++i) {
    if (records.rec[i].cell != cell) continue;
    // Raw (tag-widened) compare: a recycled same-address generation fails
    // here even though a stripped compare would pass.
    return cell->load(std::memory_order_seq_cst) == records.rec[i].raw;
  }
  return true;  // never protected: nothing to validate against
}

bool TaggedReclaimer::cas(ThreadId t, std::atomic<Word>* cell, Word expected,
                          Word desired, std::memory_order success,
                          std::memory_order failure) noexcept {
  assert(t < kMaxThreads);
  Records& records = records_[t];
  for (std::size_t i = 0; i < records.count; ++i) {
    if (records.rec[i].cell != cell) continue;
    const std::uint64_t raw = static_cast<std::uint64_t>(records.rec[i].raw);
    if (strip(records.rec[i].raw) != expected) break;  // stale record
    // Widened compare: address and tag. Install the bumped tag beside the
    // desired address so any protect record taken before this CAS goes
    // stale on the tag, not just the address.
    Word exp = records.rec[i].raw;
    const Word des = static_cast<Word>(
        (static_cast<std::uint64_t>(desired) & kValueMask) | bump_tag(raw));
    const bool ok = cell->compare_exchange_strong(exp, des, success, failure);
    if (ok) records.rec[i].raw = des;
    return ok;
  }
  // No protect record: a non-protocol cell (exchanger g/hole), compared
  // raw. Protocol cells reached here (dropped record) fail and retry.
  Word exp = expected;
  return cell->compare_exchange_strong(exp, desired, success, failure);
}

auto TaggedReclaimer::alloc(ThreadId t, Word cells) -> Word {
  assert(t < kMaxThreads);
  Bins& bins = bins_[t];
  for (FreeBin& bin : bins.by_size) {
    if (bin.cells != cells || bin.blocks.empty()) continue;
    // FIFO reuse maximizes the window in which a stale reader can meet a
    // recycled block — the adversarial choice the mutants rely on.
    const FreeBlock free = bin.blocks.front();
    bin.blocks.erase(bin.blocks.begin());
    if (free.retired) {
      bins.size.fetch_sub(1, std::memory_order_relaxed);
      live_.fetch_sub(1, std::memory_order_relaxed);
      reclaimed_.fetch_add(1, std::memory_order_relaxed);
    }
    auto* base = reinterpret_cast<std::atomic<Word>*>(free.block);
    for (Word i = 0; i < cells; ++i) {
      // Zero the value bits, keep the generation tag: the concept's
      // "fresh zeroed block" modulo the tag discipline documented above.
      const std::uint64_t old =
          static_cast<std::uint64_t>(base[i].load(std::memory_order_relaxed));
      base[i].store(static_cast<Word>(old & ~kValueMask),
                    std::memory_order_relaxed);
    }
    return free.block;
  }
  return new_block(cells);
}

void TaggedReclaimer::free_list(ThreadId t, Word block, Word cells,
                                bool retired) {
  assert(t < kMaxThreads);
  Bins& bins = bins_[t];
  auto bin = std::find_if(
      bins.by_size.begin(), bins.by_size.end(),
      [cells](const FreeBin& b) { return b.cells == cells; });
  if (bin == bins.by_size.end()) {
    bin = bins.by_size.insert(bin, FreeBin{cells, {}});
  }
  bin->blocks.push_back(FreeBlock{block, retired});
  if (retired) {
    bins.size.fetch_add(1, std::memory_order_relaxed);
    live_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TaggedReclaimer::dealloc(ThreadId t, Word block, Word cells) noexcept {
  // Never published, but keep type-stability uniform: free-list it. It was
  // never retired, so it is neither pending nor, once reused, reclaimed.
  free_list(t, block, cells, /*retired=*/false);
}

void TaggedReclaimer::retire(ThreadId t, Word block, Word cells) {
  // Immediate, type-stable reuse: the tag is the ABA defense, so there is
  // no deferral — this is the whole point of the backend.
  free_list(t, block, cells, /*retired=*/true);
  const std::size_t live = live_.load(std::memory_order_relaxed);
  std::size_t hw = high_water_.load(std::memory_order_relaxed);
  while (live > hw && !high_water_.compare_exchange_weak(
                          hw, live, std::memory_order_relaxed)) {
  }
}

void TaggedReclaimer::retire_grace(ThreadId t, Word block, Word /*cells*/) {
  grace_.retire(t, reinterpret_cast<void*>(block),
                [](void* p) { delete_block(reinterpret_cast<Word>(p)); });
}

ReclaimStats TaggedReclaimer::stats() const noexcept {
  std::size_t pending = grace_.retired_count();
  for (const Bins& bins : bins_) {
    pending += bins.size.load(std::memory_order_relaxed);
  }
  return ReclaimStats{
      pending,
      reclaimed_.load(std::memory_order_relaxed) + grace_.reclaimed_total(),
      high_water_.load(std::memory_order_relaxed) +
          grace_.retired_high_water()};
}

}  // namespace cal::runtime
