// TaggedReclaimer — counted/tagged pointers (the classic IBM ABA defense).
//
// A per-cell generation tag occupies bits 48..63 of the cell word, beside
// the 48-bit block address (x86-64 user pointers fit). protect() records
// the full raw word it loaded in a per-thread record; cas() widens the
// comparison to that raw word — address *and* tag — and installs the
// desired address with the tag bumped. A stale CAS whose address happens
// to match a recycled block therefore fails on the tag: reuse is
// immediate, the generation count is what defeats ABA.
//
// Soundness conditions this backend imposes on the Env bodies:
//
//   * Tags live only in *protocol cells* — cells that are CASed under a
//     protect record (stack top, queue head/tail/next-link). Data cells
//     and cells CASed without protect (exchanger g/hole) stay raw.
//   * Storage is type-stable: retired blocks go to per-thread size-binned
//     free lists and are only ever reused as blocks of the same cell
//     count, never returned to the OS before the reclaimer dies. Stale
//     readers may observe recycled cell *values* (their subsequent tagged
//     CAS fails), but never a torn or unmapped word.
//   * Recycled blocks are re-zeroed in their value bits only; tag bits
//     survive reuse, which is exactly what keeps a cell's generation
//     monotone across block lifetimes.
//   * Value words written through store_private are confined to 48 bits
//     (tag preservation masks the top 16); all corpus payloads are small
//     non-negative integers.
//
// tag_bits is configurable (default 16): the tag-width-truncation mutant
// of the ABA corpus is this backend with tag_bits = 0, where the widened
// compare degenerates to the plain one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/reclaim/ebr.hpp"
#include "runtime/reclaim/reclaimer.hpp"

namespace cal::runtime {

class TaggedReclaimer final : public Reclaimer {
 public:
  static constexpr std::size_t kMaxThreads = ThreadRegistry::kMaxThreads;
  static constexpr unsigned kTagShift = 48;
  static constexpr std::uint64_t kValueMask = (1ull << kTagShift) - 1;
  /// Protect records live per thread; the deepest corpus body holds 4.
  static constexpr std::size_t kMaxRecords = 16;

  explicit TaggedReclaimer(unsigned tag_bits = 16) noexcept
      : tag_mask_((tag_bits == 0 ? 0ull : ((1ull << tag_bits) - 1ull))) {}
  ~TaggedReclaimer() override;

  TaggedReclaimer(const TaggedReclaimer&) = delete;
  TaggedReclaimer& operator=(const TaggedReclaimer&) = delete;

  [[nodiscard]] ReclaimPolicy policy() const noexcept override {
    return ReclaimPolicy::kTagged;
  }

  void enter(ThreadId t) noexcept override;
  void exit(ThreadId t) noexcept override;

  Word protect(ThreadId t, const std::atomic<Word>* cell,
               std::memory_order order) noexcept override;
  void release(ThreadId t) noexcept override;
  [[nodiscard]] bool validate(ThreadId t, const std::atomic<Word>* cell)
      const noexcept override;

  bool cas(ThreadId t, std::atomic<Word>* cell, Word expected, Word desired,
           std::memory_order success,
           std::memory_order failure) noexcept override;

  [[nodiscard]] Word alloc(ThreadId t, Word cells) override;
  void dealloc(ThreadId t, Word block, Word cells) noexcept override;
  void retire(ThreadId t, Word block, Word cells) override;
  void retire_grace(ThreadId t, Word block, Word cells) override;

  [[nodiscard]] Word strip(Word raw) const noexcept override {
    return static_cast<Word>(static_cast<std::uint64_t>(raw) & kValueMask);
  }

  /// Writes `v` into a (possibly recycled) cell, preserving its tag bits.
  void store_preserving_tag(std::atomic<Word>* cell, Word v) const noexcept {
    const std::uint64_t old = static_cast<std::uint64_t>(
        cell->load(std::memory_order_relaxed));
    cell->store(static_cast<Word>((old & ~kValueMask) |
                                  (static_cast<std::uint64_t>(v) & kValueMask)),
                std::memory_order_relaxed);
  }

  [[nodiscard]] ReclaimStats stats() const noexcept override;

 private:
  struct Record {
    const std::atomic<Word>* cell = nullptr;
    Word raw = 0;
  };
  struct alignas(64) Records {
    Record rec[kMaxRecords];
    std::size_t count = 0;  // owning thread only
  };
  struct FreeBlock {
    Word block = 0;
    /// Came from retire(): counted as pending until reused, then as
    /// reclaimed. dealloc()'s never-published blocks are not.
    bool retired = false;
  };
  struct FreeBin {
    Word cells = 0;
    std::vector<FreeBlock> blocks;
  };
  struct alignas(64) Bins {
    std::vector<FreeBin> by_size;  // owning thread only
    std::atomic<std::size_t> size{0};
  };

  /// Appends `block` to thread `t`'s bin for `cells`-cell blocks.
  void free_list(ThreadId t, Word block, Word cells, bool retired);

  [[nodiscard]] std::uint64_t bump_tag(std::uint64_t raw) const noexcept {
    const std::uint64_t tag = (raw >> kTagShift) & 0xFFFFull;
    // Truncate the increment to tag_bits (the mutant axis): with the full
    // 16 bits this wraps at 65536 generations, with 0 bits it never moves.
    const std::uint64_t next = (tag + 1) & tag_mask_;
    return next << kTagShift;
  }

  Records records_[kMaxThreads];
  Bins bins_[kMaxThreads];
  EpochDomain grace_;  // backs retire_grace; pinned via enter/exit
  std::uint64_t tag_mask_;
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::size_t> reclaimed_{0};
};

}  // namespace cal::runtime
