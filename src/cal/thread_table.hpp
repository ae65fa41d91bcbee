// One value per thread id, for walks over a history or a stream.
//
// A flat open-addressing table (linear probing, power-of-two capacity, at
// most half full) instead of a node-based map's allocation per thread.
// History's walks, parse_history and IncrementalChecker each keep the
// index of every thread's open invocation in one. A history's walk keeps
// a slot for each of its threads; a stream can name any number of
// threads, so IncrementalChecker erases each slot at the call's response.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cal/operation.hpp"

namespace cal {

class ThreadTable {
 public:
  /// The value of every thread not yet written, and what erasing writes.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// The thread's value, kNone until written.
  std::size_t& operator[](ThreadId tid) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& s = probe(tid);
    if (!s.used) {
      s = Slot{tid, true, kNone};
      ++size_;
    }
    return s.value;
  }

  /// Forgets the thread (no-op if absent). Backward-shift deletion: the
  /// entries after it in its probe run move up, so no tombstone is left.
  void erase(ThreadId tid) {
    if (slots_.empty()) return;
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = home(tid);
    while (slots_[hole].used && slots_[hole].tid != tid) {
      hole = (hole + 1) & mask;
    }
    if (!slots_[hole].used) return;
    for (std::size_t i = (hole + 1) & mask; slots_[i].used;
         i = (i + 1) & mask) {
      // The entry at i may fill the hole unless its home lies cyclically
      // in (hole, i], where a probe for it would never pass the hole.
      const std::size_t h = home(slots_[i].tid);
      const bool stays = hole < i ? hole < h && h <= i : hole < h || h <= i;
      if (stays) continue;
      slots_[hole] = slots_[i];
      hole = i;
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Threads with a slot.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    ThreadId tid = 0;
    bool used = false;
    std::size_t value = kNone;
  };

  /// The slot a probe for `tid` starts at.
  [[nodiscard]] std::size_t home(ThreadId tid) const noexcept {
    return (tid * 0x9e3779b9u) & (slots_.size() - 1);
  }

  Slot& probe(ThreadId tid) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(tid);
    while (slots_[i].used && slots_[i].tid != tid) i = (i + 1) & mask;
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.used) probe(s.tid) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cal
