// A wait-free claim/publish slot log, shared by Recorder and TraceLog.
//
// Both runtime logs — the action recorder and the auxiliary trace variable
// 𝒯 — need the same primitive: many producer threads append items into a
// single global order with no locks, while observers read consistent
// prefixes. The protocol:
//
//   * a producer claims a slot with one atomic fetch_add on `next_`
//     (wait-free), writes the item, then *publishes* it with a release
//     store on the slot's ready flag;
//   * appends past capacity are dropped and counted (`dropped()`), so the
//     producer path never blocks and every lost item is accounted for:
//     claimed + dropped == total append attempts, and once producers have
//     quiesced size() + dropped() == total appends;
//   * readers use acquire loads on the ready flags and stop at the first
//     unpublished slot, so they only ever observe a gap-free prefix of the
//     claimed order (`snapshot_prefix`, or incrementally via `Cursor`).
//
// Overflow interaction of size()/snapshot: `next_` keeps counting past
// capacity (each overshoot is one drop); size() clamps it to capacity, and
// the published prefix is always a prefix of the first `capacity` claimed
// slots. `next_` would need 2^64 appends to wrap — not reachable.
//
// The Cursor is the streaming counterpart of snapshot_prefix: it remembers
// how far it has read and hands out only newly published items, which is
// what lets the incremental checker consume a live run window-by-window
// instead of re-reading the whole log.
//
// Ordering audit (weak-memory pass): the claim fetch_add can stay relaxed
// because it synchronizes nothing — it only hands out a unique index, and
// slot i is written exclusively by its claimant until a quiesced reset.
// All cross-thread data movement is gated by the per-slot ready flag's
// release/acquire pair, and no correctness property rests on a thread's
// *own* store becoming visible before one of its later loads — the
// store→load reordering TSO permits (the EBR pin() needed a fence for
// precisely that; see runtime/reclaim/ebr.cpp). size()'s acquire on next_ only
// tightens the prefix bound readers start from; staleness there delays,
// never corrupts, a poll.
//
// Storage: the slots are one anonymous mmap, unmapped by the deleter. The
// kernel hands out zeroed pages and faults each in on first touch, so
// building a log constructs nothing and writes nothing: a 2^20-slot
// Recorder costs one mmap, not a million item constructors, and a 4 224-slot
// one no memset either (calloc would memset it whenever glibc serves it from
// a recycled heap chunk, which it does once a large freed block has raised
// the mmap threshold). A slot holds raw bytes for its item beside its ready
// flag (a plain bool accessed through std::atomic_ref; zero is "not ready").
// The append that claims a slot constructs the item in place, and reset()
// and the destructor destroy exactly the published items. Keeping the flag
// beside its item, rather than in a separate flag array, keeps concurrent
// writers off each other's cache lines.
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <utility>

namespace cal::runtime {

template <typename T>
class PublishLog {
 public:
  explicit PublishLog(std::size_t capacity)
      : slots_(allocate(capacity)), capacity_(capacity) {}

  ~PublishLog() { destroy_published(); }

  PublishLog(const PublishLog&) = delete;
  PublishLog& operator=(const PublishLog&) = delete;

  /// Claims a slot and publishes `item` into it. Wait-free; drops (and
  /// counts) when the log is full.
  void append(T item) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ::new (static_cast<void*>(slots_[i].bytes)) T(std::move(item));
    slots_[i].ready_ref().store(true, std::memory_order_release);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Claimed slots, clamped to capacity. An upper bound on the published
  /// prefix while producers are running; exact once they have quiesced.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::size_t n = next_.load(std::memory_order_acquire);
    return n < capacity_ ? n : capacity_;
  }

  /// Appends dropped because the log was full.
  [[nodiscard]] std::size_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Copies the longest published prefix into `sink(item)`, in order.
  /// Safe concurrently with producers: stops at the first unpublished slot.
  template <typename Sink>
  void snapshot_prefix(Sink&& sink) const {
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots_[i].ready_ref().load(std::memory_order_acquire)) break;
      sink(slots_[i].item());
    }
  }

  /// Destroys the published items and empties the log. Not thread-safe
  /// against concurrent producers (callers quiesce first).
  void reset() {
    destroy_published();
    dropped_.store(0, std::memory_order_relaxed);
    next_.store(0, std::memory_order_release);
  }

  /// An incremental reader: each poll() hands out the items published since
  /// the previous poll, never re-reading or skipping a slot. One cursor is
  /// single-reader; independent cursors are independent.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const PublishLog& log) : log_(&log) {}

    /// Feeds every newly published item to `sink(item)` (at most `max`
    /// items; 0 = unbounded) and returns how many were consumed.
    template <typename Sink>
    std::size_t poll(Sink&& sink, std::size_t max = 0) {
      if (log_ == nullptr) return 0;
      std::size_t consumed = 0;
      const std::size_t n = log_->size();
      while (pos_ < n && (max == 0 || consumed < max)) {
        const Slot& slot = log_->slots_[pos_];
        if (!slot.ready_ref().load(std::memory_order_acquire)) break;
        sink(slot.item());
        ++pos_;
        ++consumed;
      }
      return consumed;
    }

    /// Slots consumed so far (== the next slot index to read).
    [[nodiscard]] std::size_t position() const noexcept { return pos_; }

    /// True once the log is full *and* every slot has been consumed — no
    /// further item can ever appear.
    [[nodiscard]] bool at_capacity() const noexcept {
      return log_ != nullptr && pos_ == log_->capacity();
    }

   private:
    const PublishLog* log_ = nullptr;
    std::size_t pos_ = 0;
  };

  [[nodiscard]] Cursor cursor() const { return Cursor(*this); }

 private:
  /// Trivial, so zero-filled memory is a valid array of empty slots.
  struct Slot {
    alignas(T) unsigned char bytes[sizeof(T)];
    bool ready;  ///< only ever accessed through ready_ref()

    [[nodiscard]] std::atomic_ref<bool> ready_ref() const noexcept {
      return std::atomic_ref<bool>(const_cast<bool&>(ready));
    }
    [[nodiscard]] const T& item() const noexcept {
      return *std::launder(reinterpret_cast<const T*>(bytes));
    }
    [[nodiscard]] T& item() noexcept {
      return *std::launder(reinterpret_cast<T*>(bytes));
    }
  };
  static_assert(alignof(Slot) <= 4096,
                "mapped slots must be suitably aligned");

  struct Unmap {
    std::size_t bytes = 0;
    void operator()(Slot* p) const noexcept { ::munmap(p, bytes); }
  };

  static std::unique_ptr<Slot[], Unmap> allocate(std::size_t capacity) {
    if (capacity == 0) return nullptr;
    if (capacity > std::numeric_limits<std::size_t>::max() / sizeof(Slot)) {
      throw std::bad_alloc();
    }
    const std::size_t bytes = capacity * sizeof(Slot);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return std::unique_ptr<Slot[], Unmap>(static_cast<Slot*>(p),
                                          Unmap{bytes});
  }

  /// Destroys every published item and clears its flag (quiesced only).
  void destroy_published() noexcept {
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[i];
      if (!slot.ready_ref().load(std::memory_order_relaxed)) continue;
      slot.item().~T();
      slot.ready_ref().store(false, std::memory_order_relaxed);
    }
  }

  std::unique_ptr<Slot[], Unmap> slots_;
  std::size_t capacity_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> dropped_{0};
};

}  // namespace cal::runtime
