// The dual synchronous queue (Scherer, Lea & Scott) — the paper's second
// exchanger-style client — as a single Env-parameterized body: an unfair
// dual stack of reservations where the fulfilling CAS completes both
// operations simultaneously (the XCHG analogue) and appends the joint
// CA-element Q.{(put(v) ▷ true), (take() ▷ (true,v))} to 𝒯, and a timed-out
// reservation cancels itself with the exchanger's "pass" idiom.
//
// One *attempt* = one iteration of the transfer loop. The real SyncQueue
// loops until it pairs or cancels; the simulated one is retry-bounded.
//
// Reclamation: a reservation is retired by whoever pops it off the spine
// (the owner's cancel-unlink, a helper, or the fulfiller), never by its
// owner while it may still be linked — a matched or cancelled node can
// sit under newer reservations indefinitely, and retiring it there would
// let the epoch domain free a node that `top` still reaches. Nodes still
// linked at destruction are the queue's to free. The fulfiller's own node
// is never linked (only the partner's match cell names it), so the
// fulfiller retires it at once.
#pragma once

#include <cstdint>

#include "cal/ca_trace.hpp"
#include "cal/value.hpp"
#include "objects/env.hpp"

namespace cal::objects::core {

// Reservation layout: [0] mode (0 = DATA/put, 1 = REQUEST/take), [1] data,
// [2] tid, [3] match (partner node or the cancelled sentinel), [4] next.
inline constexpr Word kNodeMode = 0;
inline constexpr Word kNodeData = 1;
inline constexpr Word kNodeTid = 2;
inline constexpr Word kNodeMatch = 3;
inline constexpr Word kNodeNext = 4;
inline constexpr Word kNodeCells = 5;

inline constexpr Word kModeData = 0;
inline constexpr Word kModeRequest = 1;

/// World event bit signalled when a hand-off pairing completes.
inline constexpr unsigned kEventPairing = 1;

struct SyncQueueRefs {
  Word top = kNullRef;
  Word cancelled = kNullRef;  ///< cancellation sentinel node
};

struct SyncQueuePc {
  enum : std::int32_t {
    kStart = 0,
    kCancelCas = 3,
    kUnlinkSelf = 4,
    kFailReturn = 5,
    kWaiterReturn = 6,
    kHelpUnlink = 8,
    kFulfillCas = 9,
    kUnlinkTop = 10,
    kFulfillReturn = 11,
  };
};

enum class SyncTransfer : std::uint8_t {
  kPaired,    ///< handed off; `received` holds the partner's data
  kTimedOut,  ///< cancelled own reservation (the "pass" move)
  kRetry,     ///< lost a race; loop again
};

struct SyncTransferOutcome {
  SyncTransfer kind = SyncTransfer::kRetry;
  Word received = 0;
};

/// One transfer attempt. `mode` is kModeData (put, carrying v) or
/// kModeRequest (take, v ignored).
template <class Env>
SyncTransferOutcome sync_queue_transfer_attempt(Env& env,
                                                const SyncQueueRefs& q,
                                                Symbol name, ThreadId tid,
                                                Word mode, Word v,
                                                unsigned spins) {
  static const Symbol kPut{"put"};
  static const Symbol kTake{"take"};
  auto failure = [&] {
    if (mode == kModeData) {
      return CaElement::singleton(
          name, Operation::make(tid, name, kPut, Value::integer(v),
                                Value::boolean(false)));
    }
    return CaElement::singleton(
        name, Operation::make(tid, name, kTake, Value::unit(),
                              Value::pair(false, 0)));
  };
  auto pair_element = [&](ThreadId putter, Word value, ThreadId taker) {
    return CaElement(
        name, {Operation::make(putter, name, kPut, Value::integer(value),
                               Value::boolean(true)),
               Operation::make(taker, name, kTake, Value::unit(),
                               Value::pair(true, value))});
  };

  // Acquire pairs with the publishing CAS's release on the top node.
  const Word h = env.load(q.top, 0, MemOrder::kAcquire);
  if (h == kNullRef || env.load_frozen(h, kNodeMode) == mode) {
    // Same-mode top (or empty): publish a reservation and wait.
    const Word node = env.alloc(kNodeCells);
    env.store_private(node, kNodeMode, mode);
    env.store_private(node, kNodeData, v);
    env.store_private(node, kNodeTid, static_cast<Word>(tid));
    env.store_private(node, kNodeNext, h);
    // Publishes the private reservation init (release).
    if (!env.cas(q.top, 0, h, node, MemOrder::kAcqRel)) {
      env.free_private(node, kNodeCells);  // never published
      return {SyncTransfer::kRetry, 0};
    }
    env.await(node, kNodeMatch, spins);
    env.label(SyncQueuePc::kCancelCas);
    // Cancel races the fulfiller's match CAS; failure needs acquire to
    // read the partner node the fulfiller installed.
    if (env.cas(node, kNodeMatch, kNullRef, q.cancelled,
                MemOrder::kAcqRel)) {
      // Timed out unpaired — the exchanger's "pass" move. Best-effort
      // unlink if we are still the top; otherwise a helper pops (and
      // retires) us later.
      const Word next = env.load_frozen(node, kNodeNext);
      env.label(SyncQueuePc::kUnlinkSelf);
      const bool popped = env.cas(q.top, 0, node, next, MemOrder::kRelease);
      env.emit(failure);
      if (popped) env.retire_grace(node, kNodeCells);
      env.label(SyncQueuePc::kFailReturn);
      return {SyncTransfer::kTimedOut, 0};
    }
    // Fulfilled: the fulfiller logged the pairing element, and pops (and
    // retires) our node unless a newer reservation covers it.
    const Word partner = env.load_frozen(node, kNodeMatch);
    const Word received = env.load_frozen(partner, kNodeData);
    env.label(SyncQueuePc::kWaiterReturn);
    return {SyncTransfer::kPaired, received};
  }

  // Complementary top: try to fulfill it.
  const Word hmatch = env.load(h, kNodeMatch, MemOrder::kAcquire);
  if (hmatch != kNullRef) {
    // Already matched or cancelled: help unlink and retry.
    const Word next = env.load_frozen(h, kNodeNext);
    env.label(SyncQueuePc::kHelpUnlink);
    if (env.cas(q.top, 0, h, next, MemOrder::kRelease)) {
      env.retire_grace(h, kNodeCells);
    }
    return {SyncTransfer::kRetry, 0};
  }
  const Word node = env.alloc(kNodeCells);
  env.store_private(node, kNodeMode, mode);
  env.store_private(node, kNodeData, v);
  env.store_private(node, kNodeTid, static_cast<Word>(tid));
  env.label(SyncQueuePc::kFulfillCas);
  // The fulfilling CAS publishes our node into the partner's match cell
  // (release) and, on failure, observes the cancel sentinel (acquire).
  if (env.cas(h, kNodeMatch, kNullRef, node, MemOrder::kAcqRel)) {
    // The fulfilling CAS completes both operations simultaneously: the
    // joint CA-element is appended atomically with it.
    const auto partner_tid =
        static_cast<ThreadId>(env.load_frozen(h, kNodeTid));
    const Word partner_data = env.load_frozen(h, kNodeData);
    if (mode == kModeRequest) {
      env.emit([&] { return pair_element(partner_tid, partner_data, tid); });
    } else {
      env.emit([&] { return pair_element(tid, v, partner_tid); });
    }
    env.event(kEventPairing);
    const Word next = env.load_frozen(h, kNodeNext);
    env.label(SyncQueuePc::kUnlinkTop);
    // Pop the fulfilled reservation; a newer one on top leaves it to a
    // later helper.
    if (env.cas(q.top, 0, h, next, MemOrder::kRelease)) {
      env.retire_grace(h, kNodeCells);
    }
    const Word received = partner_data;
    env.retire_grace(node, kNodeCells);
    env.label(SyncQueuePc::kFulfillReturn);
    return {SyncTransfer::kPaired, received};
  }
  env.free_private(node, kNodeCells);  // lost the fulfill race
  return {SyncTransfer::kRetry, 0};
}

}  // namespace cal::objects::core
