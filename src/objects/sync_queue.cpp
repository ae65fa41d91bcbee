#include "objects/sync_queue.hpp"

namespace cal::objects {

SyncQueue::~SyncQueue() {
  // Quiescent at destruction. Reservations are retired only by whoever pops
  // them off the spine (sync_queue_core.hpp), so every node still linked
  // here — matched or cancelled under a newer reservation, or unmatched
  // after an abnormal shutdown — is the spine's alone to free. The
  // cancelled sentinel is member storage and never linked into the spine.
  Word n = top_storage_.load(std::memory_order_acquire);
  while (n != kNullRef) {
    const Word next =
        RealEnv::cell(n, core::kNodeNext)->load(std::memory_order_relaxed);
    delete[] RealEnv::cell(n, 0);
    n = next;
  }
}

bool SyncQueue::transfer(ThreadId tid, Word mode, std::int64_t v,
                         unsigned spins, std::int64_t& received) {
  Reclaimer::Guard guard(rec_, tid);
  RealEnv env(&rec_, tid, trace_);
  for (;;) {
    const core::SyncTransferOutcome r = core::sync_queue_transfer_attempt(
        env, refs_, name_, tid, mode, v, spins);
    if (r.kind == core::SyncTransfer::kPaired) {
      received = r.received;
      return true;
    }
    if (r.kind == core::SyncTransfer::kTimedOut) return false;
  }
}

bool SyncQueue::put(ThreadId tid, std::int64_t v, unsigned spins) {
  std::int64_t ignored = 0;
  return transfer(tid, core::kModeData, v, spins, ignored);
}

PopResult SyncQueue::take(ThreadId tid, unsigned spins) {
  std::int64_t received = 0;
  if (transfer(tid, core::kModeRequest, 0, spins, received)) {
    return {true, received};
  }
  return {false, 0};
}

}  // namespace cal::objects
