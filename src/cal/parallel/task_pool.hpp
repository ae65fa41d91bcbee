// A small work-stealing task pool — the substrate of the explorer's
// parallel walk (engine::ParallelSearch, sched/explorer.cpp) and the
// cal-check --jobs batch pipeline.
//
// Design constraints, in order:
//   * correctness under TSan — every queue is a plain mutex-guarded deque
//     (one per worker, so contention is striped, plus an overflow queue
//     for external submitters); no lock-free cleverness on the control
//     path, the searches themselves are the hot path;
//   * recursive submission — tasks may submit subtasks (the parallel
//     walk forks the top levels of its search tree from inside pool
//     workers);
//     a worker pushes to its *own* deque and pops LIFO for locality, while
//     thieves steal FIFO from the opposite end;
//   * a quiescence barrier — wait_idle() blocks the (external) caller
//     until every submitted task, including transitively spawned ones,
//     has finished.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cal::par {

/// Resolves a user-facing thread-count option: 0 = one per hardware
/// thread, otherwise the value itself (minimum 1).
[[nodiscard]] inline std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

class TaskPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (0 = one per hardware thread).
  explicit TaskPool(std::size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. Callable from anywhere; when called from a pool
  /// worker the task lands on that worker's own deque (stolen FIFO by
  /// idle peers). Must not be called after/concurrently with destruction.
  void submit(Task task);

  /// Blocks until no task is queued or running. Call from outside the
  /// pool only (a worker waiting for quiescence would deadlock).
  void wait_idle();

 private:
  struct Queue {
    std::deque<Task> deque;  // guarded by TaskPool::mu_
  };

  void worker_loop(std::size_t index);
  bool try_pop(std::size_t self, Task& out);

  // One mutex guards all deques: the engines submit coarse tasks (whole
  // subtrees), so queue traffic is orders of magnitude rarer than search
  // steps and a single lock keeps wait_idle and shutdown trivially
  // race-free.
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: work available / shutdown
  std::condition_variable idle_cv_;   // wait_idle(): in_flight_ hit zero
  std::vector<Queue> queues_;         // queues_[i] owned by workers_[i]
  std::deque<Task> external_;         // submissions from non-worker threads
  std::size_t in_flight_ = 0;         // queued + currently executing
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cal::par
