// A small fixed-size thread pool: async task submission plus a blocking
// parallel_for.
//
// The host side of the paper's system uses 32 CPU threads to stream the edge
// file, build per-DPU batches and run Misra-Gries summaries; the simulator
// additionally uses host threads to execute DPU kernels functionally.  The
// serving layer (src/serve/) reuses the same pool as a task scheduler for
// long-running per-session drain work.  The pool is created once and reused:
// thread creation cost would otherwise pollute the "Setup time" phase
// measurements.
//
// Design notes (C++ Core Guidelines CP.*):
//  * no detached threads; the destructor joins everything (RAII),
//  * submit() returns a std::future carrying the result or the exception,
//  * parallel_for blocks the caller and rethrows the first task exception;
//    completion is tracked per call, so concurrent callers sharing one pool
//    neither wait on each other's tasks nor observe each other's exceptions,
//  * nested use is safe: a parallel_for/parallel_chunks issued from inside
//    one of this pool's workers runs inline in the caller (caller-runs
//    fallback) instead of blocking on the pool it occupies — the worker
//    cannot deadlock waiting for a slot it is itself holding,
//  * an idle worker polls the queue for kIdlePoll after its last task,
//    yielding its CPU between polls, and only then blocks.  A caller that
//    issues parallel phases back to back (the pim engine's partition,
//    flush and kernel launch within one batch) finds the workers awake
//    instead of waking each one per phase.  On a virtual machine a blocked
//    worker's idle vCPU can go to another guest, and its wake-up then
//    waits for the hypervisor: 2.5-6 ms on a shared 4-vCPU host, where a
//    stream-insert launch takes about 7 ms.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace pimtc {

class ThreadPool {
 public:
  /// Creates `num_threads` workers.  0 means std::thread::hardware_concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins every worker.  Tasks already queued still run to completion —
  /// a submitted task is never silently dropped.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules `fn` to run on some worker and returns a future for its
  /// result.  Exceptions thrown by `fn` surface through the future.  This
  /// is the scheduler API the serving layer drains session queues with;
  /// unlike parallel_for it never blocks the caller.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs fn(i) for i in [0, n) across the pool, blocking until every
  /// iteration finished.  Iterations are distributed in contiguous blocks so
  /// that per-thread state (thread-local batches, RNG streams) maps naturally
  /// to block index.  The first exception thrown by any iteration is
  /// rethrown in the caller.  Called from inside one of this pool's own
  /// workers, the loop runs inline in that worker.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs fn(t, begin, end) once per worker t with [begin,end) a contiguous
  /// chunk of [0, n).  This is the "one batch array per host thread" shape
  /// used by the batch builder: each thread owns a private chunk of the edge
  /// stream.  From inside one of this pool's workers it degrades to the
  /// single chunk fn(0, 0, n).
  void parallel_chunks(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.  The
  /// blocking primitives use it for their caller-runs fallback; schedulers
  /// can use it to refuse blocking waits that would starve the pool.
  [[nodiscard]] bool on_pool_thread() const noexcept;

  /// Global pool sized to hardware concurrency; shared by the library when
  /// callers do not supply their own.
  static ThreadPool& global();

 private:
  /// Fire-and-forget enqueue; `fn` must not throw (submit/parallel_for wrap
  /// user code so its exceptions are captured before they reach the worker).
  void enqueue(std::function<void()> fn) PIMTC_EXCLUDES(mutex_);
  void worker_loop() PIMTC_EXCLUDES(mutex_);

  /// How long an idle worker polls for a task before it blocks: longer
  /// than the serial gaps between one batch's parallel phases (at most
  /// about 0.5 ms in stream-insert), short enough that an idle pool costs
  /// its workers 1 ms of CPU each.
  static constexpr std::chrono::microseconds kIdlePoll{1000};

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::deque<std::function<void()>> queue_ PIMTC_GUARDED_BY(mutex_);
  /// queue_.size(), written under mutex_ and polled without it.
  std::atomic<std::size_t> queued_{0};
  std::condition_variable cv_task_;
  /// Set under mutex_, so a blocked worker cannot miss it; polled without.
  std::atomic<bool> stop_{false};
};

}  // namespace pimtc
