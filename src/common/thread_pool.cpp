#include "common/thread_pool.hpp"

#include <algorithm>

namespace pimtc {

namespace {

/// The pool whose worker_loop the calling thread is executing, if any.
/// Drives the caller-runs fallback of the blocking primitives: a worker
/// that re-enters its own pool must not wait on a slot it occupies.
thread_local const ThreadPool* current_pool = nullptr;

/// Per-invocation completion state of one parallel_for/parallel_chunks
/// call.  Owned jointly by the caller and its tasks: with the pool shared
/// between concurrent callers (the serving layer's sessions), a global
/// in-flight counter would make callers wait on each other's tasks and
/// leak exceptions across calls.
struct Completion {
  Mutex mutex;
  std::condition_variable cv;
  std::size_t remaining PIMTC_GUARDED_BY(mutex);
  std::exception_ptr first_error PIMTC_GUARDED_BY(mutex);

  explicit Completion(std::size_t n) : remaining(n) {}

  void finish_one(std::exception_ptr error) PIMTC_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (error && !first_error) first_error = std::move(error);
    if (--remaining == 0) cv.notify_all();
  }

  void wait() PIMTC_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    while (remaining != 0) lock.wait(cv);
    if (first_error) std::rethrow_exception(first_error);
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  current_pool = this;
  using Clock = std::chrono::steady_clock;
  const auto polling = [this](Clock::time_point idle_since) {
    return !stop_ && Clock::now() - idle_since < kIdlePoll;
  };
  Clock::time_point idle_since = Clock::now();
  for (;;) {
    while (queued_ == 0 && polling(idle_since)) {
      std::this_thread::yield();
    }
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Another worker took the task this one saw: poll on.
      if (queue_.empty() && polling(idle_since)) continue;
      while (!stop_ && queue_.empty()) lock.wait(cv_task_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_ = queue_.size();
    }
    task();
    idle_since = Clock::now();
  }
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(fn));
    queued_ = queue_.size();
  }
  cv_task_.notify_one();
}

bool ThreadPool::on_pool_thread() const noexcept {
  return current_pool == this;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Inline when parallelism cannot help (one iteration, one worker) or must
  // not be used (nested call from a worker of this very pool: blocking on
  // the queue would deadlock once every worker waits like this).
  if (n == 1 || workers_.size() == 1 || on_pool_thread()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Block distribution with one task per worker keeps queue traffic O(T).
  const std::size_t num_tasks = std::min(n, workers_.size());
  auto done = std::make_shared<Completion>(num_tasks);
  const std::size_t base = n / num_tasks;
  const std::size_t rem = n % num_tasks;
  std::size_t begin = 0;
  for (std::size_t t = 0; t < num_tasks; ++t) {
    const std::size_t len = base + (t < rem ? 1 : 0);
    const std::size_t end = begin + len;
    enqueue([&fn, done, begin, end] {
      std::exception_ptr error;
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      done->finish_one(std::move(error));
    });
    begin = end;
  }
  done->wait();
}

void ThreadPool::parallel_chunks(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t num_tasks = std::min(n, workers_.size());
  if (num_tasks <= 1 || on_pool_thread()) {
    fn(0, 0, n);
    return;
  }
  auto done = std::make_shared<Completion>(num_tasks);
  const std::size_t base = n / num_tasks;
  const std::size_t rem = n % num_tasks;
  std::size_t begin = 0;
  for (std::size_t t = 0; t < num_tasks; ++t) {
    const std::size_t len = base + (t < rem ? 1 : 0);
    const std::size_t end = begin + len;
    enqueue([&fn, done, t, begin, end] {
      std::exception_ptr error;
      try {
        fn(t, begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      done->finish_one(std::move(error));
    });
    begin = end;
  }
  done->wait();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pimtc
