// One tenant of the serving layer: an engine session with a bounded ingest
// queue, drained asynchronously, queried through atomically-swapped
// snapshots.
//
// Concurrency contract (see DESIGN.md "Serving layer"):
//  * the engine is touched only by the drain task, and at most one drain
//    task per session is scheduled at a time — engine code needs no
//    internal locking;
//  * submit() appends to the queue under the state mutex and (re)schedules
//    the drain; a submit that finds the queue full waits for space, and
//    only a closing session turns a batch away (kClosed);
//  * query() copies the current snapshot pointer under a lock that is
//    never held across engine work, so reads do not block ingestion and
//    ingestion does not block reads;
//  * flush() is the read-your-writes barrier: it returns once every batch
//    accepted before the call is covered by a published snapshot;
//  * close() stops admission, lets the queued batches drain, and returns
//    when the session is quiescent — accepted work is never dropped.
//
// Sessions are created and owned by SessionManager (session_manager.hpp);
// this header is separate so the manager stays a thin directory.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "engine/engine.hpp"
#include "serve/types.hpp"

namespace pimtc::serve {

class Session : public std::enable_shared_from_this<Session> {
 public:
  /// Ingest queue capacity in updates (edge insertions plus deletions).
  /// Soft bound: a single batch larger than the capacity is admitted when
  /// the queue is empty, so any batch is eventually servable.
  static constexpr std::uint64_t kQueueCapacityUpdates = 1ull << 16;

  /// Extra recount() attempts after a failed snapshot publish before the
  /// session falls back to its previous snapshot (which stays live and
  /// queryable throughout).
  static constexpr std::uint32_t kRecountRetries = 1;

  /// Cap on retained update->visible latency samples (the serve-bench
  /// percentile source); further samples are dropped.
  static constexpr std::size_t kMaxLatencySamples = 1u << 20;

  /// Constructed by SessionManager::open() with a freshly built engine.
  /// Drain tasks run on `pool`, which must outlive the session's last
  /// drain (close() waits for it).
  Session(std::string name,
          std::unique_ptr<engine::TriangleCountEngine> engine,
          const ServeConfig& config, ThreadPool& pool);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Enqueues one update batch, waiting while the queue is full.  Returns
  /// kClosed only when the session is closing.  An empty batch is an
  /// accepted no-op.
  SubmitResult submit(std::span<const EdgeUpdate> batch)
      PIMTC_EXCLUDES(state_mutex_);

  /// Snapshot-consistent, non-blocking read (see QueryResult).
  [[nodiscard]] QueryResult query() const
      PIMTC_EXCLUDES(state_mutex_, snapshot_mutex_);

  /// Blocks until everything accepted before the call is published.
  void flush() PIMTC_EXCLUDES(state_mutex_);

  /// Stops admission, drains accepted batches, waits for quiescence.
  /// Idempotent; safe to call concurrently with blocked submitters (they
  /// wake and report kClosed).
  void close() PIMTC_EXCLUDES(state_mutex_);

  /// Copy of the recorded update->visible latencies, in seconds (one
  /// sample per published batch, capped at kMaxLatencySamples).
  [[nodiscard]] std::vector<double> latencies() const
      PIMTC_EXCLUDES(state_mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Batch {
    std::uint64_t seq = 0;  ///< 1-based admission order
    std::vector<EdgeUpdate> updates;
  };

  /// Immutable once published; readers copy the shared_ptr and go.
  struct Snapshot {
    std::uint64_t epoch = 0;
    std::uint64_t through_seq = 0;  ///< last batch this recount covers
    engine::CountReport report;
  };

  /// Schedules the drain task if none is pending.
  void schedule_drain_locked() PIMTC_REQUIRES(state_mutex_);

  /// Queue has room for `n` more updates (soft bound: an oversized batch
  /// is admitted alone, so every batch is eventually servable).
  [[nodiscard]] bool has_space(std::uint64_t n) const
      PIMTC_REQUIRES(state_mutex_) {
    return queued_updates_ + n <= kQueueCapacityUpdates ||
           queue_.empty();
  }

  /// The drain loop: applies queued batches to the engine in admission
  /// order, publishing snapshots at the configured cadence and whenever
  /// the queue runs dry, then parks.  At most one instance runs at a time.
  /// EXCLUDES is the single-drainer contract made static: engine work is
  /// never entered holding either mutex.
  void drain() PIMTC_EXCLUDES(state_mutex_, snapshot_mutex_);

  /// recount() + atomic snapshot swap + latency/flush bookkeeping.
  /// Called only from drain().
  void publish_snapshot() PIMTC_EXCLUDES(state_mutex_, snapshot_mutex_);

  const std::string name_;
  const ServeConfig config_;
  ThreadPool& pool_;

  /// Engine access is serialized by the single-drain invariant; the state
  /// mutex is never held during engine calls.
  std::unique_ptr<engine::TriangleCountEngine> engine_;

  mutable Mutex state_mutex_;
  std::condition_variable space_cv_;    ///< blocked submitters
  std::condition_variable applied_cv_;  ///< flush() / close() waiters
  std::deque<Batch> queue_ PIMTC_GUARDED_BY(state_mutex_);
  std::uint64_t queued_updates_ PIMTC_GUARDED_BY(state_mutex_) = 0;
  /// Last admitted batch.
  std::uint64_t accepted_seq_ PIMTC_GUARDED_BY(state_mutex_) = 0;
  /// Last batch applied to the engine.
  std::uint64_t applied_seq_ PIMTC_GUARDED_BY(state_mutex_) = 0;
  /// Last batch covered by a snapshot.
  std::uint64_t published_seq_ PIMTC_GUARDED_BY(state_mutex_) = 0;
  std::uint32_t unpublished_batches_ PIMTC_GUARDED_BY(state_mutex_) = 0;
  bool drain_scheduled_ PIMTC_GUARDED_BY(state_mutex_) = false;
  bool closing_ PIMTC_GUARDED_BY(state_mutex_) = false;
  SessionStats stats_ PIMTC_GUARDED_BY(state_mutex_);
  /// Admission timestamps awaiting visibility, in seq order.
  std::deque<std::pair<std::uint64_t, Clock::time_point>> pending_visibility_
      PIMTC_GUARDED_BY(state_mutex_);
  std::vector<double> latencies_s_ PIMTC_GUARDED_BY(state_mutex_);

  /// Guards only the snapshot pointer swap/copy — held for nanoseconds,
  /// never while the engine runs, so query() effectively never waits.
  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_ PIMTC_GUARDED_BY(snapshot_mutex_);
};

}  // namespace pimtc::serve
