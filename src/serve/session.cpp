#include "serve/session.hpp"

#include <exception>
#include <utility>

namespace pimtc::serve {

Session::Session(std::string name,
                 std::unique_ptr<engine::TriangleCountEngine> engine,
                 const ServeConfig& config, ThreadPool& pool)
    : name_(std::move(name)),
      config_(config),
      pool_(pool),
      engine_(std::move(engine)) {}

SubmitResult Session::submit(std::span<const EdgeUpdate> batch) {
  const std::uint64_t n = batch.size();
  if (n == 0) return SubmitResult::kAccepted;

  MutexLock lock(state_mutex_);
  while (!closing_ && !has_space(n)) lock.wait(space_cv_);
  if (closing_) {
    ++stats_.batches_rejected;
    stats_.updates_rejected += n;
    return SubmitResult::kClosed;
  }

  const std::uint64_t seq = ++accepted_seq_;
  queue_.push_back(Batch{seq, {batch.begin(), batch.end()}});
  queued_updates_ += n;
  ++stats_.batches_accepted;
  stats_.updates_accepted += n;
  pending_visibility_.emplace_back(seq, Clock::now());
  schedule_drain_locked();
  return SubmitResult::kAccepted;
}

void Session::schedule_drain_locked() {
  if (drain_scheduled_) return;
  drain_scheduled_ = true;
  // The task pins the session: a close() that races ahead removes it from
  // the manager's directory, but the drain keeps running to completion.
  auto self = shared_from_this();
  pool_.submit([self] { self->drain(); });
}

void Session::drain() {
  for (;;) {
    Batch batch;
    {
      MutexLock lock(state_mutex_);
      if (queue_.empty()) {
        if (applied_seq_ > published_seq_) {
          // Publish the applied-but-invisible tail before going idle so
          // flush() terminates and a quiescent session is fully readable.
          lock.unlock();
          publish_snapshot();
          lock.lock();
          if (!queue_.empty()) continue;  // a submit raced the publish
        }
        drain_scheduled_ = false;
        applied_cv_.notify_all();
        return;
      }
      batch = std::move(queue_.front());
      queue_.pop_front();
    }

    // Engine work happens outside every lock: only this drain touches the
    // engine (single-drain invariant), and queries must not wait on it.
    const std::uint64_t n = batch.updates.size();
    std::exception_ptr failure;
    try {
      engine_->apply(batch.updates);
    } catch (...) {
      failure = std::current_exception();
    }

    bool publish;
    {
      MutexLock lock(state_mutex_);
      applied_seq_ = batch.seq;
      queued_updates_ -= n;
      if (failure) {
        ++stats_.batches_failed;
        try {
          std::rethrow_exception(failure);
        } catch (const std::exception& e) {
          stats_.last_error = e.what();
        } catch (...) {
          stats_.last_error = "unknown engine failure";
        }
      } else {
        ++stats_.batches_applied;
        stats_.updates_applied += n;
      }
      publish = ++unpublished_batches_ >= config_.recount_every_batches;
      space_cv_.notify_all();
    }
    if (publish) publish_snapshot();
  }
}

void Session::publish_snapshot() {
  std::uint64_t through;
  std::uint64_t epoch;
  {
    MutexLock lock(state_mutex_);
    through = applied_seq_;
    epoch = stats_.epoch + 1;
    unpublished_batches_ = 0;
  }

  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch;
  snap->through_seq = through;
  // A faulted recount does not take the session down: the previous snapshot
  // stays live and queryable while the recount is retried per policy.
  bool counted = false;
  std::string error;
  for (std::uint32_t attempt = 0;
       attempt <= kRecountRetries && !counted; ++attempt) {
    try {
      snap->report = engine_->recount();
      counted = true;
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      // Engines are not obliged to throw std::exception; contain anything.
      error = "unknown engine failure";
    }
    if (!counted && attempt < kRecountRetries) {
      MutexLock lock(state_mutex_);
      ++stats_.recounts_retried;
    }
  }
  if (!counted) {
    // Out of retries.  Flush waiters are released (the batches *were*
    // applied) and the failure is surfaced in the stats.
    MutexLock lock(state_mutex_);
    ++stats_.recounts_failed;
    stats_.last_error = error;
    published_seq_ = through;
    while (!pending_visibility_.empty() &&
           pending_visibility_.front().first <= through) {
      pending_visibility_.pop_front();
    }
    applied_cv_.notify_all();
    return;
  }

  const engine::CountReport::FaultStats faults = snap->report.faults;
  {
    MutexLock lock(snapshot_mutex_);
    snapshot_ = std::move(snap);
  }
  const Clock::time_point now = Clock::now();
  {
    MutexLock lock(state_mutex_);
    stats_.epoch = epoch;
    stats_.degraded = faults.degraded;
    stats_.coverage = faults.coverage;
    stats_.dropped_triplets = faults.dropped_triplets;
    stats_.rematerializations = faults.rematerializations;
    stats_.sample_restores = faults.sample_restores;
    published_seq_ = through;
    while (!pending_visibility_.empty() &&
           pending_visibility_.front().first <= through) {
      if (latencies_s_.size() < kMaxLatencySamples) {
        latencies_s_.push_back(
            std::chrono::duration<double>(
                now - pending_visibility_.front().second)
                .count());
      }
      pending_visibility_.pop_front();
    }
    applied_cv_.notify_all();
  }
}

QueryResult Session::query() const {
  std::shared_ptr<const Snapshot> snap;
  {
    MutexLock lock(snapshot_mutex_);
    snap = snapshot_;
  }
  QueryResult result;
  if (snap) {
    result.epoch = snap->epoch;
    result.report = snap->report;
    result.estimate = snap->report.estimate;
    result.exact = snap->report.exact;
  }
  {
    MutexLock lock(state_mutex_);
    result.stats = stats_;
    result.stats.queue_depth_updates = queued_updates_;
    result.stats.queue_depth_batches = queue_.size();
  }
  return result;
}

void Session::flush() {
  MutexLock lock(state_mutex_);
  const std::uint64_t target = accepted_seq_;
  while (published_seq_ < target) lock.wait(applied_cv_);
}

void Session::close() {
  MutexLock lock(state_mutex_);
  closing_ = true;
  space_cv_.notify_all();  // blocked submitters wake and observe kClosed
  while (!(queue_.empty() && !drain_scheduled_ &&
           published_seq_ >= applied_seq_)) {
    lock.wait(applied_cv_);
  }
}

std::vector<double> Session::latencies() const {
  MutexLock lock(state_mutex_);
  return latencies_s_;
}

}  // namespace pimtc::serve
