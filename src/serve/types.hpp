// Value types of the multi-tenant serving layer (src/serve/).
//
// The serving layer hosts N independent TriangleCountEngine sessions behind
// one thread-safe SessionManager.  These are the knobs and the observable
// state: the manager-wide ServeConfig (drain workers, snapshot cadence,
// per-session engine threads), the outcome of one submit, the per-session
// counters the report path surfaces, and the snapshot-consistent
// QueryResult.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "engine/report.hpp"

namespace pimtc::serve {

/// Outcome of one submit() call.  A submit that finds its session's queue
/// full waits for space, so the only refusal is a closing session; it
/// leaves the session unchanged and is counted in SessionStats.
enum class SubmitResult {
  kAccepted,
  kClosed,  ///< session is closing / closed
};

/// Manager-wide configuration.  One ServeConfig governs every session the
/// manager opens; per-session engine shape comes from the EngineConfig
/// passed to open().
struct ServeConfig {
  /// Drain workers shared by every session.  0 = schedule drain tasks on
  /// the process-global ThreadPool (work-conserving: with engines left at
  /// host_threads == 0 the whole stack then shares one hardware-sized
  /// pool, and nested engine parallel_for calls run caller-inline).
  std::size_t workers = 0;

  /// Snapshot cadence: publish a new recount epoch every this many applied
  /// batches.  The drain additionally publishes whenever its queue runs
  /// dry, so a quiescent session is always fully visible.  Must be >= 1.
  std::uint32_t recount_every_batches = 1;

  /// Default EngineConfig::host_threads for sessions opened with the field
  /// at 0 (= hardware concurrency).  N concurrent sessions each sized to
  /// the whole machine would oversubscribe it N-fold, so the serving layer
  /// defaults every engine to 1 host thread and takes its parallelism
  /// across sessions.  Set to 0 to keep the engines' own default.
  std::uint32_t session_host_threads = 1;

  /// Throws std::invalid_argument on the first violated invariant.
  void validate() const {
    if (recount_every_batches == 0) {
      throw std::invalid_argument(
          "ServeConfig: recount_every_batches must be >= 1");
    }
  }
};

/// Per-session counters, sampled atomically at query time.
struct SessionStats {
  std::uint64_t batches_accepted = 0;
  std::uint64_t batches_rejected = 0;  ///< refused by a closing session
  std::uint64_t batches_applied = 0;   ///< applied to the engine
  std::uint64_t batches_failed = 0;    ///< engine->apply() threw; batch dropped
  std::uint64_t updates_accepted = 0;
  std::uint64_t updates_rejected = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t recounts_failed = 0;   ///< engine->recount() threw
  std::uint64_t recounts_retried = 0;  ///< recount attempts repeated after a
                                       ///< throw (Session::kRecountRetries)
  std::uint64_t epoch = 0;             ///< published snapshot epochs
  std::uint64_t queue_depth_updates = 0;  ///< staged, not yet applied
  std::uint64_t queue_depth_batches = 0;
  std::string last_error;  ///< most recent engine failure message, if any

  // ---- session health (latest published snapshot's fault ledger) ----------
  bool degraded = false;   ///< estimate extrapolated from partial coverage
  double coverage = 1.0;   ///< surviving fraction of the observed stream
  std::uint64_t dropped_triplets = 0;    ///< triplets lost to faults
  std::uint64_t rematerializations = 0;  ///< dead banks restored from mirror
  std::uint64_t sample_restores = 0;     ///< bit-rotted samples scrubbed back

  /// True while the session serves estimates and no published snapshot is
  /// degraded; recount failures alone do not flip it (the previous snapshot
  /// stays live).
  [[nodiscard]] bool healthy() const noexcept { return !degraded; }
};

/// Snapshot-consistent read of one session.  `report` (and the `estimate` /
/// `exact` convenience fields mirrored out of it) all come from the same
/// published epoch: a query concurrent with ingestion sees the complete
/// last recount, never a half-applied batch.  epoch == 0 means nothing has
/// been published yet (report is default-constructed).
struct QueryResult {
  std::uint64_t epoch = 0;
  double estimate = 0.0;
  bool exact = false;
  engine::CountReport report;
  SessionStats stats;  ///< sampled at query time (not part of the snapshot)
};

}  // namespace pimtc::serve
