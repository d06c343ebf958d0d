// SessionManager — the concurrent multi-tenant serving layer.
//
// One manager hosts N independent TriangleCountEngine sessions (one tenant
// graph each) behind a thread-safe API:
//
//   serve::SessionManager mgr(serve_cfg);
//   mgr.open("tenant-a", "pim", engine_cfg);            // any registry backend
//   mgr.submit("tenant-a", updates);                    // blocks while full
//   serve::QueryResult r = mgr.query("tenant-a");       // snapshot-consistent
//   mgr.flush("tenant-a");                              // read-your-writes
//   mgr.close("tenant-a");                              // drains, then removes
//
// Ingestion is asynchronous: submit() stages the batch on the session's
// bounded queue and a shared worker pool (ThreadPool::submit) drains it,
// applying batches in admission order and publishing a fresh recount
// snapshot every `recount_every_batches` (and whenever a queue runs dry).
// query() serves the last published epoch without ever waiting on engine
// work.  Admission is one rule: a submit that finds its session's queue
// full waits for space, and only a closing session turns a batch away.
// Batches reach the engine unfiltered, so a session's inserts must be
// deduplicated across its whole stream (the add_edges contract).  Loading
// a graph file is not a serving operation: engine::ingest_file streams one
// into a single engine through the loop-and-duplicate filter.
//
// Threading: every public method is safe to call from any thread, except
// that blocking calls (flush, close, submit) must not be made from the
// manager's own drain workers.  See DESIGN.md "Serving layer".
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "engine/registry.hpp"
#include "serve/session.hpp"
#include "serve/types.hpp"

namespace pimtc::serve {

class SessionManager {
 public:
  explicit SessionManager(ServeConfig config = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Closes every session (draining accepted work) before tearing down.
  ~SessionManager();

  /// Opens a session named `name` on registry backend `backend`.  The
  /// engine config is resolved first (see resolve_engine_config) and
  /// validated by the registry.  Throws std::invalid_argument on a
  /// duplicate name, unknown backend or invalid config.
  void open(std::string name, std::string_view backend,
            engine::EngineConfig engine_config = {});

  /// Opens a session named `name` on an engine the caller built (the
  /// backend overload builds it with make_engine).  Throws
  /// std::invalid_argument on an empty or duplicate name.
  void open(std::string name,
            std::unique_ptr<engine::TriangleCountEngine> engine);

  /// Stages one update batch on `session`'s queue, waiting while it is
  /// full (see SubmitResult).  Throws std::invalid_argument for an unknown
  /// session.
  SubmitResult submit(std::string_view session,
                      std::span<const EdgeUpdate> batch);

  /// Snapshot-consistent, non-blocking read of `session` (last published
  /// recount epoch + stats).  Never waits on ingestion.
  [[nodiscard]] QueryResult query(std::string_view session) const;

  /// Read-your-writes barrier: returns a query taken after every batch
  /// accepted before this call has been published.
  QueryResult flush(std::string_view session);

  /// Stops admission, drains the session's accepted batches, removes it
  /// and returns its final stats.  Blocked submitters wake with kClosed.
  SessionStats close(std::string_view session);

  /// close() for every open session, in name order.
  void close_all();

  /// Update->visible latency samples of one session, in seconds.
  [[nodiscard]] std::vector<double> latencies(std::string_view session) const;

  /// The engine config a session opened with `cfg` actually runs:
  /// host_threads == 0 is replaced by ServeConfig::session_host_threads
  /// (unless that is itself 0).  Exposed so drivers can replay a session
  /// serially under the byte-identical configuration (the parity oracle).
  [[nodiscard]] engine::EngineConfig resolve_engine_config(
      engine::EngineConfig cfg) const noexcept;

 private:
  /// The drain pool: dedicated when config.workers is pinned, the shared
  /// process-global pool otherwise.
  [[nodiscard]] ThreadPool& pool() noexcept {
    return own_pool_ ? *own_pool_ : ThreadPool::global();
  }

  /// Looks up a session or throws std::invalid_argument naming it.
  [[nodiscard]] std::shared_ptr<Session> find(std::string_view session) const
      PIMTC_EXCLUDES(sessions_mutex_);

  const ServeConfig config_;
  std::unique_ptr<ThreadPool> own_pool_;

  mutable Mutex sessions_mutex_;
  std::map<std::string, std::shared_ptr<Session>, std::less<>> sessions_
      PIMTC_GUARDED_BY(sessions_mutex_);
};

}  // namespace pimtc::serve
