#include "serve/session_manager.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace pimtc::serve {

SessionManager::SessionManager(ServeConfig config) : config_(config) {
  config_.validate();
  if (config_.workers != 0) {
    own_pool_ = std::make_unique<ThreadPool>(config_.workers);
  }
}

SessionManager::~SessionManager() { close_all(); }

engine::EngineConfig SessionManager::resolve_engine_config(
    engine::EngineConfig cfg) const noexcept {
  if (cfg.host_threads == 0 && config_.session_host_threads != 0) {
    cfg.host_threads = config_.session_host_threads;
  }
  return cfg;
}

void SessionManager::open(std::string name, std::string_view backend,
                          engine::EngineConfig engine_config) {
  // Build the engine outside the directory lock (validation + construction
  // can be slow); insertion re-checks for a duplicate racer.
  open(std::move(name),
       engine::make_engine(backend, resolve_engine_config(engine_config)));
}

void SessionManager::open(std::string name,
                          std::unique_ptr<engine::TriangleCountEngine> engine) {
  if (name.empty()) {
    throw std::invalid_argument("SessionManager: session name must not be "
                                "empty");
  }
  auto session =
      std::make_shared<Session>(name, std::move(engine), config_, pool());
  MutexLock lock(sessions_mutex_);
  if (sessions_.contains(name)) {
    throw std::invalid_argument("SessionManager: session '" + name +
                                "' already open");
  }
  sessions_.emplace(std::move(name), std::move(session));
}

std::shared_ptr<Session> SessionManager::find(std::string_view session) const {
  MutexLock lock(sessions_mutex_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw std::invalid_argument("SessionManager: unknown session '" +
                                std::string(session) + "'");
  }
  return it->second;
}

SubmitResult SessionManager::submit(std::string_view session,
                                    std::span<const EdgeUpdate> batch) {
  return find(session)->submit(batch);
}

QueryResult SessionManager::query(std::string_view session) const {
  return find(session)->query();
}

QueryResult SessionManager::flush(std::string_view session) {
  const std::shared_ptr<Session> s = find(session);
  s->flush();
  return s->query();
}

SessionStats SessionManager::close(std::string_view session) {
  std::shared_ptr<Session> s;
  {
    // Remove from the directory first so new submits/queries see "unknown
    // session"; the shared_ptr keeps the drain alive until quiescence.
    MutexLock lock(sessions_mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      throw std::invalid_argument("SessionManager: unknown session '" +
                                  std::string(session) + "'");
    }
    s = std::move(it->second);
    sessions_.erase(it);
  }
  s->close();
  return s->query().stats;
}

void SessionManager::close_all() {
  for (;;) {
    std::shared_ptr<Session> s;
    {
      MutexLock lock(sessions_mutex_);
      if (sessions_.empty()) return;
      auto it = sessions_.begin();
      s = std::move(it->second);
      sessions_.erase(it);
    }
    s->close();
  }
}

std::vector<double> SessionManager::latencies(std::string_view session) const {
  return find(session)->latencies();
}

}  // namespace pimtc::serve
