// Tests for the multi-tenant serving layer (src/serve/): concurrent
// submit/query parity against a serial replay oracle, snapshot epoch
// monotonicity under concurrent queriers, the one admission rule (a full
// queue blocks the submitter, close() wakes it with kClosed), the flush()
// read-your-writes barrier, and clean shutdown with in-flight batches.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "serve/session_manager.hpp"

namespace pimtc::serve {
namespace {

engine::EngineConfig small_engine_config(std::uint64_t seed = 42) {
  engine::EngineConfig cfg;
  cfg.num_colors = 4;
  cfg.seed = seed;
  return cfg;
}

/// cpu-incremental with a fixed per-batch apply() delay.  Backpressure
/// tests need the drain to be reliably slower than a tight submit loop —
/// real engines are sometimes fast enough to keep up, making blocking
/// timing-dependent.
class SlowExactEngine final : public engine::TriangleCountEngine {
 public:
  explicit SlowExactEngine(const engine::EngineConfig& cfg)
      : TriangleCountEngine(cfg),
        inner_(engine::make_engine("cpu-incremental", cfg)) {}

  void add_edges(std::span<const Edge> batch) override {
    inner_->add_edges(batch);
  }
  void apply(std::span<const EdgeUpdate> updates) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inner_->apply(updates);
  }
  engine::CountReport recount() override { return inner_->recount(); }
  [[nodiscard]] const char* name() const noexcept override {
    return "slow-exact";
  }
  void reset_timers() override { inner_->reset_timers(); }

 private:
  std::unique_ptr<engine::TriangleCountEngine> inner_;
};


/// One tenant's mixed ± workload: a community graph's edges as inserts,
/// then seeded deletions of a quarter of them.  Deterministic per seed.
std::vector<EdgeUpdate> test_stream(std::uint64_t seed) {
  graph::EdgeList g = graph::gen::community(300, 12, 0.5, 1200, seed);
  graph::preprocess(g, seed + 1);
  std::vector<EdgeUpdate> updates;
  updates.reserve(g.num_edges() + g.num_edges() / 4);
  for (const Edge& e : g.edges()) updates.push_back(insert_of(e));
  Xoshiro256ss rng(derive_seed(seed, 99));
  const std::size_t m = g.num_edges();
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  for (std::size_t i = 0; i < m / 4; ++i) {
    std::swap(order[i], order[i + rng.next_below(m - i)]);
    updates.push_back(delete_of(g[order[i]]));
  }
  return updates;
}

std::vector<std::span<const EdgeUpdate>> batches_of(
    std::span<const EdgeUpdate> updates, std::size_t batch) {
  std::vector<std::span<const EdgeUpdate>> out;
  for (std::size_t off = 0; off < updates.size(); off += batch) {
    out.push_back(updates.subspan(off, std::min(batch, updates.size() - off)));
  }
  return out;
}

/// The ground truth: the same accepted updates, applied serially to a fresh
/// engine under the manager-resolved config, recounted once.
double serial_replay_estimate(const SessionManager& mgr,
                              const std::string& backend,
                              const engine::EngineConfig& cfg,
                              std::span<const EdgeUpdate> updates) {
  auto oracle = engine::make_engine(backend, mgr.resolve_engine_config(cfg));
  oracle->apply(updates);
  return oracle->recount().estimate;
}

// ---- concurrent parity ------------------------------------------------------

TEST(ServeParityTest, ConcurrentSessionsMatchSerialReplay) {
  // N sessions ingest mixed ± streams from their own submitter threads on
  // one manager; after flush every session's served count must be
  // bit-identical to a serial replay of its stream.
  for (const char* backend : {"pim", "cpu-incremental"}) {
    const engine::EngineConfig ecfg = small_engine_config();
    SessionManager mgr;
    constexpr int kSessions = 4;
    std::vector<std::vector<EdgeUpdate>> streams;
    for (int i = 0; i < kSessions; ++i) {
      streams.push_back(test_stream(1000 + i));
      mgr.open("t" + std::to_string(i), backend, ecfg);
    }

    std::vector<std::thread> submitters;
    for (int i = 0; i < kSessions; ++i) {
      submitters.emplace_back([&mgr, &streams, i] {
        for (const auto batch : batches_of(streams[i], 97)) {
          EXPECT_EQ(mgr.submit("t" + std::to_string(i), batch),
                    SubmitResult::kAccepted);
        }
      });
    }
    for (auto& th : submitters) th.join();

    for (int i = 0; i < kSessions; ++i) {
      const std::string name = "t" + std::to_string(i);
      const QueryResult served = mgr.flush(name);
      EXPECT_TRUE(served.exact) << backend;
      EXPECT_GT(served.epoch, 0u);
      EXPECT_EQ(served.estimate,
                serial_replay_estimate(mgr, backend, ecfg, streams[i]))
          << backend << " session " << name;
    }
  }
}

// ---- snapshot semantics -----------------------------------------------------

TEST(ServeSnapshotTest, EpochsNeverRegressUnderConcurrentQueriers) {
  SessionManager mgr;
  mgr.open("t", "cpu-incremental", small_engine_config());
  const std::vector<EdgeUpdate> stream = test_stream(7);

  std::atomic<bool> done{false};
  std::atomic<bool> regressed{false};
  std::vector<std::thread> queriers;
  for (int q = 0; q < 2; ++q) {
    queriers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const QueryResult r = mgr.query("t");
        if (r.epoch < last) regressed.store(true);
        last = r.epoch;
      }
    });
  }
  for (const auto batch : batches_of(stream, 64)) {
    ASSERT_EQ(mgr.submit("t", batch), SubmitResult::kAccepted);
  }
  mgr.flush("t");
  done.store(true);
  for (auto& th : queriers) th.join();
  EXPECT_FALSE(regressed.load());
}

TEST(ServeSnapshotTest, QueryBeforeAnyPublishIsEmptyEpochZero) {
  SessionManager mgr;
  mgr.open("t", "cpu", small_engine_config());
  const QueryResult r = mgr.query("t");
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_EQ(r.estimate, 0.0);
  EXPECT_EQ(r.stats.batches_accepted, 0u);
}

TEST(ServeSnapshotTest, FlushIsReadYourWrites) {
  SessionManager mgr;
  const engine::EngineConfig ecfg = small_engine_config();
  mgr.open("t", "cpu-incremental", ecfg);
  const std::vector<EdgeUpdate> stream = test_stream(21);
  for (const auto batch : batches_of(stream, 128)) {
    ASSERT_EQ(mgr.submit("t", batch), SubmitResult::kAccepted);
  }
  const QueryResult r = mgr.flush("t");
  // Everything accepted before the flush is applied AND visible.
  EXPECT_EQ(r.stats.updates_applied, r.stats.updates_accepted);
  EXPECT_EQ(r.stats.queue_depth_updates, 0u);
  EXPECT_EQ(r.stats.batches_failed, 0u);
  EXPECT_EQ(r.estimate,
            serial_replay_estimate(mgr, "cpu-incremental", ecfg, stream));
}

// ---- admission --------------------------------------------------------------

TEST(ServeAdmissionTest, FullQueueBlocksTheSubmitter) {
  // Every batch is just over half the queue capacity, so two never fit
  // together: each submit after the first must wait until the drain has
  // popped the previous batch.  Equal sizes matter — a smaller last batch
  // could legally sit beside a queued one.
  constexpr std::size_t kBatch = Session::kQueueCapacityUpdates / 2 + 1;
  constexpr std::size_t kBatches = 6;
  std::vector<EdgeUpdate> stream;  // a path graph plus one chord
  for (NodeId v = 0; stream.size() + 1 < kBatch * kBatches; ++v) {
    stream.push_back(insert_of(Edge{v, v + 1}));
  }
  stream.push_back(insert_of(Edge{0, 2}));
  ASSERT_EQ(stream.size(), kBatch * kBatches);

  SessionManager mgr;
  const engine::EngineConfig ecfg = small_engine_config();
  mgr.open("t",
           std::make_unique<SlowExactEngine>(mgr.resolve_engine_config(ecfg)));
  for (const auto batch : batches_of(stream, kBatch)) {
    ASSERT_EQ(mgr.submit("t", batch), SubmitResult::kAccepted);
    EXPECT_LE(mgr.query("t").stats.queue_depth_batches, 1u);
  }
  const QueryResult r = mgr.flush("t");
  EXPECT_EQ(r.stats.batches_accepted, kBatches);
  EXPECT_EQ(r.stats.batches_rejected, 0u);
  EXPECT_EQ(r.stats.updates_applied, stream.size());
  EXPECT_EQ(r.estimate,
            serial_replay_estimate(mgr, "cpu-incremental", ecfg, stream));
}

/// cpu-incremental whose apply() first waits for `gate`, so a test can
/// hold the drain inside the engine for as long as it needs.
class GatedEngine final : public engine::TriangleCountEngine {
 public:
  GatedEngine(const engine::EngineConfig& cfg, std::shared_future<void> gate)
      : TriangleCountEngine(cfg),
        inner_(engine::make_engine("cpu-incremental", cfg)),
        gate_(std::move(gate)) {}

  void add_edges(std::span<const Edge> batch) override {
    inner_->add_edges(batch);
  }
  void apply(std::span<const EdgeUpdate> updates) override {
    gate_.wait();
    inner_->apply(updates);
  }
  engine::CountReport recount() override { return inner_->recount(); }
  [[nodiscard]] const char* name() const noexcept override { return "gated"; }
  void reset_timers() override { inner_->reset_timers(); }

 private:
  std::unique_ptr<engine::TriangleCountEngine> inner_;
  std::shared_future<void> gate_;
};

TEST(ServeAdmissionTest, CloseWakesABlockedSubmitterWithClosed) {
  // Batch 0 is held inside the gated apply(), batch 1 fills the queue, and
  // a third submit blocks.  close() must wake it with kClosed while the
  // two accepted batches still drain once the gate opens.  The session is
  // built directly so the blocked submit cannot race close() removing the
  // name from a manager's directory.
  constexpr std::size_t kBatch = Session::kQueueCapacityUpdates / 2 + 1;
  std::vector<EdgeUpdate> stream;
  for (NodeId v = 0; stream.size() < 3 * kBatch; ++v) {
    stream.push_back(insert_of(Edge{v, v + 1}));
  }
  const auto batches = batches_of(stream, kBatch);
  ASSERT_EQ(batches.size(), 3u);

  std::promise<void> gate;
  const auto session = std::make_shared<Session>(
      "t",
      std::make_unique<GatedEngine>(small_engine_config(),
                                    gate.get_future().share()),
      ServeConfig{}, ThreadPool::global());
  ASSERT_EQ(session->submit(batches[0]), SubmitResult::kAccepted);
  // Batch 1 fits only in an empty queue.  The drain pops batch 0 before
  // the gated apply but signals space only after it, so wait for the pop,
  // or batch 1 would block until the gate opens.
  while (session->query().stats.queue_depth_batches != 0) {
    std::this_thread::yield();
  }
  ASSERT_EQ(session->submit(batches[1]), SubmitResult::kAccepted);

  std::atomic<bool> returned{false};
  SubmitResult third = SubmitResult::kAccepted;
  std::thread submitter([&] {
    third = session->submit(batches[2]);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());  // the full queue holds it

  std::thread closer([&] { session->close(); });
  submitter.join();
  EXPECT_EQ(third, SubmitResult::kClosed);
  gate.set_value();
  closer.join();
  const SessionStats closed = session->query().stats;
  EXPECT_EQ(closed.batches_rejected, 1u);
  EXPECT_EQ(closed.updates_rejected, kBatch);
  EXPECT_EQ(closed.batches_accepted, 2u);
  EXPECT_EQ(closed.batches_applied, 2u);
  EXPECT_EQ(closed.updates_applied, 2 * kBatch);
}

// ---- lifecycle --------------------------------------------------------------

TEST(ServeLifecycleTest, CloseDrainsInFlightBatches) {
  SessionManager mgr;
  mgr.open("t", "cpu-incremental", small_engine_config());
  const std::vector<EdgeUpdate> stream = test_stream(13);
  std::uint64_t submitted = 0;
  for (const auto batch : batches_of(stream, 64)) {
    ASSERT_EQ(mgr.submit("t", batch), SubmitResult::kAccepted);
    submitted += batch.size();
  }
  // close() without an intervening flush: accepted work is never dropped.
  const SessionStats stats = mgr.close("t");
  EXPECT_EQ(stats.updates_applied, submitted);
  EXPECT_EQ(stats.queue_depth_updates, 0u);
  EXPECT_THROW((void)mgr.query("t"), std::invalid_argument);
}

TEST(ServeLifecycleTest, ManagerDestructorDrainsOpenSessions) {
  // Tears down with batches still queued; must neither hang nor crash nor
  // leak the drain task (ASan/TSan would flag a worker touching a dead
  // session).
  SessionManager mgr;
  mgr.open("t", "cpu-incremental", small_engine_config());
  const std::vector<EdgeUpdate> stream = test_stream(17);
  for (const auto batch : batches_of(stream, 32)) {
    ASSERT_EQ(mgr.submit("t", batch), SubmitResult::kAccepted);
  }
}

TEST(ServeLifecycleTest, SubmitAfterCloseIsUnknownSession) {
  // close() removes the session from the directory, so later submits fail
  // by name — kClosed is only seen by submitters racing the close itself.
  SessionManager mgr;
  mgr.open("t", "cpu", small_engine_config());
  mgr.close("t");
  const std::vector<EdgeUpdate> one{insert_of(Edge{1, 2})};
  EXPECT_THROW((void)mgr.submit("t", one), std::invalid_argument);
}

TEST(ServeLifecycleTest, DirectoryErrors) {
  SessionManager mgr;
  mgr.open("t", "cpu", small_engine_config());
  EXPECT_THROW(mgr.open("t", "cpu", small_engine_config()),
               std::invalid_argument);                       // duplicate
  EXPECT_THROW(mgr.open("", "cpu", small_engine_config()),
               std::invalid_argument);                       // empty name
  EXPECT_THROW(mgr.open("u", "no-such-backend", small_engine_config()),
               std::invalid_argument);                       // bad backend
  EXPECT_THROW((void)mgr.query("ghost"), std::invalid_argument);
  EXPECT_THROW((void)mgr.close("ghost"), std::invalid_argument);
}

TEST(ServeLifecycleTest, SessionHostThreadsDefaultIsResolvedToOne) {
  // The serving layer's oversubscription guard: engines opened with
  // host_threads == 0 run single-threaded, parallelism comes from sessions.
  SessionManager mgr;
  engine::EngineConfig cfg = small_engine_config();
  cfg.host_threads = 0;
  EXPECT_EQ(mgr.resolve_engine_config(cfg).host_threads, 1u);
  cfg.host_threads = 3;
  EXPECT_EQ(mgr.resolve_engine_config(cfg).host_threads, 3u);

  ServeConfig passthrough;
  passthrough.session_host_threads = 0;
  SessionManager mgr2(passthrough);
  cfg.host_threads = 0;
  EXPECT_EQ(mgr2.resolve_engine_config(cfg).host_threads, 0u);
}

// ---- fault containment ------------------------------------------------------

/// cpu-incremental whose apply()/recount() throw on command — including a
/// non-std object, which engines are not obliged to avoid.  The session
/// owns the engine, so the arming knobs are static; each test arms them
/// before submitting and the single-drain invariant keeps the order
/// deterministic.
class ThrowingEngine final : public engine::TriangleCountEngine {
 public:
  inline static std::atomic<int> apply_raw_throws{0};   ///< `throw 42`
  inline static std::atomic<int> apply_std_throws{0};   ///< runtime_error
  inline static std::atomic<int> recount_throws{0};

  explicit ThrowingEngine(const engine::EngineConfig& cfg)
      : TriangleCountEngine(cfg),
        inner_(engine::make_engine("cpu-incremental", cfg)) {}

  void add_edges(std::span<const Edge> batch) override {
    inner_->add_edges(batch);
  }
  void apply(std::span<const EdgeUpdate> updates) override {
    if (apply_raw_throws.load() > 0) {
      apply_raw_throws.fetch_sub(1);
      throw 42;  // deliberately not a std::exception
    }
    if (apply_std_throws.load() > 0) {
      apply_std_throws.fetch_sub(1);
      throw std::runtime_error("apply boom");
    }
    inner_->apply(updates);
  }
  engine::CountReport recount() override {
    if (recount_throws.load() > 0) {
      recount_throws.fetch_sub(1);
      throw std::runtime_error("recount boom");
    }
    return inner_->recount();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "throwing";
  }
  void reset_timers() override { inner_->reset_timers(); }

 private:
  std::unique_ptr<engine::TriangleCountEngine> inner_;
};

/// A disarmed ThrowingEngine under the manager-resolved config.
std::unique_ptr<ThrowingEngine> throwing_engine(
    const SessionManager& mgr, const engine::EngineConfig& cfg) {
  ThrowingEngine::apply_raw_throws = 0;
  ThrowingEngine::apply_std_throws = 0;
  ThrowingEngine::recount_throws = 0;
  return std::make_unique<ThrowingEngine>(mgr.resolve_engine_config(cfg));
}

TEST(ServeFaultTest, ThrowingApplyDoesNotKillWorkerOrWedgeSession) {
  // The first batch throws a raw int, the second a std::exception; both
  // must be contained in the drain — counted as failed, batch dropped —
  // with every later batch applied and the session still serving.
  const engine::EngineConfig ecfg = small_engine_config();
  SessionManager mgr;
  mgr.open("t", throwing_engine(mgr, ecfg));
  ThrowingEngine::apply_raw_throws = 1;
  ThrowingEngine::apply_std_throws = 1;

  const std::vector<EdgeUpdate> stream = test_stream(101);
  const auto batches = batches_of(stream, 200);
  ASSERT_GE(batches.size(), 4u);
  for (const auto batch : batches) {
    ASSERT_EQ(mgr.submit("t", batch), SubmitResult::kAccepted);
  }
  const QueryResult r = mgr.flush("t");
  EXPECT_EQ(r.stats.batches_failed, 2u);
  EXPECT_EQ(r.stats.batches_applied, batches.size() - 2);
  EXPECT_EQ(r.stats.queue_depth_updates, 0u);
  EXPECT_EQ(r.stats.last_error, "apply boom");  // the raw throw came first

  // The served state is exactly the surviving batches, in order.
  std::vector<EdgeUpdate> survivors;
  for (std::size_t i = 2; i < batches.size(); ++i) {
    survivors.insert(survivors.end(), batches[i].begin(), batches[i].end());
  }
  EXPECT_EQ(r.estimate, serial_replay_estimate(mgr, "cpu-incremental", ecfg,
                                               survivors));

  // Still alive: more work is accepted, applied, and visible.
  const std::vector<EdgeUpdate> more{insert_of(Edge{2, 3}),
                                     insert_of(Edge{7, 9})};
  ASSERT_EQ(mgr.submit("t", more), SubmitResult::kAccepted);
  const QueryResult after = mgr.flush("t");
  EXPECT_EQ(after.stats.batches_failed, 2u);
  EXPECT_GT(after.epoch, r.epoch);
  const SessionStats closed = mgr.close("t");
  EXPECT_EQ(closed.queue_depth_updates, 0u);
}

TEST(ServeFaultTest, FaultedRecountKeepsPriorSnapshotLive) {
  // Publish epoch 1 cleanly, then arm recount to fail through the retry
  // budget: the session must keep serving epoch 1's estimate, count the
  // retry and the failure, and recover on the next publish.
  SessionManager mgr;
  const engine::EngineConfig ecfg = small_engine_config();
  mgr.open("t", throwing_engine(mgr, ecfg));

  const std::vector<EdgeUpdate> first{insert_of(Edge{0, 1}),
                                      insert_of(Edge{1, 2}),
                                      insert_of(Edge{0, 2})};
  ASSERT_EQ(mgr.submit("t", first), SubmitResult::kAccepted);
  const QueryResult live = mgr.flush("t");
  ASSERT_EQ(live.epoch, 1u);
  ASSERT_EQ(live.estimate, 1.0);

  ThrowingEngine::recount_throws = 2;  // first attempt + its retry
  const std::vector<EdgeUpdate> second{insert_of(Edge{2, 3}),
                                       insert_of(Edge{3, 0})};
  ASSERT_EQ(mgr.submit("t", second), SubmitResult::kAccepted);
  const QueryResult stale = mgr.flush("t");  // flush still terminates
  EXPECT_EQ(stale.epoch, 1u);                // prior snapshot stayed live
  EXPECT_EQ(stale.estimate, 1.0);
  EXPECT_EQ(stale.stats.recounts_retried, 1u);
  EXPECT_EQ(stale.stats.recounts_failed, 1u);
  EXPECT_EQ(stale.stats.last_error, "recount boom");
  EXPECT_EQ(stale.stats.updates_applied, first.size() + second.size());

  // Unarmed again: the next publish catches the session back up.
  const std::vector<EdgeUpdate> third{insert_of(Edge{1, 3})};
  ASSERT_EQ(mgr.submit("t", third), SubmitResult::kAccepted);
  const QueryResult fresh = mgr.flush("t");
  EXPECT_GT(fresh.epoch, 1u);
  std::vector<EdgeUpdate> all(first);
  all.insert(all.end(), second.begin(), second.end());
  all.insert(all.end(), third.begin(), third.end());
  EXPECT_EQ(fresh.estimate,
            serial_replay_estimate(mgr, "cpu-incremental", ecfg, all));
}

TEST(ServeFaultTest, RecountRetrySalvagesTransientFailure) {
  SessionManager mgr;
  mgr.open("t", throwing_engine(mgr, small_engine_config()));
  ThrowingEngine::recount_throws = 1;  // fails once, the retry succeeds
  const std::vector<EdgeUpdate> tri{insert_of(Edge{0, 1}),
                                    insert_of(Edge{1, 2}),
                                    insert_of(Edge{0, 2})};
  ASSERT_EQ(mgr.submit("t", tri), SubmitResult::kAccepted);
  const QueryResult r = mgr.flush("t");
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.estimate, 1.0);
  EXPECT_EQ(r.stats.recounts_retried, 1u);
  EXPECT_EQ(r.stats.recounts_failed, 0u);
  EXPECT_TRUE(r.stats.healthy());
}

TEST(ServeFaultTest, SessionHealthSurfacesDegradedEngineState) {
  // A pim session under unrecoverable injected faults reports degraded
  // health and partial coverage through SessionStats; a clean session
  // reports healthy defaults.
  engine::EngineConfig ecfg = small_engine_config();
  ecfg.fault_spec = "seed=5,launch-permanent=0.2,recovery=degrade";
  SessionManager mgr;
  mgr.open("t", "pim", ecfg);
  const std::vector<EdgeUpdate> stream = test_stream(47);
  for (const auto batch : batches_of(stream, 256)) {
    ASSERT_EQ(mgr.submit("t", batch), SubmitResult::kAccepted);
  }
  const QueryResult r = mgr.flush("t");
  EXPECT_TRUE(r.stats.degraded);
  EXPECT_FALSE(r.stats.healthy());
  EXPECT_LT(r.stats.coverage, 1.0);
  EXPECT_GT(r.stats.dropped_triplets, 0u);
  EXPECT_FALSE(r.report.exact);

  SessionManager clean;
  clean.open("c", "pim", small_engine_config());
  ASSERT_EQ(clean.submit("c", stream), SubmitResult::kAccepted);
  const QueryResult cr = clean.flush("c");
  EXPECT_TRUE(cr.stats.healthy());
  EXPECT_EQ(cr.stats.coverage, 1.0);
}

TEST(ServeLifecycleTest, LatenciesAreRecordedPerPublishedBatch) {
  SessionManager mgr;
  mgr.open("t", "cpu-incremental", small_engine_config());
  const std::vector<EdgeUpdate> stream = test_stream(29);
  const auto batches = batches_of(stream, 100);
  for (const auto batch : batches) {
    ASSERT_EQ(mgr.submit("t", batch), SubmitResult::kAccepted);
  }
  mgr.flush("t");
  const std::vector<double> lat = mgr.latencies("t");
  EXPECT_EQ(lat.size(), batches.size());
  for (const double s : lat) EXPECT_GE(s, 0.0);
}

}  // namespace
}  // namespace pimtc::serve
