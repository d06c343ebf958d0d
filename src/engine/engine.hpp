// TriangleCountEngine: the backend-polymorphic public API of the library.
//
// Every backend (simulated-PIM pipeline, CPU baseline, incremental CPU) is
// one implementation of this interface, constructed through the registry
// (registry.hpp).  Drivers — the CLI, the examples, the comparison benches —
// program against this interface only, which is what makes a new backend a
// drop-in registration instead of another bespoke driver.
//
// Two usage shapes:
//
//   * one-shot static counting:
//       auto eng = engine::make_engine("pim", cfg);
//       engine::CountReport r = eng->count(graph);
//
//   * streaming session (the dynamic-graph use case, Figure 7):
//       auto eng = engine::make_engine("pim", cfg);
//       for (auto batch : updates) {
//         eng->add_edges(batch);
//         engine::CountReport r = eng->recount();
//       }
//
//   * fully-dynamic session (± update streams):
//       auto eng = engine::make_engine("pim", cfg);
//       eng->apply(updates);  // span<const EdgeUpdate>, inserts + deletes
//       engine::CountReport r = eng->recount();
//
// An engine is a stateful session: edges accumulate across add_edges()
// calls (count() is add_edges + recount in one step) and recount() is
// idempotent — recounting without new edges returns the same estimate.
// apply() generalizes add_edges to signed updates; a backend that cannot
// delete under its config accepts all-insert batches and rejects mixed ones.
#pragma once

#include <span>

#include "engine/config.hpp"
#include "engine/report.hpp"
#include "graph/coo.hpp"

namespace pimtc::engine {

class TriangleCountEngine {
 public:
  virtual ~TriangleCountEngine() = default;

  TriangleCountEngine(const TriangleCountEngine&) = delete;
  TriangleCountEngine& operator=(const TriangleCountEngine&) = delete;

  /// One-shot static counting: stream the whole graph into the session,
  /// then count.  Equivalent to add_edges(graph.edges()) + recount().
  CountReport count(const graph::EdgeList& graph);

  /// Streams one batch of edges into the session (dynamic updates).  Self
  /// loops are dropped; edges are expected deduplicated across the whole
  /// stream (see graph::preprocess) unless the backend states otherwise.
  virtual void add_edges(std::span<const Edge> batch) = 0;

  /// Streams one batch of a fully-dynamic (±) update stream.  The base
  /// implementation forwards all-insert batches to add_edges() — so every
  /// backend replays insert-only streams through its legacy path,
  /// bit-identically — and throws std::invalid_argument on deletions.
  /// pim, cpu-fast and cpu-incremental override it to delete (pim throws
  /// too when uniform_p < 1).  A deletion must target a previously inserted
  /// edge (either orientation); deleting an edge that was never inserted is
  /// a no-op only where the backend can detect it exactly (cpu-incremental).
  virtual void apply(std::span<const EdgeUpdate> updates);

  /// Convenience: apply() with every update a deletion.
  void remove_edges(std::span<const Edge> batch);

  /// Counts over everything streamed so far and returns the corrected
  /// estimate.  Idempotent: recounting without new edges returns the same
  /// result.
  virtual CountReport recount() = 0;

  /// Registry name this engine was constructed under ("pim", "cpu", ...).
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Zeroes the accumulated phase times (per-update deltas in the dynamic
  /// benches).  Does not touch the streamed edges or counting state.
  virtual void reset_timers() = 0;

 protected:
  /// Runs EngineConfig::validate() (throws std::invalid_argument) before any
  /// backend member is built, so every backend rejects a bad config exactly
  /// once, whether built directly or through make_engine().
  explicit TriangleCountEngine(const EngineConfig& config) : config_(config) {
    config_.validate();
  }

  EngineConfig config_;
};

}  // namespace pimtc::engine
