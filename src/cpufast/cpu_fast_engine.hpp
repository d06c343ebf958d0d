// "cpu-fast" — the fast exact CPU backend: parallel DODG build + SIMD
// bitmap counting (count.hpp).  The contract is exactness, not
// incrementality: updates mark the session dirty and recount() rebuilds the
// DODG from the live edge set, bit-identical to "cpu" on any insert stream
// and to "cpu-incremental" on any ± stream.
//
// Two storage regimes keep the common case cheap:
//
//  * insert-only (the parity-oracle case): batches append raw to an
//    accumulated COO — zero per-edge hashing, duplicates and loops are
//    dropped during the DODG build, the same contract as "cpu";
//  * first deletion: the COO is folded once into a canonical-key hash set,
//    maintained incrementally from then on (duplicate insert = no-op,
//    deletion of an absent edge = counted no-op, the cpu-incremental
//    semantics).
//
// recount() is memoized: with no update since the last recount the cached
// report is returned untouched (the serve layer republishes on queue-dry).
#pragma once

#include <memory>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "engine/engine.hpp"
#include "graph/coo.hpp"

namespace pimtc::cpufast {

class CpuFastEngine final : public engine::TriangleCountEngine {
 public:
  explicit CpuFastEngine(const engine::EngineConfig& config);

  void add_edges(std::span<const Edge> batch) override;
  void apply(std::span<const EdgeUpdate> updates) override;
  engine::CountReport recount() override;
  [[nodiscard]] const char* name() const noexcept override {
    return "cpu-fast";
  }
  void reset_timers() override;

 private:
  [[nodiscard]] ThreadPool& pool() noexcept {
    return pool_ ? *pool_ : ThreadPool::global();
  }
  /// Folds the accumulated COO into the canonical-key set (first deletion).
  void materialize_edge_set();

  /// Dedicated pool only when host_threads is pinned; otherwise shares the
  /// process-global pool (same policy as CpuEngine).
  std::unique_ptr<ThreadPool> pool_;
  graph::EdgeList accumulated_;  ///< raw stream; authoritative until tracking_
  std::unordered_set<std::uint64_t> live_;  ///< canonical keys once tracking_
  bool tracking_ = false;  ///< a deletion arrived; live_ is authoritative
  bool dirty_ = true;      ///< an update arrived since the cached report
  bool has_report_ = false;
  engine::CountReport cached_;
  std::uint64_t edges_streamed_ = 0;
  std::uint64_t edges_deleted_ = 0;
  std::uint64_t delete_misses_ = 0;
  PhaseTimes times_;
};

}  // namespace pimtc::cpufast
