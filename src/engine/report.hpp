// Unified result of one triangle-counting run, shared by every backend.
//
// CountReport is what every engine's recount() returns, the PIM counter
// included: a statistical estimate with exactness flag, a phase-time
// breakdown, a platform-independent work profile, and the load-balance /
// sampling diagnostics that the benches and the CLI print.
// Fields a backend cannot populate stay at their zero defaults; the
// comment on each group names the backends that fill it.  See DESIGN.md
// "Engine architecture".
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/phase_times.hpp"
#include "common/types.hpp"
#include "common/work_profile.hpp"
#include "pim/fault.hpp"
#include "pim/transfer_stats.hpp"

namespace pimtc::engine {

/// Platform-independent operation counts of one run (common/work_profile.hpp);
/// feeds the analytic platform models for cross-hardware projection.
using WorkProfile = pimtc::WorkProfile;

/// One entry of the Misra-Gries high-degree summary (paper Section 3.5).
struct HeavyHitter {
  NodeId node = kInvalidNode;
  std::uint64_t estimated_degree = 0;
};

/// Host<->device transfer diagnostics of the rank-aware PIM runtime:
/// bulk push/pull counts, payload vs padded wire bytes, pipeline overlap.
/// Zero for backends without a transfer model.
using TransferBreakdown = pim::TransferStats;

/// Counting-kernel diagnostics, summed over cores for the last recount (PIM
/// and cpu-fast backends; zeros elsewhere).  The PIM kernels' merge/gallop
/// split says how the per-intersection strategy choice resolved; cpu-fast
/// resolves every intersection with its bitmap.  `instructions` is the
/// kernel-instruction total BENCH_kernel.json tracks.
struct KernelStats {
  std::string intersect;             ///< policy name ("auto"|"merge"|"gallop")
  std::uint64_t merge_isects = 0;    ///< intersections resolved by merge
  std::uint64_t gallop_isects = 0;   ///< intersections resolved by gallop
  std::uint64_t bitmap_isects = 0;   ///< resolved by bitmap (cpu-fast)
  std::uint64_t merge_picks = 0;     ///< elements consumed by merge loops
  std::uint64_t gallop_probes = 0;   ///< MRAM bursts of block binary searches
  std::uint64_t bitmap_probes = 0;   ///< bitmap membership tests (cpu-fast)
  std::uint64_t chunks_claimed = 0;  ///< strided scan chunks claimed
  std::uint64_t instructions = 0;    ///< kernel instructions this recount
  /// Counting-phase instructions alone (cache build + lookups +
  /// intersections); `instructions` additionally includes copy/sort/index.
  std::uint64_t count_instructions = 0;
};

struct CountReport {
  /// Registry name of the backend that produced this report.
  std::string backend;

  /// Statistically corrected triangle estimate (DESIGN.md "Correction
  /// math").  When `exact` is true this is an integer equal to the true
  /// count of the streamed graph.
  double estimate = 0.0;

  /// True when nothing was sampled away (uniform_p == 1 and no reservoir
  /// overflowed for PIM; always true for the exhaustive CPU backends).
  bool exact = false;

  /// Sum of raw per-unit counts before any statistical correction.
  TriangleCount raw_total = 0;

  /// Phase breakdown; `simulated_times` says whether the device phases are
  /// model-simulated (PIM) or locally measured (CPU).
  PhaseTimes times;
  bool simulated_times = false;

  /// Platform-independent work profile (CPU backends; feeds the platform
  /// models used by the Figure 6/7 projections).
  WorkProfile work;

  /// Rank-aware transfer accounting (PIM backend; zeros elsewhere).
  TransferBreakdown transfers;

  // ---- distribution / load-balance diagnostics ----------------------------
  std::uint32_t num_units = 0;  ///< PIM cores (or host threads) used
  std::uint32_t num_ranks = 0;  ///< UPMEM ranks the allocation spans (PIM)
  std::uint32_t host_threads = 0;  ///< host CPU threads the backend ran with
  std::uint64_t edges_streamed = 0;    ///< edges offered to the session
  std::uint64_t edges_kept = 0;        ///< survived uniform sampling
  std::uint64_t edges_replicated = 0;  ///< total sent to units (~C x kept)
  std::uint64_t min_unit_edges = 0;    ///< load balance: min t_d
  std::uint64_t max_unit_edges = 0;    ///< load balance: max t_d
  std::uint64_t reservoir_overflows = 0;  ///< units with effective t_d > M
  bool used_incremental = false;  ///< this recount took the incremental path

  // ---- fully-dynamic stream diagnostics -----------------------------------
  /// Delete updates applied to the session (stream space; loops excluded).
  std::uint64_t edges_deleted = 0;
  /// PIM: resident sample entries evicted by deletions, summed over cores
  /// (replicated space).  CPU backends: exact stored edges removed.
  std::uint64_t sample_evictions = 0;
  /// Deletions of edges that were not present, dropped as no-ops.  Exact
  /// for cpu-incremental (stream space).  For PIM: replicated space, and
  /// detected only while a core's sample still covers its live subgraph —
  /// always in the exact regime; after a reservoir overflow a phantom
  /// delete is indistinguishable from a discarded edge and silently
  /// becomes an out-of-sample deletion (the caller contract).
  std::uint64_t delete_misses = 0;
  /// PIM: cores forced to a full pass by deletion-dirtied samples during
  /// this otherwise-incremental recount.
  std::uint32_t dirty_full_recounts = 0;

  // ---- partition / placement diagnostics (PIM backend) --------------------
  std::uint32_t num_colors = 0;  ///< resolved C (auto selection filled in)
  std::string placement;         ///< triplet->DPU placement policy name
  double dpu_utilization = 0.0;  ///< cores used / machine max_dpus
  /// max(t_d) / mean(t_d) over units: the count phase is gated by the max,
  /// so this is the headroom a perfectly uniform partition would recover.
  double load_imbalance = 0.0;
  /// Per-kind load histogram: edges ever offered to cores of each triplet
  /// kind (1/2/3 distinct colors; expected loads N/3N/6N), plus the number
  /// of cores of that kind.
  std::array<std::uint64_t, 3> kind_edges_seen{};
  std::array<std::uint32_t, 3> kind_units{};

  /// Adaptive-intersection kernel diagnostics (PIM backend).
  KernelStats kernel;

  /// Fault-injection / recovery ledger (PIM backend; `faults.injected` is
  /// false when injection is off).  When `faults.degraded` the estimate was
  /// extrapolated from `faults.coverage` of the observed stream and `exact`
  /// is forced false; `faults.error_bound` is the widened relative bound.
  using FaultStats = pim::FaultStats;
  FaultStats faults;

  /// Misra-Gries top-t summary when the backend ran with it enabled.
  std::vector<HeavyHitter> heavy_hitters;

  [[nodiscard]] TriangleCount rounded() const noexcept {
    return estimate <= 0 ? 0 : static_cast<TriangleCount>(estimate + 0.5);
  }
};

}  // namespace pimtc::engine
