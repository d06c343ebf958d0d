// Configuration and calibration constants of the PIM system model.
//
// The simulator is *functional* (kernels really execute and produce exact
// results) with an attached first-order timing model.  The default constants
// describe the paper's evaluation platform — 20 P21 UPMEM DIMMs, 2560 DPUs —
// with per-component numbers taken from the public UPMEM characterization
// literature (Gómez-Luna et al., "Benchmarking a New Paradigm: Experimental
// Analysis and Characterization of a Real Processing-in-Memory System",
// IEEE Access 2022) and the UPMEM user manual:
//
//  * DPU: 32-bit in-order core, 14-stage pipeline, fine-grained
//    multithreading over software "tasklets".  One tasklet can issue at most
//    one instruction every 11 cycles; >= 11 resident tasklets sustain
//    1 instr/cycle aggregate.  350 MHz.
//  * MRAM (the 64 MB DRAM bank) is reachable only through DMA to the 64 KB
//    WRAM scratchpad; a transfer costs roughly a fixed ~77-cycle setup plus
//    ~0.5 cycles/byte (saturating near 700 MB/s per DPU).
//  * Host <-> MRAM transfers are performed rank-parallel by the host CPU;
//    aggregate bandwidth saturates in the ~6 GB/s range for parallel
//    transfers across many ranks, with a per-batch software latency.
//  * DPU allocation + program (IRAM) load is a host-side cost that grows
//    with the number of ranks touched — this is what makes small graphs
//    regress at high core counts in Figure 4.
//
// The machine is the paper's: only the three fields something sets (the
// rank width, the DPU budget and the MRAM bank size, which the scaling
// bench, the CLI and tests shrink) are data members; every other
// calibration constant is a `static constexpr`, as it is a build-time
// constant of the real kernel.
#pragma once

#include <cstdint>

namespace pimtc::pim {

struct PimSystemConfig {
  // ---- topology -----------------------------------------------------------
  std::uint32_t dpus_per_rank = 64;   ///< 8 chips x 8 DPUs per rank
  std::uint32_t max_dpus = 2560;      ///< 20 DIMMs x 2 ranks x 64 DPUs
  std::uint64_t mram_bytes = 64ull << 20;  ///< DRAM bank per DPU
  static constexpr std::uint32_t wram_bytes = 64u << 10;  ///< scratchpad
  static constexpr std::uint32_t max_tasklets = 24;  ///< thread contexts

  // ---- DPU pipeline -------------------------------------------------------
  static constexpr double dpu_mhz = 350.0;
  /// A single tasklet issues one instruction every `pipeline_depth` cycles;
  /// this many resident tasklets are needed for full 1-instr/cycle issue.
  static constexpr std::uint32_t pipeline_saturation_tasklets = 11;

  // ---- MRAM <-> WRAM DMA --------------------------------------------------
  /// Latency observed by the *issuing tasklet* per transfer; hidden by the
  /// other resident tasklets (fine-grained multithreading).
  static constexpr double dma_setup_cycles = 77.0;
  /// Shared-engine occupancy per transfer (request handling); transfers
  /// from different tasklets serialize only on this plus the byte time.
  static constexpr double dma_engine_cycles = 24.0;
  static constexpr double dma_cycles_per_byte = 0.5;
  /// DMA transfer size granularity (hardware moves 8-byte aligned bursts).
  static constexpr std::uint32_t dma_alignment_bytes = 8;

  // ---- host <-> MRAM transfer engine -------------------------------------
  /// Aggregate push bandwidth when all ranks transfer in parallel.
  static constexpr double host_push_gb_s = 6.0;
  /// Gather direction is slower on real hardware.
  static constexpr double host_pull_gb_s = 4.7;
  /// Fixed software cost per transfer batch (driver + rank programming).
  static constexpr double host_xfer_latency_s = 30e-6;
  /// Per-rank bandwidth share; with few ranks the aggregate cannot reach the
  /// cap above: effective_bw = min(cap, ranks * per_rank).
  static constexpr double host_per_rank_gb_s = 0.35;

  // ---- setup phase --------------------------------------------------------
  static constexpr double alloc_base_s = 2.0e-3;  ///< dpu_alloc() fixed cost
  /// Rank discovery / reset.
  static constexpr double alloc_per_rank_s = 0.9e-3;
  /// Broadcast of the IRAM program image.
  static constexpr double program_load_per_rank_s = 0.35e-3;
  /// Per kernel launch (boot + fault poll).
  static constexpr double launch_overhead_s = 25e-6;
  /// The host boots ranks sequentially (one boot-register broadcast per
  /// rank), so rank r starts ~r * this after rank 0.  A launch completes at
  /// max over ranks of (start skew + slowest kernel in the rank) — placing
  /// heavy cores in early ranks hides the skew under their longer kernels.
  /// A per-rank boot broadcast is one control-interface write (~µs); small
  /// next to the kernels (36 ranks ≈ 35 µs) but it is what makes placement
  /// visible to the count phase.
  static constexpr double launch_skew_per_rank_s = 1e-6;

  /// Number of ranks needed for `dpus` DPUs.
  [[nodiscard]] std::uint32_t ranks_for(std::uint32_t dpus) const noexcept {
    return (dpus + dpus_per_rank - 1) / dpus_per_rank;
  }

  /// Seconds for one DPU-side cycle count.
  [[nodiscard]] double cycles_to_seconds(double cycles) const noexcept {
    return cycles / (dpu_mhz * 1e6);
  }

  /// Host->MRAM (push) or MRAM->host (pull) batch transfer time.
  [[nodiscard]] double transfer_seconds(std::uint64_t total_bytes,
                                        std::uint32_t dpus_involved,
                                        bool push) const noexcept {
    return bulk_transfer_seconds(total_bytes,
                                 ranks_for(dpus_involved == 0 ? 1 : dpus_involved),
                                 push);
  }

  /// Wire time of one rank-parallel bulk transfer (dpu_push_xfer /
  /// dpu_sync_copy shape): `wire_bytes` is the total moved *after* per-rank
  /// padding to the slowest DPU, `active_ranks` the ranks with a non-empty
  /// payload.  Each active rank contributes its bandwidth share up to the
  /// aggregate cap; a transfer touching no rank still pays the software
  /// latency (driver call + rank programming).
  [[nodiscard]] double bulk_transfer_seconds(std::uint64_t wire_bytes,
                                             std::uint32_t active_ranks,
                                             bool push) const noexcept {
    if (active_ranks == 0 || wire_bytes == 0) return host_xfer_latency_s;
    const double cap = (push ? host_push_gb_s : host_pull_gb_s) * 1e9;
    const double share = active_ranks * host_per_rank_gb_s * 1e9;
    const double bw = share < cap ? share : cap;
    return host_xfer_latency_s + static_cast<double>(wire_bytes) / bw;
  }

  /// Setup-phase model: allocation + program load for `dpus` DPUs.
  [[nodiscard]] double setup_seconds(std::uint32_t dpus) const noexcept {
    const double ranks = ranks_for(dpus);
    return alloc_base_s + ranks * (alloc_per_rank_s + program_load_per_rank_s);
  }
};

/// Abstract instruction-cost table for the kernels (counts of issued
/// instructions per algorithmic step), hand-counted from the inner loops of
/// the equivalent UPMEM C kernels and kept in one place.
struct KernelCostModel {
  /// Per element-compare-swap in the WRAM quicksort.
  static constexpr std::uint32_t sort_step = 14;
  /// Per element consumed in a 2-way MRAM merge.
  static constexpr std::uint32_t merge_pick = 10;
  /// Per probe (index arithmetic + compare).
  static constexpr std::uint32_t binary_search_step = 16;
  /// Per comparison in the neighbor merge.
  static constexpr std::uint32_t count_merge_step = 9;
  /// Register moves per edge staged.
  static constexpr std::uint32_t edge_copy = 4;
  /// Hash-table probe for the high-degree remap.
  static constexpr std::uint32_t remap_lookup = 11;
  /// Per edge when building the region index.
  static constexpr std::uint32_t region_scan_step = 7;
  /// Per outer-loop iteration bookkeeping.
  static constexpr std::uint32_t loop_overhead = 3;
};

}  // namespace pimtc::pim
