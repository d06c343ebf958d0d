// PimSystem: a set of allocated DPUs plus the host-side transfer engine.
//
// Mirrors the UPMEM host API surface the paper's implementation uses:
// allocate a DPU set, push data to each DPU's MRAM (rank-parallel batched
// transfers), launch a kernel on every DPU, pull results back.  Each of
// those steps returns / accumulates *simulated* seconds from the timing
// model in PimSystemConfig, split into the paper's three phases
// (common/phase_times.hpp):
//
//   setup_s   Setup — allocation + program load (+ host-side init, added
//             by the orchestrator),
//   ingest_s  Sample creation — batched host->MRAM edge transfers +
//             DPU-side receive,
//   count_s   Triangle count — kernel execution + result gather.
//
// The machine is organized as *ranks* of `dpus_per_rank` DPUs.  A bulk
// transfer (scatter/gather) moves one byte span per DPU in a single modeled
// operation, the way dpu_push_xfer does: within each rank every DPU's slot
// is padded to the slowest (largest) span — the rank-parallel engine moves
// the same number of bytes to every DPU of a rank — and ranks transfer in
// parallel subject to the per-rank / aggregate bandwidth caps.  The
// payload-vs-wire gap from that padding is tracked in TransferStats.
//
// Functional execution of the per-DPU kernels is parallelized across host
// threads; simulated kernel time is the max over DPUs, matching a real
// launch that waits for the slowest DPU.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/phase_times.hpp"
#include "common/thread_pool.hpp"
#include "pim/config.hpp"
#include "pim/dpu.hpp"
#include "pim/fault.hpp"
#include "pim/transfer_stats.hpp"

namespace pimtc::pim {

/// One DPU's slice of a bulk scatter: `bytes` copied from `src` into that
/// DPU's MRAM at `mram_offset`.  `bytes == 0` means the DPU sits the
/// transfer out (its rank slot still gets padded if a peer transfers).
struct ScatterSpan {
  std::uint64_t mram_offset = 0;
  const void* src = nullptr;
  std::uint64_t bytes = 0;
};

/// One DPU's slice of a bulk gather: `bytes` copied from that DPU's MRAM at
/// `mram_offset` into `dst`.
struct GatherSpan {
  std::uint64_t mram_offset = 0;
  void* dst = nullptr;
  std::uint64_t bytes = 0;
};

class PimSystem {
 public:
  /// Allocates `num_dpus` DPUs (throws if the machine has fewer) and charges
  /// the allocation + program-load cost to the setup phase.  `faults` is
  /// the machine's fault plan; the default is the perfect machine.
  PimSystem(const PimSystemConfig& config, std::uint32_t num_dpus,
            ThreadPool* pool = nullptr, FaultPlan faults = {});

  [[nodiscard]] std::uint32_t num_dpus() const noexcept {
    return static_cast<std::uint32_t>(dpus_.size());
  }
  [[nodiscard]] Dpu& dpu(std::uint32_t i) noexcept { return *dpus_[i]; }
  [[nodiscard]] const Dpu& dpu(std::uint32_t i) const noexcept {
    return *dpus_[i];
  }
  [[nodiscard]] const PimSystemConfig& config() const noexcept {
    return config_;
  }

  // ---- rank topology --------------------------------------------------------
  [[nodiscard]] std::uint32_t dpus_per_rank() const noexcept {
    return config_.dpus_per_rank;
  }
  [[nodiscard]] std::uint32_t num_ranks() const noexcept {
    return config_.ranks_for(num_dpus());
  }
  [[nodiscard]] std::uint32_t rank_of(std::uint32_t dpu) const noexcept {
    return dpu / config_.dpus_per_rank;
  }

  // ---- bulk transfers -------------------------------------------------------
  /// Moves one span per DPU (spans.size() == num_dpus()) host->MRAM in a
  /// single modeled rank-parallel transfer and returns the modeled seconds.
  /// When `phase` is non-null the time is charged to it; a null `phase`
  /// only records TransferStats and leaves charging to the caller (the
  /// pipelined ingest path overlaps this time with host work).
  double scatter(std::span<const ScatterSpan> spans,
                 double PhaseTimes::* phase);

  /// MRAM->host counterpart of scatter().
  double gather(std::span<const GatherSpan> spans,
                double PhaseTimes::* phase);

  /// Timing/accounting of a scatter() for callers that deliver the
  /// payload themselves (e.g. coalesced reservoir writes): models one bulk
  /// host->MRAM transfer of `per_dpu_bytes[i]` payload to DPU i with
  /// per-rank slowest-DPU padding.  Returns the modeled seconds; `phase`
  /// semantics as in scatter().
  double charge_scatter(std::span<const std::uint64_t> per_dpu_bytes,
                        double PhaseTimes::* phase) {
    return charge_bulk(per_dpu_bytes, /*push=*/true, phase);
  }

  /// Records device seconds the pipelined ingest hid under host work.
  void note_overlap_saved(double seconds) noexcept {
    stats_.overlap_saved_s += seconds;
  }

  [[nodiscard]] const TransferStats& transfer_stats() const noexcept {
    return stats_;
  }

  /// Adds host-measured seconds (file reading, batch building, ...) to a
  /// phase.
  void charge_host(double seconds, double PhaseTimes::* phase);

  // ---- kernel launch & faults -----------------------------------------------
  /// Per-bank outcome of one launch().  Faulted banks never ran the kernel,
  /// so their device state is untouched and a retry replays the identical
  /// input.
  struct LaunchReport {
    std::vector<std::uint32_t> ok;
    std::vector<std::uint32_t> transient;  ///< launch failed, bank survives
    std::vector<std::uint32_t> dead;       ///< bank permanently lost
  };

  /// Runs `kernel(dpu)` on the listed DPUs under the fault plan: per-bank
  /// launch faults are drawn for this launch step, the kernel runs only on
  /// the surviving banks, and the rest are reported; callers own the
  /// recovery policy (see tc::PimTriangleCounter).  The host runs one task
  /// per pool worker, and each claims the next surviving bank from a
  /// shared counter, so a slow bank delays only the worker running it.
  /// Banks run in any order and on any worker; a kernel must depend on
  /// its bank alone.
  /// Simulated duration = launch overhead + max over ranks of (per-rank boot
  /// skew + the slowest kernel in the rank); accumulated into `phase`.  An
  /// out-of-range id throws std::invalid_argument before any state changes.
  LaunchReport launch(std::span<const std::uint32_t> dpu_ids,
                      const std::function<void(Dpu&)>& kernel,
                      double PhaseTimes::* phase);

  [[nodiscard]] const FaultPlan& fault_plan() const noexcept {
    return fault_plan_;
  }
  [[nodiscard]] bool dpu_dead(std::uint32_t i) const noexcept {
    return dead_[i] != 0;
  }
  [[nodiscard]] std::uint32_t dead_dpu_count() const noexcept;
  /// The session's fault ledger.  The machine counts launch faults, wire
  /// corruptions and checksummed bytes; the counting host adds its
  /// recoveries through the mutable overload.
  [[nodiscard]] const FaultStats& fault_stats() const noexcept {
    return fault_stats_;
  }
  [[nodiscard]] FaultStats& fault_stats() noexcept { return fault_stats_; }

  [[nodiscard]] const PhaseTimes& times() const noexcept { return times_; }
  /// Zeroes the phase times *and* the transfer diagnostics (both are
  /// "accumulated since the last reset" views of the same run).
  void reset_times() noexcept {
    times_ = {};
    stats_ = {};
  }

 private:
  double charge_bulk(std::span<const std::uint64_t> per_dpu_bytes, bool push,
                     double PhaseTimes::* phase);
  /// scatter()/gather(): moves the spans, charges the bulk transfer, then
  /// draws wire corruption and repairs what the checksums catch.
  template <typename Span>
  double transfer(std::span<const Span> spans, double PhaseTimes::* phase);

  PimSystemConfig config_;
  std::vector<std::unique_ptr<Dpu>> dpus_;
  ThreadPool* pool_;
  PhaseTimes times_;
  TransferStats stats_;

  FaultPlan fault_plan_;
  std::vector<std::uint8_t> dead_;  ///< per-bank permanent-failure flags
  FaultStats fault_stats_;
  /// Serial operation index feeding the deterministic draws: each launch
  /// consumes one step, and so do each bulk transfer and repair round while
  /// transfer corruption is armed.
  std::uint64_t fault_step_ = 0;
};

}  // namespace pimtc::pim
