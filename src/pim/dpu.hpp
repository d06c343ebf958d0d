// One simulated DPU (PIM core): MRAM bank + WRAM scratchpad + cycle model.
//
// Kernels run *functionally* on the host while charging a per-phase cycle
// account that models the UPMEM execution constraints:
//
//  * all tasklets share one in-order pipeline with aggregate throughput of
//    one instruction per cycle, reached only when >= 11 tasklets are
//    resident; a single tasklet can issue at most every 11 cycles,
//  * MRAM is reachable only by DMA (setup + per-byte cost), and the DMA
//    engine is shared by all tasklets,
//  * DMA and execution of other tasklets overlap.
//
// A parallel phase therefore costs
//     max( I_total * max(1, S/T),          -- issue-bandwidth bound
//          max_t (I_t * S + L_t),          -- critical-path (straggler) bound
//          E_total )                       -- DMA-engine bound
// cycles, where I_t/L_t are per-tasklet instruction counts and DMA
// latencies (latency stalls only the issuing tasklet), E_total the summed
// engine occupancy (per-transfer handling + bytes), T the tasklet count and
// S the pipeline saturation threshold (11).
//
// L_t and E_total are integer cycles: a transfer moves a multiple of the
// 8-byte DMA alignment, so it costs 77 + bytes/2 cycles of latency and
// 24 + bytes/2 of engine time, whole numbers.  Sums of charges are then
// exact in any order, which is what lets a stage charge a tasklet's whole
// stream in closed form (Tasklet::charge_dma) instead of per transfer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "pim/config.hpp"
#include "pim/mram.hpp"
#include "pim/wram.hpp"

namespace pimtc::pim {

class Dpu;

/// Handle a kernel uses to execute as one tasklet: charges instructions and
/// issues DMA on behalf of tasklet `id()`.
class Tasklet {
 public:
  Tasklet(Dpu& dpu, std::uint32_t id) : dpu_(&dpu), id_(id) {}

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  /// Charges `n` pipeline instructions to this tasklet.
  inline void instr(std::uint64_t n) noexcept;

  /// Charges `transfers` MRAM<->WRAM transfers moving `aligned_bytes` in
  /// total (each transfer's size already rounded up to the DMA alignment)
  /// without moving data: the closed-form twin of mram_read/mram_write for
  /// stages whose data the host moves in bulk.
  inline void charge_dma(std::uint64_t transfers,
                         std::uint64_t aligned_bytes) noexcept;

  /// DMA MRAM -> WRAM (functionally a read into `dst`).
  void mram_read(std::uint64_t mram_offset, void* dst, std::size_t bytes);

  /// DMA WRAM -> MRAM.
  void mram_write(std::uint64_t mram_offset, const void* src,
                  std::size_t bytes);

  /// Typed single-record DMA helpers (cost = one aligned burst).
  template <typename T>
  [[nodiscard]] T mram_read_t(std::uint64_t offset) {
    T value;
    mram_read(offset, &value, sizeof(T));
    return value;
  }

  template <typename T>
  void mram_write_t(std::uint64_t offset, const T& value) {
    mram_write(offset, &value, sizeof(T));
  }

 private:
  Dpu* dpu_;
  std::uint32_t id_;
};

class Dpu {
 public:
  Dpu(const PimSystemConfig& config, std::uint32_t id)
      : config_(config),
        id_(id),
        mram_(config.mram_bytes),
        wram_(config.wram_bytes) {}

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] MramBank& mram() noexcept { return mram_; }
  [[nodiscard]] const MramBank& mram() const noexcept { return mram_; }
  [[nodiscard]] WramArena& wram() noexcept { return wram_; }
  [[nodiscard]] const PimSystemConfig& config() const noexcept {
    return config_;
  }

  /// Runs `body(tasklet)` once per tasklet id in [0, num_tasklets) as one
  /// parallel phase (implicit barrier at the end, like UPMEM's
  /// barrier_wait).  Tasklets execute sequentially on the host; the cycle
  /// model combines their accounts as documented above.
  void parallel(std::uint32_t num_tasklets,
                const std::function<void(Tasklet&)>& body);

  /// Charges work done outside any parallel section (single-tasklet
  /// semantics, e.g. the batch-receive path).
  void serial_instr(std::uint64_t n) noexcept;
  void serial_dma(std::uint64_t bytes) noexcept;

  /// Charges `n` instructions executed by a small resident kernel with
  /// `active_tasklets` threads (issue-bandwidth model, no straggler term) —
  /// used for the batch-receive/reservoir path which is embarrassingly
  /// parallel over incoming edges.
  void charge_parallel_instr(std::uint64_t n,
                             std::uint32_t active_tasklets) noexcept;

  /// Charges a bulk DMA stream of `bytes` moved in `chunk_bytes` bursts.
  void charge_dma_bulk(std::uint64_t bytes, std::uint32_t chunk_bytes) noexcept;

  /// Simulated cycles accumulated since construction.
  [[nodiscard]] double cycles() const noexcept { return cycles_; }
  [[nodiscard]] double seconds() const noexcept {
    return config_.cycles_to_seconds(cycles_);
  }

  /// Lifetime instruction tally; callers difference it around a kernel
  /// launch to attribute that launch's instructions.
  [[nodiscard]] std::uint64_t total_instructions() const noexcept {
    return lifetime_instr_;
  }

  /// Lifetime tallies of the MRAM<->WRAM transfers the tasklets issued and
  /// of the aligned bytes they moved; the device-state goldens pin them.
  [[nodiscard]] std::uint64_t dma_transfers() const noexcept {
    return lifetime_dma_transfers_;
  }
  [[nodiscard]] std::uint64_t dma_bytes() const noexcept {
    return lifetime_dma_bytes_;
  }

 private:
  friend class Tasklet;

  // Integral DMA costs (see the header comment).
  static constexpr std::uint64_t kDmaAlign =
      PimSystemConfig::dma_alignment_bytes;
  static constexpr std::uint64_t kDmaSetupCycles =
      static_cast<std::uint64_t>(PimSystemConfig::dma_setup_cycles);
  static constexpr std::uint64_t kDmaEngineCycles =
      static_cast<std::uint64_t>(PimSystemConfig::dma_engine_cycles);
  /// Cycles to move one aligned burst of kDmaAlign bytes.
  static constexpr std::uint64_t kDmaBurstCycles = static_cast<std::uint64_t>(
      kDmaAlign * PimSystemConfig::dma_cycles_per_byte);
  static_assert(kDmaSetupCycles == PimSystemConfig::dma_setup_cycles &&
                    kDmaEngineCycles == PimSystemConfig::dma_engine_cycles,
                "DMA setup and engine costs must be whole cycles");
  static_assert(kDmaBurstCycles ==
                    kDmaAlign * PimSystemConfig::dma_cycles_per_byte,
                "an aligned DMA burst must cost whole cycles");

  [[nodiscard]] double dma_cost_cycles(std::size_t bytes) const noexcept;
  void charge_dma(std::uint32_t tasklet, std::uint64_t transfers,
                  std::uint64_t aligned_bytes) noexcept {
    const std::uint64_t byte_cycles =
        aligned_bytes / kDmaAlign * kDmaBurstCycles;
    phase_.dma_latency[tasklet] += transfers * kDmaSetupCycles + byte_cycles;
    phase_.engine_cycles += transfers * kDmaEngineCycles + byte_cycles;
    lifetime_dma_transfers_ += transfers;
    lifetime_dma_bytes_ += aligned_bytes;
  }

  PimSystemConfig config_;  // by value: the Dpu outlives any caller config
  std::uint32_t id_;
  MramBank mram_;
  WramArena wram_;

  double cycles_ = 0.0;
  std::uint64_t lifetime_instr_ = 0;
  std::uint64_t lifetime_dma_transfers_ = 0;
  std::uint64_t lifetime_dma_bytes_ = 0;

  // Per-phase accounting, valid while parallel() runs.
  struct PhaseAccount {
    std::vector<std::uint64_t> instr;        // per tasklet
    std::vector<std::uint64_t> dma_latency;  // per tasklet, cycles
    std::uint64_t engine_cycles = 0;         // shared DMA engine occupancy
    bool active = false;
  };
  PhaseAccount phase_;
};

inline void Tasklet::instr(std::uint64_t n) noexcept {
  dpu_->phase_.instr[id_] += n;
  dpu_->lifetime_instr_ += n;
}

inline void Tasklet::charge_dma(std::uint64_t transfers,
                                std::uint64_t aligned_bytes) noexcept {
  dpu_->charge_dma(id_, transfers, aligned_bytes);
}

}  // namespace pimtc::pim
