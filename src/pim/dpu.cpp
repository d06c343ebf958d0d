#include "pim/dpu.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/math_util.hpp"

namespace pimtc::pim {

void Tasklet::mram_read(std::uint64_t mram_offset, void* dst,
                        std::size_t bytes) {
  dpu_->mram_.read(mram_offset, dst, bytes);
  charge_dma(1, round_up(bytes, PimSystemConfig::dma_alignment_bytes));
}

void Tasklet::mram_write(std::uint64_t mram_offset, const void* src,
                         std::size_t bytes) {
  dpu_->mram_.write(mram_offset, src, bytes);
  charge_dma(1, round_up(bytes, PimSystemConfig::dma_alignment_bytes));
}

double Dpu::dma_cost_cycles(std::size_t bytes) const noexcept {
  const auto aligned =
      round_up(bytes, config_.dma_alignment_bytes);
  return config_.dma_setup_cycles +
         static_cast<double>(aligned) * config_.dma_cycles_per_byte;
}

void Dpu::parallel(std::uint32_t num_tasklets,
                   const std::function<void(Tasklet&)>& body) {
  if (num_tasklets == 0 || num_tasklets > config_.max_tasklets) {
    throw std::invalid_argument("Dpu::parallel: bad tasklet count");
  }
  if (phase_.active) {
    throw std::logic_error("Dpu::parallel: nested parallel sections");
  }
  phase_.active = true;
  // A body that throws (WRAM exhausted, MRAM overflow) must not leave the
  // DPU inside a phase: the caller may retry on the same DPU.
  struct EndPhase {
    PhaseAccount& phase;
    ~EndPhase() { phase.active = false; }
  } end_phase{phase_};
  phase_.instr.assign(num_tasklets, 0);
  phase_.dma_latency.assign(num_tasklets, 0);
  phase_.engine_cycles = 0;

  for (std::uint32_t t = 0; t < num_tasklets; ++t) {
    Tasklet tasklet(*this, t);
    body(tasklet);
  }

  // Fold the phase into the cycle account (see header for the model).
  const double s = config_.pipeline_saturation_tasklets;
  std::uint64_t total = 0;
  double straggler_bound = 0.0;
  for (std::uint32_t t = 0; t < num_tasklets; ++t) {
    total += phase_.instr[t];
    straggler_bound = std::max(
        straggler_bound, static_cast<double>(phase_.instr[t]) * s +
                             static_cast<double>(phase_.dma_latency[t]));
  }
  const double issue_bound =
      static_cast<double>(total) * std::max(1.0, s / num_tasklets);
  const double phase_cycles =
      std::max({issue_bound, straggler_bound,
                static_cast<double>(phase_.engine_cycles)});
  cycles_ += phase_cycles;
}

void Dpu::serial_instr(std::uint64_t n) noexcept {
  // A lone context issues one instruction per `saturation` cycles only when
  // nothing else is resident; the receive path in the real kernel runs a
  // single tasklet, so charge the full pipeline-depth stall.
  cycles_ += static_cast<double>(n) *
             static_cast<double>(config_.pipeline_saturation_tasklets);
  lifetime_instr_ += n;
}

void Dpu::serial_dma(std::uint64_t bytes) noexcept {
  cycles_ += dma_cost_cycles(bytes);
}

void Dpu::charge_parallel_instr(std::uint64_t n,
                                std::uint32_t active_tasklets) noexcept {
  const double s =
      static_cast<double>(config_.pipeline_saturation_tasklets);
  const double t = static_cast<double>(
      std::max<std::uint32_t>(1, active_tasklets));
  cycles_ += static_cast<double>(n) * std::max(1.0, s / t);
  lifetime_instr_ += n;
}

void Dpu::charge_dma_bulk(std::uint64_t bytes,
                          std::uint32_t chunk_bytes) noexcept {
  if (bytes == 0) return;
  const std::uint64_t chunks = ceil_div(bytes, chunk_bytes);
  cycles_ += static_cast<double>(chunks) * config_.dma_setup_cycles +
             static_cast<double>(round_up(bytes, config_.dma_alignment_bytes)) *
                 config_.dma_cycles_per_byte;
}

}  // namespace pimtc::pim
