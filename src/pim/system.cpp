#include "pim/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/math_util.hpp"

namespace pimtc::pim {

PimSystem::PimSystem(const PimSystemConfig& config, std::uint32_t num_dpus,
                     ThreadPool* pool)
    : config_(config), pool_(pool ? pool : &ThreadPool::global()) {
  if (num_dpus == 0) {
    throw std::invalid_argument("PimSystem: need at least one DPU");
  }
  if (config_.dpus_per_rank == 0) {
    throw std::invalid_argument("PimSystem: dpus_per_rank must be >= 1");
  }
  if (num_dpus > config.max_dpus) {
    throw std::invalid_argument(
        "PimSystem: requested " + std::to_string(num_dpus) +
        " DPUs but the machine has " + std::to_string(config.max_dpus));
  }
  dpus_.reserve(num_dpus);
  for (std::uint32_t i = 0; i < num_dpus; ++i) {
    dpus_.push_back(std::make_unique<Dpu>(config_, i));
  }
  times_.setup_s += config_.setup_seconds(num_dpus);
}

double PimSystem::charge_bulk(std::span<const std::uint64_t> per_dpu_bytes,
                              bool push, double PhaseTimes::* phase) {
  if (per_dpu_bytes.size() != num_dpus()) {
    throw std::invalid_argument(
        "PimSystem: bulk transfer needs one span per DPU (got " +
        std::to_string(per_dpu_bytes.size()) + " for " +
        std::to_string(num_dpus()) + " DPUs)");
  }
  // Rank-parallel engine shape: within each rank every DPU's slot is padded
  // to the largest (8-byte aligned) span of that rank; ranks with no payload
  // stay idle and contribute no bandwidth share.
  std::uint64_t payload = 0;
  std::uint64_t wire = 0;
  std::uint32_t active_ranks = 0;
  const std::uint32_t n = num_dpus();
  for (std::uint32_t lo = 0; lo < n; lo += config_.dpus_per_rank) {
    const std::uint32_t hi = std::min(n, lo + config_.dpus_per_rank);
    std::uint64_t rank_max = 0;
    for (std::uint32_t d = lo; d < hi; ++d) {
      payload += per_dpu_bytes[d];
      rank_max = std::max(
          rank_max, round_up(per_dpu_bytes[d], config_.dma_alignment_bytes));
    }
    if (rank_max > 0) {
      ++active_ranks;
      wire += rank_max * (hi - lo);
    }
  }
  if (payload == 0) return 0.0;  // nothing staged anywhere: no driver call

  double seconds = config_.bulk_transfer_seconds(wire, active_ranks, push);
  if (fault_plan_ != nullptr && fault_plan_->spec().checksums) {
    // XXH64 over the payload on both ends of the wire — the detection cost
    // of checksummed transfers, modeled at the configured rate.
    const double detect_s = static_cast<double>(payload) /
                            (fault_plan_->spec().checksum_gb_s * 1e9);
    seconds += detect_s;
    fault_counters_.checksum_bytes += payload;
    fault_counters_.detection_s += detect_s;
  }
  TransferStats& s = stats_;
  if (push) {
    ++s.push_transfers;
    s.push_payload_bytes += payload;
    s.push_wire_bytes += wire;
  } else {
    ++s.pull_transfers;
    s.pull_payload_bytes += payload;
    s.pull_wire_bytes += wire;
  }
  if (phase != nullptr) times_.*phase += seconds;
  return seconds;
}

double PimSystem::scatter(std::span<const ScatterSpan> spans,
                          double PhaseTimes::* phase) {
  if (spans.size() != num_dpus()) {
    throw std::invalid_argument("PimSystem::scatter: one span per DPU");
  }
  std::vector<std::uint64_t> bytes(spans.size());
  for (std::size_t d = 0; d < spans.size(); ++d) {
    bytes[d] = spans[d].bytes;
    if (spans[d].bytes > 0) {
      dpus_[d]->mram().write(spans[d].mram_offset, spans[d].src,
                             static_cast<std::size_t>(spans[d].bytes));
    }
  }
  double seconds = charge_scatter(bytes, phase);
  if (fault_plan_ != nullptr && fault_plan_->spec().transfer_corrupt > 0.0) {
    seconds += corrupt_scatter(spans, phase);
  }
  return seconds;
}

double PimSystem::gather(std::span<const GatherSpan> spans,
                         double PhaseTimes::* phase) {
  if (spans.size() != num_dpus()) {
    throw std::invalid_argument("PimSystem::gather: one span per DPU");
  }
  std::vector<std::uint64_t> bytes(spans.size());
  for (std::size_t d = 0; d < spans.size(); ++d) {
    bytes[d] = spans[d].bytes;
    if (spans[d].bytes > 0) {
      dpus_[d]->mram().read(spans[d].mram_offset, spans[d].dst,
                            static_cast<std::size_t>(spans[d].bytes));
    }
  }
  double seconds = charge_gather(bytes, phase);
  if (fault_plan_ != nullptr && fault_plan_->spec().transfer_corrupt > 0.0) {
    seconds += corrupt_gather(spans, phase);
  }
  return seconds;
}

void PimSystem::install_fault_plan(std::shared_ptr<const FaultPlan> plan) {
  fault_plan_ = std::move(plan);
  dead_.assign(num_dpus(), 0);
}

std::uint32_t PimSystem::dead_dpu_count() const noexcept {
  std::uint32_t n = 0;
  for (const std::uint8_t d : dead_) n += d;
  return n;
}

void PimSystem::flip_mram_bit(std::uint32_t dpu, std::uint64_t byte_offset,
                              std::uint32_t bit) {
  std::uint8_t byte = 0;
  dpus_[dpu]->mram().read(byte_offset, &byte, 1);
  byte = static_cast<std::uint8_t>(byte ^ (1u << bit));
  dpus_[dpu]->mram().write(byte_offset, &byte, 1);
}

// Single-bit wire corruption on a push: the bit lands flipped in MRAM.  With
// checksums the mismatch is always caught and the affected spans re-pushed
// (each repair round is charged and redrawn, so a repair can itself be hit);
// without checksums the corruption stays resident, silently.  The attempt
// cap only matters at corruption rates near 1.0 — the final re-push is then
// taken as delivered.
double PimSystem::corrupt_scatter(std::span<const ScatterSpan> spans,
                                  double PhaseTimes::* phase) {
  const FaultSpec& spec = fault_plan_->spec();
  constexpr std::uint32_t kMaxRepairRounds = 8;
  double extra = 0.0;
  std::vector<std::uint8_t> active(spans.size());
  for (std::size_t d = 0; d < spans.size(); ++d) active[d] = spans[d].bytes > 0;
  std::vector<std::uint64_t> redo(spans.size(), 0);
  for (std::uint32_t round = 0; round < kMaxRepairRounds; ++round) {
    const std::uint64_t step = fault_step_++;
    bool any = false;
    std::fill(redo.begin(), redo.end(), 0);
    for (std::size_t d = 0; d < spans.size(); ++d) {
      if (!active[d]) continue;
      const auto id = static_cast<std::uint32_t>(d);
      if (!fault_plan_->transfer_corrupt(step, id)) continue;
      const std::uint64_t bit =
          fault_plan_->corrupt_bit(step, id, spans[d].bytes * 8);
      flip_mram_bit(id, spans[d].mram_offset + bit / 8,
                    static_cast<std::uint32_t>(bit % 8));
      ++fault_counters_.transfer_corruptions;
      if (spec.checksums) {
        redo[d] = spans[d].bytes;
        any = true;
      }
    }
    if (!any) break;
    for (std::size_t d = 0; d < spans.size(); ++d) {
      active[d] = redo[d] > 0;
      if (redo[d] == 0) continue;
      dpus_[d]->mram().write(spans[d].mram_offset, spans[d].src,
                             static_cast<std::size_t>(spans[d].bytes));
      ++fault_counters_.transfer_retries;
    }
    extra += charge_bulk(redo, /*push=*/true, phase);
  }
  return extra;
}

// Pull-side counterpart: the flip lands in the host destination buffer and a
// detected mismatch re-reads the (intact) MRAM content.
double PimSystem::corrupt_gather(std::span<const GatherSpan> spans,
                                 double PhaseTimes::* phase) {
  const FaultSpec& spec = fault_plan_->spec();
  constexpr std::uint32_t kMaxRepairRounds = 8;
  double extra = 0.0;
  std::vector<std::uint8_t> active(spans.size());
  for (std::size_t d = 0; d < spans.size(); ++d) active[d] = spans[d].bytes > 0;
  std::vector<std::uint64_t> redo(spans.size(), 0);
  for (std::uint32_t round = 0; round < kMaxRepairRounds; ++round) {
    const std::uint64_t step = fault_step_++;
    bool any = false;
    std::fill(redo.begin(), redo.end(), 0);
    for (std::size_t d = 0; d < spans.size(); ++d) {
      if (!active[d]) continue;
      const auto id = static_cast<std::uint32_t>(d);
      if (!fault_plan_->transfer_corrupt(step, id)) continue;
      const std::uint64_t bit =
          fault_plan_->corrupt_bit(step, id, spans[d].bytes * 8);
      auto* bytes = static_cast<std::uint8_t*>(spans[d].dst);
      bytes[bit / 8] = static_cast<std::uint8_t>(bytes[bit / 8] ^
                                                 (1u << (bit % 8)));
      ++fault_counters_.transfer_corruptions;
      if (spec.checksums) {
        redo[d] = spans[d].bytes;
        any = true;
      }
    }
    if (!any) break;
    for (std::size_t d = 0; d < spans.size(); ++d) {
      active[d] = redo[d] > 0;
      if (redo[d] == 0) continue;
      dpus_[d]->mram().read(spans[d].mram_offset, spans[d].dst,
                            static_cast<std::size_t>(spans[d].bytes));
      ++fault_counters_.transfer_retries;
    }
    extra += charge_bulk(redo, /*push=*/false, phase);
  }
  return extra;
}

PimSystem::LaunchReport PimSystem::launch_checked(
    std::span<const std::uint32_t> dpu_ids,
    const std::function<void(Dpu&)>& kernel, double PhaseTimes::* phase) {
  LaunchReport report;
  if (dpu_ids.empty()) return report;
  const std::uint64_t step = fault_plan_ != nullptr ? fault_step_++ : 0;
  if (fault_plan_ != nullptr) {
    // Whole-rank outages first: a rank touched by this launch can die,
    // taking every bank in it — listed in this launch or not.
    std::vector<std::uint8_t> touched(num_ranks(), 0);
    for (const std::uint32_t id : dpu_ids) touched[rank_of(id)] = 1;
    for (std::uint32_t r = 0; r < touched.size(); ++r) {
      if (!touched[r] || !fault_plan_->rank_outage(step, r)) continue;
      const std::uint32_t lo = r * config_.dpus_per_rank;
      const std::uint32_t hi = std::min(num_dpus(), lo + config_.dpus_per_rank);
      bool newly_dead = false;
      for (std::uint32_t d = lo; d < hi; ++d) {
        if (dead_[d]) continue;
        dead_[d] = 1;
        ++fault_counters_.dead_dpus;
        newly_dead = true;
      }
      if (newly_dead) ++fault_counters_.rank_outages;
    }
  }
  std::vector<std::uint32_t> run;
  run.reserve(dpu_ids.size());
  for (const std::uint32_t id : dpu_ids) {
    if (id >= num_dpus()) {
      throw std::invalid_argument("PimSystem::launch_checked: bad DPU id");
    }
    if (fault_plan_ != nullptr) {
      if (dead_[id]) {
        report.dead.push_back(id);
        continue;
      }
      if (fault_plan_->launch_permanent(step, id)) {
        dead_[id] = 1;
        ++fault_counters_.dead_dpus;
        report.dead.push_back(id);
        continue;
      }
      if (fault_plan_->launch_transient(step, id)) {
        ++fault_counters_.launch_transients;
        report.transient.push_back(id);
        continue;
      }
    }
    report.ok.push_back(id);
    run.push_back(id);
  }
  // Execute only the surviving banks — a faulted bank's device state is
  // never touched, so a retry on a later step replays the identical input.
  std::vector<double> before(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    before[i] = dpus_[run[i]]->cycles();
  }
  pool_->parallel_for(run.size(), [&](std::size_t i) {
    dpus_[run[i]]->wram().reset();
    kernel(*dpus_[run[i]]);
  });
  // Completion uses absolute rank indices so the boot-skew model matches
  // launch() even when early ranks have nothing to run.
  std::vector<double> rank_max(num_ranks(), -1.0);
  for (std::size_t i = 0; i < run.size(); ++i) {
    double& m = rank_max[rank_of(run[i])];
    m = std::max(m, dpus_[run[i]]->cycles() - before[i]);
  }
  double completion_s = 0.0;
  for (std::uint32_t r = 0; r < rank_max.size(); ++r) {
    if (rank_max[r] < 0.0) continue;
    completion_s = std::max(completion_s,
                            r * config_.launch_skew_per_rank_s +
                                config_.cycles_to_seconds(rank_max[r]));
  }
  times_.*phase += config_.launch_overhead_s + completion_s;
  return report;
}

void PimSystem::charge_host(double seconds, double PhaseTimes::* phase) {
  times_.*phase += seconds;
}

void PimSystem::launch(const std::function<void(Dpu&)>& kernel,
                       double PhaseTimes::* phase) {
  launch_on(num_dpus(), kernel, phase);
}

void PimSystem::launch_on(std::uint32_t count,
                          const std::function<void(Dpu&)>& kernel,
                          double PhaseTimes::* phase) {
  if (count > num_dpus()) {
    throw std::invalid_argument("PimSystem::launch_on: count > num_dpus");
  }
  // Snapshot cycle counters so the kernel's cost is measured in isolation.
  std::vector<double> before(count);
  for (std::uint32_t i = 0; i < count; ++i) before[i] = dpus_[i]->cycles();

  pool_->parallel_for(count, [&](std::size_t i) {
    dpus_[i]->wram().reset();
    kernel(*dpus_[i]);
  });

  // Ranks boot sequentially: rank r's kernels start r * launch_skew later,
  // so the launch completes when the last rank's slowest DPU does.  This is
  // what makes placement matter to count time — a heavy core in a late rank
  // gates the whole launch, while the same core in rank 0 hides the skew.
  double completion_s = 0.0;
  std::uint32_t rank = 0;
  for (std::uint32_t lo = 0; lo < count; lo += config_.dpus_per_rank, ++rank) {
    const std::uint32_t hi = std::min(count, lo + config_.dpus_per_rank);
    double rank_max = 0.0;
    for (std::uint32_t i = lo; i < hi; ++i) {
      rank_max = std::max(rank_max, dpus_[i]->cycles() - before[i]);
    }
    completion_s = std::max(completion_s,
                            rank * config_.launch_skew_per_rank_s +
                                config_.cycles_to_seconds(rank_max));
  }
  times_.*phase += config_.launch_overhead_s + completion_s;
}

std::uint64_t PimSystem::total_mram_high_water() const noexcept {
  std::uint64_t total = 0;
  for (const auto& d : dpus_) total += d->mram().high_water();
  return total;
}

}  // namespace pimtc::pim
