#include "pim/system.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/math_util.hpp"

namespace pimtc::pim {

PimSystem::PimSystem(const PimSystemConfig& config, std::uint32_t num_dpus,
                     ThreadPool* pool, FaultPlan faults)
    : config_(config),
      pool_(pool ? pool : &ThreadPool::global()),
      fault_plan_(faults),
      dead_(num_dpus, 0) {
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
  if (fault_plan_.armed()) {
    // XXH64 over the payload on both ends of the wire — the detection cost
    // of checksummed transfers.
    const double detect_s = static_cast<double>(payload) / kChecksumBytesPerS;
    seconds += detect_s;
    fault_stats_.checksum_bytes += payload;
    fault_stats_.detection_s += detect_s;
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

namespace {

// The direction-specific halves of a bulk transfer.  A push copies
// host->MRAM, so a wire corruption lands flipped in MRAM; a pull copies
// MRAM->host, so it lands in the host buffer (the MRAM copy stays intact).
void copy_span(Dpu& dpu, const ScatterSpan& s) {
  dpu.mram().write(s.mram_offset, s.src, static_cast<std::size_t>(s.bytes));
}
void copy_span(Dpu& dpu, const GatherSpan& s) {
  dpu.mram().read(s.mram_offset, s.dst, static_cast<std::size_t>(s.bytes));
}
void flip_bit(Dpu& dpu, const ScatterSpan& s, std::uint64_t bit) {
  std::uint8_t byte = 0;
  dpu.mram().read(s.mram_offset + bit / 8, &byte, 1);
  byte = static_cast<std::uint8_t>(byte ^ (1u << (bit % 8)));
  dpu.mram().write(s.mram_offset + bit / 8, &byte, 1);
}
void flip_bit(Dpu& /*dpu*/, const GatherSpan& s, std::uint64_t bit) {
  auto* byte = static_cast<std::uint8_t*>(s.dst) + bit / 8;
  *byte = static_cast<std::uint8_t>(*byte ^ (1u << (bit % 8)));
}

}  // namespace

// Single-bit wire corruption is drawn per span after the transfer.  The
// checksums always catch the mismatch and the hit spans are moved again
// (each repair round is charged and redrawn, so a repair can itself be
// hit).  The round cap only matters at corruption rates near 1.0 — the last
// repair is then taken as delivered.
template <typename Span>
double PimSystem::transfer(std::span<const Span> spans,
                           double PhaseTimes::* phase) {
  constexpr bool kPush = std::is_same_v<Span, ScatterSpan>;
  if (spans.size() != num_dpus()) {
    throw std::invalid_argument(kPush ? "PimSystem::scatter: one span per DPU"
                                      : "PimSystem::gather: one span per DPU");
  }
  std::vector<std::uint64_t> bytes(spans.size());
  for (std::uint32_t d = 0; d < num_dpus(); ++d) {
    bytes[d] = spans[d].bytes;
    if (bytes[d] > 0) copy_span(*dpus_[d], spans[d]);
  }
  const double seconds = charge_bulk(bytes, kPush, phase);
  if (fault_plan_.spec().transfer_corrupt <= 0.0) return seconds;

  constexpr std::uint32_t kMaxRepairRounds = 8;
  double repair_s = 0.0;
  std::vector<std::uint64_t> redo(spans.size());
  for (std::uint32_t round = 0; round < kMaxRepairRounds; ++round) {
    const std::uint64_t step = fault_step_++;
    std::fill(redo.begin(), redo.end(), 0);
    bool any = false;
    for (std::uint32_t d = 0; d < num_dpus(); ++d) {
      if (bytes[d] == 0 || !fault_plan_.transfer_corrupt(step, d)) continue;
      flip_bit(*dpus_[d], spans[d],
               fault_plan_.corrupt_bit(step, d, spans[d].bytes * 8));
      ++fault_stats_.transfer_corruptions;
      redo[d] = spans[d].bytes;
      any = true;
    }
    if (!any) break;
    for (std::uint32_t d = 0; d < num_dpus(); ++d) {
      if (redo[d] == 0) continue;
      copy_span(*dpus_[d], spans[d]);
      ++fault_stats_.transfer_retries;
    }
    repair_s += charge_bulk(redo, kPush, phase);
    bytes.swap(redo);  // only the repaired spans can be hit again
  }
  return seconds + repair_s;
}

double PimSystem::scatter(std::span<const ScatterSpan> spans,
                          double PhaseTimes::* phase) {
  return transfer(spans, phase);
}

double PimSystem::gather(std::span<const GatherSpan> spans,
                         double PhaseTimes::* phase) {
  return transfer(spans, phase);
}

std::uint32_t PimSystem::dead_dpu_count() const noexcept {
  std::uint32_t n = 0;
  for (const std::uint8_t d : dead_) n += d;
  return n;
}

PimSystem::LaunchReport PimSystem::launch(
    std::span<const std::uint32_t> dpu_ids,
    const std::function<void(Dpu&)>& kernel, double PhaseTimes::* phase) {
  for (const std::uint32_t id : dpu_ids) {
    if (id >= num_dpus()) {
      throw std::invalid_argument("PimSystem::launch: DPU id " +
                                  std::to_string(id) + " out of range");
    }
  }
  LaunchReport report;
  if (dpu_ids.empty()) return report;
  const std::uint64_t step = fault_step_++;
  std::vector<std::uint32_t> run;
  run.reserve(dpu_ids.size());
  for (const std::uint32_t id : dpu_ids) {
    if (dead_[id]) {
      report.dead.push_back(id);
    } else if (fault_plan_.launch_permanent(step, id)) {
      dead_[id] = 1;
      ++fault_stats_.dead_dpus;
      report.dead.push_back(id);
    } else if (fault_plan_.launch_transient(step, id)) {
      ++fault_stats_.launch_transients;
      report.transient.push_back(id);
    } else {
      report.ok.push_back(id);
      run.push_back(id);
    }
  }
  // Execute only the surviving banks — a faulted bank's device state is
  // never touched, so a retry on a later step replays the identical input.
  // Cycle counters are snapshot so each kernel's cost is measured alone.
  std::vector<double> before(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    before[i] = dpus_[run[i]]->cycles();
  }
  // One task per pool worker, each claiming the next bank from a shared
  // counter: a slow bank then holds up only its own worker, where fixed
  // blocks of banks would leave the rest of a slow block waiting behind it.
  std::atomic<std::size_t> next{0};
  pool_->parallel_for(std::min(run.size(), pool_->size()), [&](std::size_t) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < run.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      dpus_[run[i]]->wram().reset();
      kernel(*dpus_[run[i]]);
    }
  });
  // Ranks boot sequentially: rank r's kernels start r * launch_skew later,
  // so the launch completes when the last rank's slowest DPU does.  This is
  // what makes placement matter to count time — a heavy core in a late rank
  // gates the whole launch, while the same core in rank 0 hides the skew.
  // Absolute rank indices keep that true when early ranks run nothing.
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

}  // namespace pimtc::pim
