// Deterministic fault injection for the simulated PIM runtime.
//
// Real UPMEM deployments see DPU launch failures (transient and permanent)
// and corrupted dpu_push_xfer transfers; TCIM-style in-MRAM residency
// additionally motivates modeling bit errors on the resident samples.  The
// simulator models a perfect machine by default (a default-constructed
// FaultPlan) — this header is the switch that makes it imperfect
// *reproducibly*:
//
//   FaultSpec   the parsed `--inject-faults=` / EngineConfig.fault_spec
//               string: per-event rates, the fault-stream seed and the
//               recovery policy,
//   FaultPlan   a stateless oracle over the spec: every event is a pure
//               function of (seed, event kind, step index, unit index)
//               hashed through mix64, so two runs with the same spec see
//               byte-identical fault sequences regardless of thread
//               interleaving — and a retry (a later step) gets a fresh,
//               equally deterministic draw.
//
// "Steps" advance at the serial points of the runtime (each bulk transfer
// and each kernel launch bumps PimSystem's step counter; each recount bumps
// the counter-level epoch used for MRAM bit flips), which is what makes the
// draws reproducible.  FaultStats is the session's one fault ledger: the
// PimSystem holds it and the counting host adds its recoveries to it.
//
// See DESIGN.md "Fault model & recovery".
#pragma once

#include <cstdint>
#include <string>

#include "common/hash.hpp"

namespace pimtc::pim {

struct FaultSpec {
  /// How the counting host reacts to an unusable bank:
  ///   kRetry          transient faults are retried with backoff; a dead
  ///                   bank drops its triplet (degraded estimate),
  ///   kRematerialize  retry, then restore the dead bank's sample from the
  ///                   host mirror onto a spare DPU (full fidelity); only
  ///                   spare exhaustion degrades,
  ///   kDegrade        never retry or migrate: any fault drops the triplet.
  enum class Recovery : std::uint8_t { kRetry, kRematerialize, kDegrade };

  /// Seed of the fault stream — independent of the estimator seed, so the
  /// same workload can be replayed under many fault sequences.
  std::uint64_t seed = 1;

  /// Per-launch, per-DPU probability the launch fails but the DPU survives.
  double launch_transient = 0.0;
  /// Per-launch, per-DPU probability the DPU dies permanently.
  double launch_permanent = 0.0;
  /// Per-transfer, per-DPU probability a bulk scatter/gather span is hit by
  /// a single-bit wire corruption.
  double transfer_corrupt = 0.0;
  /// Per-recount, per-triplet probability of one bit flip in the resident
  /// MRAM sample.
  double mram_bitflip = 0.0;

  Recovery recovery = Recovery::kRematerialize;
  /// Spare DPUs allocated beyond the triplet count for re-materialization
  /// (clamped to the machine's max_dpus; kRematerialize only).
  std::uint32_t spare_banks = 16;

  /// Parses "key=value,key=value,..." (keys: seed, launch-transient,
  /// launch-permanent, corrupt, bitflip, recovery=retry|rematerialize|degrade,
  /// spares).  Throws std::invalid_argument naming the offending key.  An
  /// empty string is "injection off" and is rejected here — callers gate on
  /// emptiness before parsing.
  [[nodiscard]] static FaultSpec parse(const std::string& spec);
};

/// Transient launch failures are retried at most this many times (not at
/// all under kDegrade) before the bank counts as unusable.
inline constexpr std::uint32_t kMaxLaunchRetries = 3;
/// First retry backoff, doubling per attempt, charged to the count phase.
inline constexpr double kFirstBackoffS = 50e-6;
/// Modeled XXH64 compute+verify rate of the transfer checksums and the
/// resident-sample scrub (10 GB/s).
inline constexpr double kChecksumBytesPerS = 10e9;

/// The fault ledger of one counting session, cumulative since its
/// PimSystem was built: the machine counts launch faults, wire corruptions
/// and checksummed bytes, and the counting host adds its recoveries.
/// Surfaced through CountReport::faults (CLI text + JSON, serve stats),
/// where the host also fills in the estimate's health (the first four
/// fields and dropped_triplets).
struct FaultStats {
  bool injected = false;   ///< a fault plan was active
  bool degraded = false;   ///< triplets were lost; the estimate is reweighted
  double coverage = 1.0;   ///< surviving-triplet weight fraction (kind-weighted)
  double error_bound = 0.0;  ///< widened relative error bound (degraded only)

  std::uint64_t launch_transients = 0;
  std::uint64_t launch_retries = 0;  ///< bank launches retried after backoff
  std::uint64_t dead_dpus = 0;
  std::uint64_t rematerializations = 0;  ///< dead banks restored onto spares
  std::uint64_t dropped_triplets = 0;    ///< lost contributions (degraded)
  std::uint64_t transfer_corruptions = 0;
  std::uint64_t transfer_retries = 0;
  std::uint64_t mram_bitflips = 0;
  std::uint64_t sample_restores = 0;  ///< bit-flipped samples scrubbed in place
  std::uint64_t checksum_bytes = 0;
  double detection_s = 0.0;  ///< modeled checksum/scrub seconds
  double recovery_s = 0.0;   ///< modeled backoff + restore-transfer seconds
};

/// Stateless deterministic fault oracle.  Every query hashes
/// (seed, kind, step, unit) through mix64 and compares the unit draw to the
/// configured rate; no internal state, so call order cannot perturb it.
class FaultPlan {
 public:
  /// The perfect machine, which every PimSystem holds unless given a spec:
  /// all rates zero (no draw ever fires) and unarmed (no detection cost is
  /// charged).
  FaultPlan() noexcept = default;
  /// An armed plan: it checksums every bulk transfer, and charges that at
  /// kChecksumBytesPerS even when all rates are zero.
  explicit FaultPlan(FaultSpec spec) noexcept : spec_(spec), armed_(true) {}

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  [[nodiscard]] bool launch_transient(std::uint64_t step,
                                      std::uint32_t dpu) const noexcept {
    return fire(kLaunchTransient, step, dpu, spec_.launch_transient);
  }
  [[nodiscard]] bool launch_permanent(std::uint64_t step,
                                      std::uint32_t dpu) const noexcept {
    return fire(kLaunchPermanent, step, dpu, spec_.launch_permanent);
  }
  [[nodiscard]] bool transfer_corrupt(std::uint64_t step,
                                      std::uint32_t dpu) const noexcept {
    return fire(kTransferCorrupt, step, dpu, spec_.transfer_corrupt);
  }
  /// Per-recount-epoch resident-sample bit flip for triplet `unit`.
  [[nodiscard]] bool mram_bitflip(std::uint64_t epoch,
                                  std::uint32_t unit) const noexcept {
    return fire(kMramBitflip, epoch, unit, spec_.mram_bitflip);
  }
  /// Which bit of a `span_bits`-bit payload the corruption flips (the same
  /// (step, unit) always flips the same bit).
  [[nodiscard]] std::uint64_t corrupt_bit(std::uint64_t step,
                                          std::uint32_t unit,
                                          std::uint64_t span_bits) const noexcept {
    if (span_bits == 0) return 0;
    return draw(kCorruptBit, step, unit) % span_bits;
  }

 private:
  // The values seed the draws: renumbering a kind changes its fault stream.
  enum Kind : std::uint64_t {
    kLaunchTransient = 1,
    kLaunchPermanent = 2,
    kTransferCorrupt = 4,
    kMramBitflip = 5,
    kCorruptBit = 6,
  };

  [[nodiscard]] std::uint64_t draw(std::uint64_t kind, std::uint64_t step,
                                   std::uint64_t unit) const noexcept {
    std::uint64_t h = spec_.seed ^ (kind * 0x9e3779b97f4a7c15ull);
    h = mix64(h ^ step);
    h = mix64(h ^ (unit * 0xbf58476d1ce4e5b9ull));
    return mix64(h);
  }
  [[nodiscard]] bool fire(std::uint64_t kind, std::uint64_t step,
                          std::uint64_t unit, double rate) const noexcept {
    if (rate <= 0.0) return false;
    // Top 53 bits -> a uniform draw in [0, 1).
    const double u =
        static_cast<double>(draw(kind, step, unit) >> 11) * 0x1.0p-53;
    return u < rate;
  }

  FaultSpec spec_;
  bool armed_ = false;
};

}  // namespace pimtc::pim
