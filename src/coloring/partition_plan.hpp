// PartitionPlan: the placement layer between color triplets and physical
// PIM cores (DPUs).
//
// The triplet table fixes *what* each core computes; the plan decides
// *where* each triplet runs.  That mapping is pure bookkeeping for the
// estimator — per-triplet reservoirs, corrections and seeds are all keyed
// by triplet index, so the estimate is bit-identical under any placement —
// but it shapes the timing model twice:
//
//  * scatter padding: the rank-parallel transfer engine pads every DPU of a
//    rank to the slowest (largest) span, so ranks mixing light kind-1
//    triplets (expected load N) with heavy kind-3 triplets (6N) move up to
//    6x the payload on the wire.  Packing similar loads into the same rank
//    shrinks the wire/payload gap toward 1.
//  * launch skew: the host boots ranks one after another, so a heavy core
//    in a late rank finishes latest.  Placing heavy triplets in the ranks
//    booted first hides the skew under their longer kernels.
//
// Three policies:
//   identity        triplet i runs on DPU i (the legacy layout),
//   kind_interleave kind-major static order — ranks are filled kind by
//                   kind so equal-expected-load cores share a rank,
//   greedy_balance  LPT packing by *observed* per-triplet load: the first
//                   non-empty batch sorts triplets by measured load,
//                   heaviest first, and chunks the sorted order into ranks.
//
// The engine fixes the placement before any sample is resident; only fault
// recovery moves a triplet afterwards, to a spare bank.
//
// The plan also owns auto color selection: num_colors == 0 derives the
// largest C with binom(C+2, 3) <= max_dpus, so the default machine is
// actually filled (2560 DPUs -> C = 23 -> 2300 cores) instead of idling on
// a hand-picked small C.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coloring/triplets.hpp"

namespace pimtc::color {

enum class PlacementPolicy : std::uint8_t {
  kIdentity,
  kKindInterleave,
  kGreedyBalance,
};

[[nodiscard]] const char* to_string(PlacementPolicy policy) noexcept;

/// Parses "identity" | "kind_interleave"/"kind" | "greedy_balance"/"greedy";
/// throws std::invalid_argument for anything else.
[[nodiscard]] PlacementPolicy placement_from_string(const std::string& name);

class PartitionPlan {
 public:
  /// Builds the plan for `num_colors` colors (must be >= 1; resolve 0 via
  /// auto_colors() first).
  PartitionPlan(std::uint32_t num_colors, PlacementPolicy policy);

  /// Largest C whose binom(C+2, 3) triplets fit `max_dpus` cores, capped at
  /// the triplet table's 256-color limit.  Returns 0 when not even C = 1
  /// fits (machine smaller than one core).
  [[nodiscard]] static std::uint32_t auto_colors(std::uint64_t max_dpus) noexcept;

  /// Expected relative load of a triplet kind (1 / 2 / 3 distinct colors
  /// see N / 3N / 6N edges for N = |E| / C^2).
  [[nodiscard]] static constexpr std::uint32_t kind_weight(
      std::uint32_t kind) noexcept {
    return kind == 1 ? 1 : kind == 2 ? 3 : 6;
  }

  /// max(load) / mean(load); 1.0 for empty or all-zero loads.  The count
  /// phase is gated by the max, so this is the headroom a perfectly uniform
  /// partition would recover.
  [[nodiscard]] static double load_imbalance(
      std::span<const std::uint64_t> loads) noexcept;

  /// triplet_of() for a spare bank that currently hosts no triplet.
  static constexpr std::uint32_t kNoTriplet = 0xffffffffu;

  [[nodiscard]] const TripletTable& table() const noexcept { return table_; }
  [[nodiscard]] std::uint32_t num_colors() const noexcept {
    return table_.num_colors();
  }
  [[nodiscard]] std::uint32_t num_triplets() const noexcept {
    return table_.num_triplets();
  }
  /// Physical banks the plan spans: one per triplet plus any spares.  This
  /// is the allocation size for PimSystem — spares idle until a fault
  /// migration targets them.
  [[nodiscard]] std::uint32_t num_dpus() const noexcept {
    return table_.num_triplets() + spare_banks_;
  }
  [[nodiscard]] std::uint32_t spare_banks() const noexcept {
    return spare_banks_;
  }

  /// Reserves `n` extra banks beyond the triplet count as migration targets
  /// for fault recovery.  Call before the PimSystem is sized; spares start
  /// unassigned (triplet_of() == kNoTriplet).
  void add_spare_banks(std::uint32_t n);
  [[nodiscard]] PlacementPolicy policy() const noexcept { return policy_; }

  /// Physical DPU executing triplet `t` (an injection of [0, num_triplets())
  /// into [0, num_dpus()); a bijection when there are no spares), and its
  /// inverse (kNoTriplet for an unassigned spare bank).
  [[nodiscard]] std::uint32_t dpu_of(std::uint32_t triplet) const noexcept {
    return dpu_of_[triplet];
  }
  [[nodiscard]] std::uint32_t triplet_of(std::uint32_t dpu) const noexcept {
    return triplet_of_[dpu];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& placement() const noexcept {
    return dpu_of_;
  }

  /// LPT placement for the given per-triplet loads: triplets sorted by load
  /// descending (ties by triplet index, so the result is deterministic) and
  /// chunked into ranks in that order — similar loads share a rank and the
  /// heaviest rank boots first.
  [[nodiscard]] std::vector<std::uint32_t> balanced_placement(
      std::span<const std::uint64_t> per_triplet_load) const;

  /// Installs an explicit triplet->DPU map (validated injection into
  /// [0, num_dpus()); throws std::invalid_argument otherwise).  It moves no
  /// device state: tc::PimTriangleCounter installs greedy_balance's plan
  /// before any sample is resident, and fault recovery restores a moved
  /// triplet's sample on its spare from the host mirror.
  void set_placement(std::span<const std::uint32_t> dpu_of_triplet);

 private:
  TripletTable table_;
  PlacementPolicy policy_;
  std::uint32_t spare_banks_ = 0;
  std::vector<std::uint32_t> dpu_of_;      // triplet -> DPU
  std::vector<std::uint32_t> triplet_of_;  // DPU -> triplet (or kNoTriplet)
};

}  // namespace pimtc::color
