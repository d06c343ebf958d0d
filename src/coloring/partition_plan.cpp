#include "coloring/partition_plan.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/math_util.hpp"

namespace pimtc::color {

namespace {
/// TripletTable's hard limit; auto selection must not propose more.
constexpr std::uint32_t kMaxColors = 256;
}  // namespace

const char* to_string(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kIdentity:
      return "identity";
    case PlacementPolicy::kKindInterleave:
      return "kind_interleave";
    case PlacementPolicy::kGreedyBalance:
      return "greedy_balance";
  }
  return "?";
}

PlacementPolicy placement_from_string(const std::string& name) {
  if (name == "identity") return PlacementPolicy::kIdentity;
  if (name == "kind_interleave" || name == "kind") {
    return PlacementPolicy::kKindInterleave;
  }
  if (name == "greedy_balance" || name == "greedy") {
    return PlacementPolicy::kGreedyBalance;
  }
  throw std::invalid_argument(
      "placement policy '" + name +
      "' unknown (identity | kind_interleave | greedy_balance)");
}

std::uint32_t PartitionPlan::auto_colors(std::uint64_t max_dpus) noexcept {
  return std::min(max_colors_for_cores(max_dpus), kMaxColors);
}

double PartitionPlan::load_imbalance(
    std::span<const std::uint64_t> loads) noexcept {
  if (loads.empty()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (const std::uint64_t l : loads) {
    total += l;
    max = std::max(max, l);
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(loads.size());
  return static_cast<double>(max) / mean;
}

PartitionPlan::PartitionPlan(std::uint32_t num_colors, PlacementPolicy policy)
    : table_(num_colors), policy_(policy) {
  const std::uint32_t n = table_.num_triplets();
  dpu_of_.resize(n);
  triplet_of_.resize(n);
  if (policy_ == PlacementPolicy::kIdentity) {
    std::iota(dpu_of_.begin(), dpu_of_.end(), 0u);
    std::iota(triplet_of_.begin(), triplet_of_.end(), 0u);
    return;
  }
  // Both load-aware policies start from the static expected-load order;
  // greedy_balance re-plans once from the first batch's observed loads.
  std::vector<std::uint64_t> weights(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    weights[t] = kind_weight(table_.triplet(t).kind());
  }
  set_placement(balanced_placement(weights));
}

void PartitionPlan::add_spare_banks(std::uint32_t n) {
  spare_banks_ += n;
  triplet_of_.resize(num_dpus(), kNoTriplet);
}

std::vector<std::uint32_t> PartitionPlan::balanced_placement(
    std::span<const std::uint64_t> per_triplet_load) const {
  // LPT only ever targets the first num_triplets() banks; spares are
  // reserved for fault migrations and never receive planned load.
  const std::uint32_t n = num_triplets();
  if (per_triplet_load.size() != n) {
    throw std::invalid_argument(
        "PartitionPlan: balanced_placement needs one load per triplet");
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (per_triplet_load[a] != per_triplet_load[b]) {
                return per_triplet_load[a] > per_triplet_load[b];
              }
              return a < b;
            });
  std::vector<std::uint32_t> dpu_of(n);
  for (std::uint32_t d = 0; d < n; ++d) dpu_of[order[d]] = d;
  return dpu_of;
}

void PartitionPlan::set_placement(
    std::span<const std::uint32_t> dpu_of_triplet) {
  const std::uint32_t n = num_triplets();
  const std::uint32_t banks = num_dpus();
  if (dpu_of_triplet.size() != n) {
    throw std::invalid_argument(
        "PartitionPlan: placement needs one DPU per triplet");
  }
  std::vector<std::uint32_t> inverse(banks, kNoTriplet);
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint32_t d = dpu_of_triplet[t];
    if (d >= banks || inverse[d] != kNoTriplet) {
      throw std::invalid_argument(
          "PartitionPlan: placement must map triplets one-to-one into "
          "[0, num_dpus)");
    }
    inverse[d] = t;
  }
  dpu_of_.assign(dpu_of_triplet.begin(), dpu_of_triplet.end());
  triplet_of_ = std::move(inverse);
}

}  // namespace pimtc::color
