// Tests for the partition planner: auto color selection, placement
// policies, the placement-invariance property of the estimator, and the
// placement's effect on the timing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/math_util.hpp"
#include "common/prng.hpp"
#include "coloring/partition_plan.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "tc/host.hpp"

namespace pimtc::color {
namespace {

// ---- auto color selection ---------------------------------------------------

TEST(AutoColorTest, FillsThePaperMachine) {
  // binom(25, 3) = 2300 <= 2560 < binom(26, 3) = 2600: the default machine
  // takes C = 23 and runs ~90% of its DPUs instead of the old 20/2560.
  EXPECT_EQ(PartitionPlan::auto_colors(2560), 23u);
  EXPECT_GE(static_cast<double>(num_triplets(23)) / 2560.0, 0.89);
}

TEST(AutoColorTest, LargestFitAcrossMachineSizes) {
  for (const std::uint64_t dpus : {1ull, 4ull, 10ull, 56ull, 120ull, 2300ull}) {
    const std::uint32_t c = PartitionPlan::auto_colors(dpus);
    EXPECT_LE(num_triplets(c), dpus) << dpus;
    EXPECT_GT(num_triplets(c + 1), dpus) << dpus;
  }
  EXPECT_EQ(PartitionPlan::auto_colors(0), 0u);
}

// ---- placement policies -----------------------------------------------------

bool is_bijection(const PartitionPlan& plan) {
  std::vector<bool> hit(plan.num_dpus(), false);
  for (std::uint32_t t = 0; t < plan.num_dpus(); ++t) {
    const std::uint32_t d = plan.dpu_of(t);
    if (d >= plan.num_dpus() || hit[d]) return false;
    hit[d] = true;
    if (plan.triplet_of(d) != t) return false;
  }
  return true;
}

TEST(PartitionPlanTest, EveryPolicyIsABijection) {
  for (const auto policy :
       {PlacementPolicy::kIdentity, PlacementPolicy::kKindInterleave,
        PlacementPolicy::kGreedyBalance}) {
    for (const std::uint32_t colors : {1u, 3u, 6u, 9u}) {
      EXPECT_TRUE(is_bijection(PartitionPlan(colors, policy)))
          << to_string(policy) << " C=" << colors;
    }
  }
}

TEST(PartitionPlanTest, KindInterleavePacksEqualKindsIntoRanks) {
  // Kind-major order: ranks hold same-expected-load cores, so a scatter
  // proportional to the kind weights pads (near-)nothing, while identity
  // order mixes N with 6N in the same rank.
  constexpr std::uint32_t kDpusPerRank = 8;
  const PartitionPlan kind(8, PlacementPolicy::kKindInterleave);
  const PartitionPlan identity(8, PlacementPolicy::kIdentity);
  std::vector<std::uint64_t> bytes(kind.num_dpus());
  for (std::uint32_t t = 0; t < kind.num_dpus(); ++t) {
    bytes[t] = 1000ull * PartitionPlan::kind_weight(kind.table().triplet(t).kind());
  }
  // One rank-parallel scatter pads every DPU of a rank to its largest span.
  const auto padded_wire = [&](const PartitionPlan& plan) {
    std::vector<std::uint64_t> per_dpu(plan.num_dpus());
    for (std::uint32_t t = 0; t < plan.num_triplets(); ++t) {
      per_dpu[plan.dpu_of(t)] = bytes[t];
    }
    std::uint64_t wire = 0;
    for (std::uint32_t lo = 0; lo < plan.num_dpus(); lo += kDpusPerRank) {
      const std::uint32_t hi = std::min(plan.num_dpus(), lo + kDpusPerRank);
      wire += *std::max_element(per_dpu.begin() + lo, per_dpu.begin() + hi) *
              (hi - lo);
    }
    return wire;
  };
  EXPECT_LT(padded_wire(kind), padded_wire(identity));
  // Perfect packing except at kind-group boundaries: wire within 1.5x of
  // payload for the kind plan.
  const std::uint64_t payload =
      std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0});
  EXPECT_LT(static_cast<double>(padded_wire(kind)),
            1.5 * static_cast<double>(payload));
}

TEST(PartitionPlanTest, BalancedPlacementIsLoadSortedAndDeterministic) {
  const PartitionPlan plan(5, PlacementPolicy::kGreedyBalance);
  std::vector<std::uint64_t> loads(plan.num_dpus());
  Xoshiro256ss rng(7);
  for (auto& l : loads) l = rng.next_below(1000);
  const auto a = plan.balanced_placement(loads);
  const auto b = plan.balanced_placement(loads);
  EXPECT_EQ(a, b);
  // DPU order = descending load.
  std::vector<std::uint64_t> by_dpu(plan.num_dpus());
  for (std::uint32_t t = 0; t < plan.num_dpus(); ++t) by_dpu[a[t]] = loads[t];
  EXPECT_TRUE(std::is_sorted(by_dpu.rbegin(), by_dpu.rend()));
}

TEST(PartitionPlanTest, SetPlacementRejectsNonBijections) {
  PartitionPlan plan(3, PlacementPolicy::kIdentity);
  std::vector<std::uint32_t> dup(plan.num_dpus(), 0);
  EXPECT_THROW(plan.set_placement(dup), std::invalid_argument);
  std::vector<std::uint32_t> short_map(plan.num_dpus() - 1);
  EXPECT_THROW(plan.set_placement(short_map), std::invalid_argument);
}

TEST(PartitionPlanTest, LoadImbalanceDiagnostics) {
  EXPECT_DOUBLE_EQ(PartitionPlan::load_imbalance({}), 1.0);
  const std::vector<std::uint64_t> uniform{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(PartitionPlan::load_imbalance(uniform), 1.0);
  const std::vector<std::uint64_t> skewed{0, 0, 0, 8};
  EXPECT_DOUBLE_EQ(PartitionPlan::load_imbalance(skewed), 4.0);
}

// ---- estimator invariance under placement -----------------------------------

engine::EngineConfig small_config(std::uint32_t colors) {
  engine::EngineConfig cfg;
  cfg.num_colors = colors;
  cfg.pim.mram_bytes = 8ull << 20;
  cfg.pim.dpus_per_rank = 4;  // several ranks even at small C
  return cfg;
}

engine::EngineConfig stress_config(std::uint64_t seed) {
  engine::EngineConfig cfg = small_config(4);
  cfg.seed = seed;
  cfg.uniform_p = 0.6;              // uniform sampler engaged
  cfg.sample_capacity_edges = 500;  // reservoirs overflow (replacements)
  return cfg;
}

double run_stream(tc::PimTriangleCounter& counter,
                  std::span<const Edge> edges) {
  const std::size_t step = edges.size() / 3;
  counter.add_edges(edges.subspan(0, step));
  counter.add_edges(edges.subspan(step, step));
  counter.add_edges(edges.subspan(2 * step));
  return counter.recount().estimate;
}

TEST(PlacementInvarianceTest, EstimateBitIdenticalAcrossPolicies) {
  // Seeded property test: the estimate must not move by a single bit under
  // any placement policy, including with sampling and reservoir overflow.
  graph::EdgeList g = graph::gen::barabasi_albert(2000, 5, 31);
  graph::gen::add_hubs(g, 2, 600, 32);
  graph::preprocess(g, 33);

  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    double identity_estimate = 0.0;
    for (const auto policy :
         {PlacementPolicy::kIdentity, PlacementPolicy::kKindInterleave,
          PlacementPolicy::kGreedyBalance}) {
      engine::EngineConfig cfg = stress_config(seed);
      cfg.placement = policy;
      tc::PimTriangleCounter counter(cfg);
      const double estimate = run_stream(counter, g.edges());
      if (policy == PlacementPolicy::kIdentity) {
        identity_estimate = estimate;
      } else {
        EXPECT_EQ(identity_estimate, estimate)
            << to_string(policy) << " seed " << seed;
      }
    }
  }
}

// ---- timing-model effects ---------------------------------------------------

TEST(PlacementTimingTest, GreedyBalanceShrinksScatterPaddingOnHubGraph) {
  graph::EdgeList g = graph::gen::barabasi_albert(3000, 5, 91);
  graph::gen::add_hubs(g, 3, 900, 92);
  graph::preprocess(g, 93);

  const auto run = [&](PlacementPolicy policy) {
    engine::EngineConfig cfg = small_config(5);
    cfg.seed = 17;
    cfg.placement = policy;
    tc::PimTriangleCounter counter(cfg);
    return counter.count(g);
  };
  const engine::CountReport identity = run(PlacementPolicy::kIdentity);
  const engine::CountReport greedy = run(PlacementPolicy::kGreedyBalance);
  EXPECT_EQ(identity.estimate, greedy.estimate);  // functional parity
  EXPECT_LT(greedy.transfers.push_wire_bytes,
            identity.transfers.push_wire_bytes);
  EXPECT_LT(greedy.transfers.push_padding(), identity.transfers.push_padding());
}

TEST(PlacementTimingTest, KindLoadHistogramFollowsTheN3N6NModel) {
  graph::EdgeList g = graph::gen::erdos_renyi(4000, 40000, 5);
  graph::preprocess(g, 6);
  engine::EngineConfig cfg = small_config(5);
  cfg.seed = 2;
  tc::PimTriangleCounter counter(cfg);
  const engine::CountReport r = counter.count(g);
  // C=5: 5 kind-1, 20 kind-2, 10 kind-3 cores.
  EXPECT_EQ(r.kind_units[0], 5u);
  EXPECT_EQ(r.kind_units[1], 20u);
  EXPECT_EQ(r.kind_units[2], 10u);
  const std::uint64_t total = r.kind_edges_seen[0] + r.kind_edges_seen[1] +
                              r.kind_edges_seen[2];
  EXPECT_EQ(total, r.edges_replicated);
  // Mean per-core load should follow ~N : 3N : 6N.
  const double mean1 = static_cast<double>(r.kind_edges_seen[0]) / 5.0;
  const double mean2 = static_cast<double>(r.kind_edges_seen[1]) / 20.0;
  const double mean3 = static_cast<double>(r.kind_edges_seen[2]) / 10.0;
  EXPECT_NEAR(mean2 / mean1, 3.0, 0.8);
  EXPECT_NEAR(mean3 / mean1, 6.0, 1.5);
  EXPECT_GE(r.load_imbalance, 1.0);
}

}  // namespace
}  // namespace pimtc::color
