// Tests for the partition planner: auto color selection, placement
// policies, the placement-invariance property of the estimator, and the
// runtime rebalancing path (sample migration between banks).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/math_util.hpp"
#include "common/prng.hpp"
#include "coloring/partition_plan.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
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
      EXPECT_TRUE(is_bijection(PartitionPlan(colors, policy, 8)))
          << to_string(policy) << " C=" << colors;
    }
  }
}

TEST(PartitionPlanTest, KindInterleavePacksEqualKindsIntoRanks) {
  // Kind-major order: ranks hold same-expected-load cores, so a scatter
  // proportional to the kind weights pads (near-)nothing, while identity
  // order mixes N with 6N in the same rank.
  const PartitionPlan kind(8, PlacementPolicy::kKindInterleave, 8);
  const PartitionPlan identity(8, PlacementPolicy::kIdentity, 8);
  std::vector<std::uint64_t> bytes(kind.num_dpus());
  for (std::uint32_t t = 0; t < kind.num_dpus(); ++t) {
    bytes[t] = 1000ull * PartitionPlan::kind_weight(kind.table().triplet(t).kind());
  }
  EXPECT_LT(kind.padded_wire_bytes(bytes), identity.padded_wire_bytes(bytes));
  // Perfect packing except at kind-group boundaries: wire within 1.5x of
  // payload for the kind plan.
  const std::uint64_t payload =
      std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0});
  EXPECT_LT(static_cast<double>(kind.padded_wire_bytes(bytes)),
            1.5 * static_cast<double>(payload));
}

TEST(PartitionPlanTest, BalancedPlacementIsLoadSortedAndDeterministic) {
  const PartitionPlan plan(5, PlacementPolicy::kGreedyBalance, 4);
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
  PartitionPlan plan(3, PlacementPolicy::kIdentity, 4);
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

TEST(PlacementInvarianceTest, EstimateSurvivesArbitraryPermutationMidStream) {
  graph::EdgeList g = graph::gen::barabasi_albert(1500, 5, 41);
  graph::gen::add_hubs(g, 1, 400, 42);
  graph::preprocess(g, 43);
  const auto edges = g.edges();

  tc::PimTriangleCounter baseline(stress_config(21));
  const double expected = run_stream(baseline, edges);

  // Same stream, but a seeded random permutation is installed (and the
  // resident samples migrated) between the batches.
  engine::EngineConfig cfg = stress_config(21);
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(edges.subspan(0, edges.size() / 3));
  counter.add_edges(
      edges.subspan(edges.size() / 3, edges.size() / 3));

  std::vector<std::uint32_t> perm(counter.plan().num_dpus());
  std::iota(perm.begin(), perm.end(), 0u);
  Xoshiro256ss rng(99);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  EXPECT_TRUE(counter.migrate_to(perm));
  EXPECT_EQ(counter.rebalances(), 1u);

  counter.add_edges(edges.subspan(2 * (edges.size() / 3)));
  EXPECT_EQ(counter.recount().estimate, expected);
}

TEST(PlacementInvarianceTest, RebalanceKeepsEstimateAndExactness) {
  graph::EdgeList g = graph::gen::barabasi_albert(1200, 6, 51);
  graph::gen::add_hubs(g, 2, 400, 52);
  graph::preprocess(g, 53);
  const TriangleCount truth = graph::reference_triangle_count(g);
  const auto edges = g.edges();
  const std::size_t half = edges.size() / 2;

  graph::EdgeList first_half;
  first_half.append(edges.subspan(0, half));

  engine::EngineConfig cfg = small_config(4);
  cfg.seed = 5;
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(edges.subspan(0, half));
  EXPECT_EQ(counter.recount().rounded(),
            graph::reference_triangle_count(first_half));
  counter.rebalance();
  counter.add_edges(edges.subspan(half));
  const engine::CountReport r = counter.recount();
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.rounded(), truth);
}

TEST(PlacementInvarianceTest, RebalanceUnderReservoirOverflow) {
  graph::EdgeList g = graph::gen::community(1500, 40, 0.5, 1200, 61);
  graph::preprocess(g, 62);
  const auto edges = g.edges();
  const std::size_t half = edges.size() / 2;

  const auto run = [&](bool rebalance_mid_stream) {
    tc::PimTriangleCounter counter(stress_config(77));
    counter.add_edges(edges.subspan(0, half));
    if (rebalance_mid_stream) counter.rebalance();
    counter.add_edges(edges.subspan(half));
    return counter.recount();
  };
  const engine::CountReport plain = run(false);
  const engine::CountReport rebalanced = run(true);
  EXPECT_GT(plain.reservoir_overflows, 0u);
  EXPECT_EQ(plain.estimate, rebalanced.estimate);
}

// ---- migration mechanics ----------------------------------------------------

TEST(RebalanceTest, MigrationMovesSamplesWithModeledTransfers) {
  graph::EdgeList g = graph::gen::barabasi_albert(1500, 5, 71);
  graph::gen::add_hubs(g, 1, 500, 72);
  graph::preprocess(g, 73);

  engine::EngineConfig cfg = small_config(4);
  cfg.seed = 9;
  cfg.placement = PlacementPolicy::kIdentity;
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(g.edges());
  const pim::TransferStats before = counter.system().transfer_stats();

  ASSERT_TRUE(counter.rebalance());
  const pim::TransferStats after = counter.system().transfer_stats();
  // One gather (pull) of the moved samples, one scatter (push) to the new
  // banks — both modeled.
  EXPECT_EQ(after.pull_transfers, before.pull_transfers + 1);
  EXPECT_EQ(after.push_transfers, before.push_transfers + 1);
  EXPECT_GT(after.pull_payload_bytes, before.pull_payload_bytes);

  // Idempotent: the plan is already load-sorted, nothing moves again.
  EXPECT_FALSE(counter.rebalance());
  EXPECT_EQ(counter.rebalances(), 1u);
}

TEST(RebalanceTest, AutoRebalanceTriggersOnImbalanceAndCountsStayExact) {
  graph::EdgeList g = graph::gen::barabasi_albert(1500, 5, 81);
  graph::gen::add_hubs(g, 2, 500, 82);
  graph::preprocess(g, 83);
  const TriangleCount truth = graph::reference_triangle_count(g);

  engine::EngineConfig cfg = small_config(4);
  cfg.seed = 3;
  cfg.rebalance_enabled = true;
  tc::PimTriangleCounter counter(cfg);
  const engine::CountReport r = counter.count(g);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.rounded(), truth);
  EXPECT_GE(r.rebalances, 1u);
  // A second recount must not thrash: placement is already balanced.
  const engine::CountReport again = counter.recount();
  EXPECT_EQ(again.rebalances, r.rebalances);
  EXPECT_EQ(again.rounded(), truth);
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
