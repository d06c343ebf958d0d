// Cross-cutting property tests: invariants that span modules and the
// composed-technique behaviours the paper calls out (e.g. uniform and
// reservoir sampling applied concurrently, Sections 3.2-3.3).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>

#include "common/math_util.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "graph/stats.hpp"
#include "tc/host.hpp"
#include "tc/layout.hpp"

namespace pimtc {
namespace {

engine::EngineConfig small_config(std::uint32_t colors) {
  engine::EngineConfig cfg;
  cfg.num_colors = colors;
  cfg.pim.mram_bytes = 8ull << 20;
  return cfg;
}

// ---- composed sampling ---------------------------------------------------

TEST(ComposedSamplingTest, UniformAndReservoirTogetherStayUnbiased) {
  // Section 3.3: "this technique can be applied concurrently with Uniform
  // Sampling".  Both corrections must compose multiplicatively.
  graph::EdgeList g = graph::gen::community(3000, 60, 0.5, 2000, 7);
  graph::preprocess(g, 8);
  const auto truth = static_cast<double>(graph::reference_triangle_count(g));

  engine::EngineConfig cfg = small_config(3);
  cfg.uniform_p = 0.5;
  cfg.sample_capacity_edges = static_cast<std::uint64_t>(
      0.5 * 0.5 * 6.0 * static_cast<double>(g.num_edges()) / 9.0);

  double sum = 0.0;
  const int trials = 6;
  for (int s = 0; s < trials; ++s) {
    cfg.seed = 4000 + s;
    tc::PimTriangleCounter counter(cfg);
    const engine::CountReport r = counter.count(g);
    EXPECT_FALSE(r.exact);
    sum += r.estimate;
  }
  EXPECT_NEAR(sum / trials, truth, truth * 0.15);
}

// ---- estimate invariance properties ---------------------------------------

class InvarianceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvarianceTest, CountInvariantUnderShuffleAndOrientation) {
  // An exact count must not depend on edge order or edge orientation.
  const std::uint64_t seed = GetParam();
  graph::EdgeList g = graph::gen::rmat(
      11, 6000, graph::gen::RmatParams{0.45, 0.22, 0.22, 0.11}, seed);

  engine::EngineConfig cfg = small_config(4);
  cfg.seed = 7;
  tc::PimTriangleCounter base(cfg);
  const TriangleCount expected = base.count(g).rounded();

  graph::shuffle_edges(g, seed + 1);
  for (Edge& e : g.mutable_edges()) {
    if ((e.u ^ e.v ^ seed) & 1) e = e.reversed();
  }
  tc::PimTriangleCounter other(cfg);
  EXPECT_EQ(other.count(g).rounded(), expected);
  EXPECT_EQ(expected, graph::reference_triangle_count(g));
}

TEST_P(InvarianceTest, CountInvariantUnderColoringSeed) {
  // The coloring hash is random, but exact counts must not depend on it.
  const std::uint64_t seed = GetParam();
  graph::EdgeList g = graph::gen::barabasi_albert(500, 4, seed);
  const TriangleCount expected = graph::reference_triangle_count(g);
  for (std::uint64_t color_seed = 0; color_seed < 3; ++color_seed) {
    engine::EngineConfig cfg = small_config(5);
    cfg.seed = color_seed * 977 + 13;
    tc::PimTriangleCounter counter(cfg);
    EXPECT_EQ(counter.count(g).rounded(), expected)
        << "color seed " << color_seed;
  }
}

TEST_P(InvarianceTest, CountInvariantUnderIdPermutation) {
  // Triangle count is a graph invariant: permuting node ids changes nothing.
  const std::uint64_t seed = GetParam();
  graph::EdgeList g = graph::gen::community(800, 40, 0.5, 500, seed);
  engine::EngineConfig cfg = small_config(3);
  tc::PimTriangleCounter a(cfg);
  const TriangleCount before = a.count(g).rounded();

  graph::gen::permute_ids(g, seed + 99);
  tc::PimTriangleCounter b(cfg);
  EXPECT_EQ(b.count(g).rounded(), before);
}

TEST_P(InvarianceTest, EstimateBitIdenticalUnderIntersectPolicy) {
  // The adaptive intersection moves only modeled work: forcing merge or
  // gallop — with sampling, reservoir overflow and the degree-ordered remap
  // all active — must reproduce the auto estimate bit for bit.
  const std::uint64_t seed = GetParam();
  graph::EdgeList g = graph::gen::barabasi_albert(900, 5, seed);
  graph::gen::add_hubs(g, 2, 200, seed + 1);
  graph::preprocess(g, seed + 2);

  engine::EngineConfig cfg = small_config(3);
  cfg.uniform_p = 0.8;
  cfg.seed = 31 + seed;
  cfg.misra_gries_enabled = true;
  cfg.degree_ordered_remap = true;
  cfg.mg_capacity = 256;
  cfg.sample_capacity_edges = g.num_edges() / 3;  // forces overflow somewhere

  cfg.intersect = tc::IntersectPolicy::kAuto;
  tc::PimTriangleCounter base(cfg);
  const engine::CountReport ref = base.count(g);

  for (const tc::IntersectPolicy policy :
       {tc::IntersectPolicy::kMerge, tc::IntersectPolicy::kGallop}) {
    cfg.intersect = policy;
    tc::PimTriangleCounter counter(cfg);
    const engine::CountReport r = counter.count(g);
    EXPECT_EQ(r.estimate, ref.estimate) << tc::to_string(policy);
    EXPECT_EQ(r.raw_total, ref.raw_total) << tc::to_string(policy);
  }
}

TEST_P(InvarianceTest, IncrementalEstimateBitIdenticalUnderIntersectPolicy) {
  // Same invariant through the dynamic path: streamed batches, persistent
  // sorted arcs, incremental recounts.
  const std::uint64_t seed = GetParam();
  graph::EdgeList g = graph::gen::barabasi_albert(700, 4, seed + 50);
  graph::preprocess(g, seed + 51);
  const auto edges = g.edges();
  const std::size_t half = edges.size() / 2;

  double ref_estimate = -1.0;
  for (const tc::IntersectPolicy policy :
       {tc::IntersectPolicy::kAuto, tc::IntersectPolicy::kMerge,
        tc::IntersectPolicy::kGallop}) {
    engine::EngineConfig cfg = small_config(3);
    cfg.incremental = true;
    cfg.intersect = policy;
    tc::PimTriangleCounter counter(cfg);
    counter.add_edges(edges.subspan(0, half));
    (void)counter.recount();
    counter.add_edges(edges.subspan(half));
    const engine::CountReport r = counter.recount();
    EXPECT_TRUE(r.used_incremental);
    if (ref_estimate < 0.0) {
      ref_estimate = r.estimate;
      EXPECT_EQ(r.rounded(), graph::reference_triangle_count(g));
    } else {
      EXPECT_EQ(r.estimate, ref_estimate) << tc::to_string(policy);
    }
  }
}

TEST_P(InvarianceTest, MixedStreamEstimateBitIdenticalUnderPolicies) {
  // Fully-dynamic extension of the invariance battery: a ± update stream
  // (inserts, deletions, re-inserts, with reservoir overflow in play) must
  // produce bit-identical estimates under every placement x intersect
  // policy combination — deletions are estimator state keyed by triplet,
  // never by bank or kernel strategy.
  const std::uint64_t seed = GetParam();
  graph::EdgeList g = graph::gen::barabasi_albert(800, 5, seed + 70);
  graph::gen::add_hubs(g, 2, 200, seed + 71);
  graph::preprocess(g, seed + 72);
  const auto edges = g.edges();
  const std::size_t cut = (edges.size() * 3) / 4;

  double ref = -1.0;
  for (const color::PlacementPolicy placement :
       {color::PlacementPolicy::kIdentity,
        color::PlacementPolicy::kKindInterleave,
        color::PlacementPolicy::kGreedyBalance}) {
    for (const tc::IntersectPolicy intersect :
         {tc::IntersectPolicy::kAuto, tc::IntersectPolicy::kMerge,
          tc::IntersectPolicy::kGallop}) {
      engine::EngineConfig cfg = small_config(3);
      cfg.seed = 17 + seed;
      cfg.placement = placement;
      cfg.intersect = intersect;
      cfg.sample_capacity_edges = edges.size() / 4;  // overflow somewhere
      tc::PimTriangleCounter counter(cfg);
      counter.add_edges(edges.subspan(0, cut));
      counter.remove_edges(edges.subspan(100, 150));
      counter.add_edges(edges.subspan(cut));
      counter.remove_edges(edges.subspan(0, 60));
      counter.add_edges(edges.subspan(100, 50));  // re-insert some deleted
      const engine::CountReport r = counter.recount();
      if (ref < 0.0) {
        ref = r.estimate;
      } else {
        EXPECT_EQ(r.estimate, ref)
            << color::to_string(placement) << " x " << tc::to_string(intersect);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvarianceTest, ::testing::Values(1, 2, 3, 4));

TEST(AdaptiveIntersectionTest, CutsStaticCountInstructionsOnHubGraphs) {
  // The PR-4 acceptance bar, pinned: on a hub-heavy BA+hubs graph (ids
  // permuted, as in real datasets), the adaptive default must cut static
  // counting-phase instructions >= 1.5x vs the legacy path (linear merge +
  // uncached full-table region searches) at default params, with the
  // estimate unchanged.
  graph::EdgeList g = graph::gen::barabasi_albert(3000, 5, 11);
  graph::gen::add_hubs(g, 3, 750, 12);
  graph::gen::permute_ids(g, 13);
  graph::preprocess(g, 14);

  engine::EngineConfig legacy_cfg = small_config(4);
  legacy_cfg.intersect = tc::IntersectPolicy::kMerge;
  legacy_cfg.region_cache = false;
  tc::PimTriangleCounter legacy(legacy_cfg);
  const engine::CountReport legacy_r = legacy.count(g);

  // Defaults: auto policy, cache on.
  tc::PimTriangleCounter adaptive(small_config(4));
  const engine::CountReport adaptive_r = adaptive.count(g);

  EXPECT_EQ(adaptive_r.estimate, legacy_r.estimate);
  EXPECT_GT(adaptive_r.kernel.count_instructions, 0u);
  EXPECT_GE(static_cast<double>(legacy_r.kernel.count_instructions),
            1.5 * static_cast<double>(adaptive_r.kernel.count_instructions));
  // The modeled count phase must improve too, not just the op counts.
  EXPECT_LT(adaptive_r.times.count_s, legacy_r.times.count_s);
}

// ---- simulated-time sanity -------------------------------------------------

TEST(TimingPropertiesTest, MoreEdgesNeverFaster) {
  engine::EngineConfig cfg = small_config(4);
  double prev = 0.0;
  for (const EdgeCount m : {2'000ull, 8'000ull, 32'000ull}) {
    graph::EdgeList g = graph::gen::erdos_renyi(4000, m, 5);
    tc::PimTriangleCounter counter(cfg);
    const engine::CountReport r = counter.count(g);
    const double sim = r.times.ingest_s + r.times.count_s;
    EXPECT_GT(sim, prev) << m;
    prev = sim;
  }
}

TEST(TimingPropertiesTest, UniformSamplingSpeedsUpSimulatedPhases) {
  graph::EdgeList g = graph::gen::erdos_renyi(5000, 60'000, 11);
  const auto run = [&](double p) {
    engine::EngineConfig cfg = small_config(4);
    cfg.uniform_p = p;
    tc::PimTriangleCounter counter(cfg);
    const engine::CountReport r = counter.count(g);
    return r.times.ingest_s + r.times.count_s;
  };
  const double exact = run(1.0);
  const double sampled = run(0.1);
  EXPECT_LT(sampled, exact / 2.0);
}

// ---- load distribution across the machine -----------------------------------

TEST(LoadPropertiesTest, SeenEdgesSumToReplicationFactor) {
  graph::EdgeList g = graph::gen::erdos_renyi(1500, 12'000, 3);
  graph::preprocess(g, 4);
  for (const std::uint32_t colors : {2u, 5u, 9u}) {
    engine::EngineConfig cfg = small_config(colors);
    tc::PimTriangleCounter counter(cfg);
    counter.add_edges(g.edges());
    const auto seen = counter.per_dpu_edges_seen();
    const std::uint64_t total =
        std::accumulate(seen.begin(), seen.end(), std::uint64_t{0});
    EXPECT_EQ(total, static_cast<std::uint64_t>(colors) * g.num_edges());
  }
}

TEST(LoadPropertiesTest, MonoTripletCoresSeeOnlyMonochromaticEdges) {
  // A (c,c,c) core receives an edge iff both endpoints hash to c, so its
  // load must be ~ |E| / C^2 in expectation.
  graph::EdgeList g = graph::gen::erdos_renyi(20'000, 60'000, 13);
  engine::EngineConfig cfg = small_config(4);
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(g.edges());
  const auto seen = counter.per_dpu_edges_seen();
  const double expected =
      static_cast<double>(g.num_edges()) / (4.0 * 4.0);
  for (std::uint32_t c = 0; c < 4; ++c) {
    const auto mono = seen[counter.triplets().mono_index(c)];
    EXPECT_NEAR(static_cast<double>(mono), expected, expected * 0.25)
        << "color " << c;
  }
}

// ---- estimator identities ----------------------------------------------------

TEST(EstimatorPropertiesTest, CorrectionFactorsCompose) {
  // reservoir(q) then uniform(p): estimate = raw / q / p^3.  Verify the
  // composition algebra used in recount().
  const double q = reservoir_correction(100, 400);
  const double up = uniform_sampling_correction(0.25);
  const double raw = 1234.0;
  const double composed = raw / q * up;
  EXPECT_DOUBLE_EQ(composed, raw / q * 64.0);
  EXPECT_GT(q, 0.0);
  EXPECT_LT(q, 1.0);
}

TEST(EstimatorPropertiesTest, ReservoirCorrectionMonotoneInOverflow) {
  double prev = 1.1;
  for (const std::uint64_t t : {100ull, 200ull, 400ull, 1600ull}) {
    const double x = reservoir_correction(100, t);
    EXPECT_LT(x, prev) << t;
    prev = x;
  }
}

// ---- failure injection ---------------------------------------------------------

TEST(FailureInjectionTest, MramTooSmallIsRejectedAtConstruction) {
  engine::EngineConfig cfg = small_config(2);
  cfg.pim.mram_bytes = 1024;  // cannot hold even the fixed layout
  EXPECT_THROW(tc::PimTriangleCounter{cfg}, std::invalid_argument);
}

TEST(FailureInjectionTest, CapacityClampedToBankLayout) {
  engine::EngineConfig cfg = small_config(2);
  cfg.pim.mram_bytes = 1 << 20;
  cfg.sample_capacity_edges = 1ull << 40;  // absurd request
  tc::PimTriangleCounter counter(cfg);
  EXPECT_LE(counter.sample_capacity(),
            tc::MramLayout::max_capacity(cfg.pim.mram_bytes));
  // And the run still works within the clamp.
  graph::EdgeList g = graph::gen::complete(16);
  EXPECT_EQ(counter.count(g).rounded(), binomial(16, 3));
}

TEST(FailureInjectionTest, EmptyGraphCountsZero) {
  engine::EngineConfig cfg = small_config(3);
  tc::PimTriangleCounter counter(cfg);
  const engine::CountReport r = counter.count(graph::EdgeList{});
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.rounded(), 0u);
}

TEST(FailureInjectionTest, LoopOnlyGraphCountsZero) {
  graph::EdgeList g;
  for (NodeId u = 0; u < 50; ++u) g.push_back({u, u});
  engine::EngineConfig cfg = small_config(2);
  tc::PimTriangleCounter counter(cfg);
  EXPECT_EQ(counter.count(g).rounded(), 0u);
}

}  // namespace
}  // namespace pimtc
