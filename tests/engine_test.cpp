// Tests for the engine layer: registry/factory behavior, EngineConfig
// validation, backend parity (every exact backend agrees with the trusted
// reference counter), and streaming-session semantics (add_edges/recount
// idempotence and cross-backend agreement after every update).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"

namespace pimtc::engine {
namespace {

const char* const kExactBackends[] = {"pim", "cpu", "cpu-fast",
                                      "cpu-incremental"};

EngineConfig small_config(std::uint64_t seed = 42) {
  EngineConfig cfg;
  cfg.num_colors = 4;
  cfg.seed = seed;
  return cfg;
}

graph::EdgeList test_graph(std::uint64_t seed) {
  graph::EdgeList g = graph::gen::community(400, 16, 0.5, 1500, seed);
  graph::preprocess(g, seed + 1);
  return g;
}

// ---- registry ---------------------------------------------------------------

TEST(RegistryTest, BuiltinsAreRegistered) {
  const std::vector<std::string> names = registered_backends();
  const std::set<std::string> set(names.begin(), names.end());
  EXPECT_TRUE(set.contains("pim"));
  EXPECT_TRUE(set.contains("cpu"));
  EXPECT_TRUE(set.contains("cpu-fast"));
  EXPECT_TRUE(set.contains("cpu-incremental"));
}

TEST(RegistryTest, UnknownBackendThrowsWithKnownNames) {
  try {
    (void)make_engine("gpu", small_config());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gpu"), std::string::npos);
    EXPECT_NE(what.find("pim"), std::string::npos) << what;
  }
}

TEST(RegistryTest, EnginesReportTheirRegistryName) {
  for (const char* name : kExactBackends) {
    EXPECT_STREQ(make_engine(name, small_config())->name(), name);
  }
}

// ---- config validation ------------------------------------------------------

TEST(ConfigValidationTest, RejectsTooFewColors) {
  EngineConfig cfg = small_config();
  cfg.num_colors = 1;
  EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument);
  // Validation is backend-independent: the CPU backend rejects it too.
  EXPECT_THROW(make_engine("cpu", cfg), std::invalid_argument);
}

TEST(ConfigValidationTest, RejectsUniformPOutOfRange) {
  for (const double p : {0.0, -0.5, 1.5}) {
    EngineConfig cfg = small_config();
    cfg.uniform_p = p;
    EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument) << p;
  }
}

TEST(ConfigValidationTest, RejectsMoreCoresThanTheMachineHas) {
  EngineConfig cfg = small_config();
  cfg.num_colors = 64;  // binom(66,3) = 45760 cores >> 2560
  EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument);
}

TEST(ConfigValidationTest, RejectsDegenerateMisraGries) {
  EngineConfig cfg = small_config();
  cfg.misra_gries_enabled = true;
  cfg.mg_capacity = 0;
  EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument);
}

TEST(ConfigValidationTest, RejectsMgTopAboveMgCapacity) {
  // Remapping more nodes than Misra-Gries tracks silently degrades the
  // summary; the config is rejected up front.
  EngineConfig cfg = small_config();
  cfg.misra_gries_enabled = true;
  cfg.mg_capacity = 8;
  cfg.mg_top = 9;
  EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument);
  cfg.mg_top = 8;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidationTest, RejectsDegreeRemapWithoutMisraGries) {
  // Degree ordering comes from the Misra-Gries estimates; without the
  // summaries there is nothing to order by.
  EngineConfig cfg = small_config();
  cfg.degree_ordered_remap = true;
  EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument);
  cfg.misra_gries_enabled = true;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidationTest, AutoColorSelectionFillsTheMachine) {
  // num_colors == 0 resolves to the largest C fitting pim.max_dpus: C = 23
  // -> 2300 of 2560 DPUs (~90% utilization) on the default machine.
  EngineConfig cfg = small_config();
  cfg.num_colors = 0;
  EXPECT_NO_THROW(cfg.validate());

  cfg.pim.max_dpus = 120;
  cfg.pim.mram_bytes = 4ull << 20;  // keep the session light
  const CountReport r =
      make_engine("pim", cfg)->count(graph::gen::complete(24));
  EXPECT_EQ(r.num_colors, 8u);  // binom(10,3) = 120 cores exactly
  EXPECT_EQ(r.num_units, 120u);
  EXPECT_DOUBLE_EQ(r.dpu_utilization, 1.0);

  // A machine too small for even C = 2 is rejected.
  cfg.pim.max_dpus = 3;
  cfg.pim.dpus_per_rank = 2;
  EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument);
}

TEST(ConfigValidationTest, RejectsBadRankTopology) {
  EngineConfig cfg = small_config();
  cfg.pim.dpus_per_rank = 0;
  EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument);
  cfg.pim.dpus_per_rank = cfg.pim.max_dpus + 1;
  EXPECT_THROW(make_engine("pim", cfg), std::invalid_argument);
}

TEST(ConfigValidationTest, AcceptsTheDefaults) {
  EXPECT_NO_THROW(EngineConfig{}.validate());
}

// ---- backend parity ---------------------------------------------------------

TEST(BackendParityTest, ExactBackendsMatchReferenceOnGeneratorGraphs) {
  for (const std::uint64_t seed : {3u, 7u}) {
    const graph::EdgeList g = test_graph(seed);
    const TriangleCount truth = graph::reference_triangle_count(g);
    for (const char* name : kExactBackends) {
      auto eng = make_engine(name, small_config(seed));
      const CountReport r = eng->count(g);
      EXPECT_TRUE(r.exact) << name;
      EXPECT_EQ(r.rounded(), truth) << name << " seed " << seed;
      EXPECT_EQ(r.backend, name);
    }
  }
}

TEST(BackendParityTest, ExactBackendsMatchOnSkewedGraph) {
  graph::EdgeList g = graph::gen::barabasi_albert(1500, 6, 9);
  graph::gen::add_hubs(g, 1, 300, 10);
  graph::preprocess(g, 11);
  const TriangleCount truth = graph::reference_triangle_count(g);
  for (const char* name : kExactBackends) {
    EXPECT_EQ(make_engine(name, small_config())->count(g).rounded(), truth)
        << name;
  }
}

TEST(BackendParityTest, EmptyGraph) {
  for (const char* name : kExactBackends) {
    const CountReport r = make_engine(name, small_config())->count({});
    EXPECT_EQ(r.rounded(), 0u) << name;
    EXPECT_TRUE(r.exact) << name;
  }
}

// ---- streaming sessions -----------------------------------------------------

TEST(StreamingSessionTest, BatchedStreamMatchesOneShotAcrossBackends) {
  const graph::EdgeList g = test_graph(5);
  const TriangleCount truth = graph::reference_triangle_count(g);
  const auto edges = g.edges();
  constexpr std::size_t kBatches = 4;
  const std::size_t step = edges.size() / kBatches;

  for (const char* name : kExactBackends) {
    auto eng = make_engine(name, small_config());
    for (std::size_t b = 0; b < kBatches; ++b) {
      const std::size_t lo = b * step;
      const std::size_t hi = (b == kBatches - 1) ? edges.size() : lo + step;
      eng->add_edges(edges.subspan(lo, hi - lo));
    }
    EXPECT_EQ(eng->recount().rounded(), truth) << name;
  }
}

TEST(StreamingSessionTest, RecountIsIdempotent) {
  const graph::EdgeList g = test_graph(6);
  for (const char* name : kExactBackends) {
    auto eng = make_engine(name, small_config());
    eng->add_edges(g.edges());
    const CountReport first = eng->recount();
    const CountReport second = eng->recount();
    EXPECT_EQ(first.rounded(), second.rounded()) << name;
    EXPECT_DOUBLE_EQ(first.estimate, second.estimate) << name;
  }
}

TEST(StreamingSessionTest, BackendsAgreeAfterEveryUpdate) {
  const graph::EdgeList g = test_graph(8);
  const auto edges = g.edges();
  constexpr std::size_t kBatches = 3;
  const std::size_t step = edges.size() / kBatches;

  EngineConfig cfg = small_config();
  cfg.incremental = true;  // exercise the PIM incremental path too
  std::vector<std::unique_ptr<TriangleCountEngine>> engines;
  for (const char* name : kExactBackends) {
    engines.push_back(make_engine(name, cfg));
  }

  graph::EdgeList acc;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t lo = b * step;
    const std::size_t hi = (b == kBatches - 1) ? edges.size() : lo + step;
    const auto batch = edges.subspan(lo, hi - lo);
    acc.append(batch);
    const TriangleCount truth = graph::reference_triangle_count(acc);
    for (auto& eng : engines) {
      eng->add_edges(batch);
      EXPECT_EQ(eng->recount().rounded(), truth)
          << eng->name() << " update " << b;
    }
  }
}

TEST(StreamingSessionTest, PimIncrementalSurvivesCoresEmptyAtFirstCount) {
  // Regression: with many cores and a tiny first batch, some PIM cores see
  // zero edges before the first recount.  Their persisted-sorted flag must
  // still be set, or every later incremental recount throws.
  EngineConfig cfg;
  cfg.num_colors = 8;  // 120 cores
  cfg.incremental = true;
  auto eng = make_engine("pim", cfg);

  graph::EdgeList g = graph::gen::complete(24);  // 2024 triangles
  graph::shuffle_edges(g, 17);
  const auto edges = g.edges();

  eng->add_edges(edges.subspan(0, 4));  // far fewer edges than cores
  eng->recount();
  eng->add_edges(edges.subspan(4));
  const CountReport r = eng->recount();
  EXPECT_TRUE(r.used_incremental);
  EXPECT_EQ(r.rounded(), graph::reference_triangle_count(g));
}

TEST(StreamingSessionTest, IncrementalCpuToleratesDuplicatesAndLoops) {
  // The adjacency-based engine dedups on arrival, so a raw un-preprocessed
  // stream still counts exactly.
  graph::EdgeList g = graph::gen::complete(14);
  auto eng = make_engine("cpu-incremental", small_config());
  eng->add_edges(g.edges());
  eng->add_edges(g.edges());  // every edge again
  std::vector<Edge> junk{{3, 3}, {5, 2}, {2, 5}};
  eng->add_edges(junk);
  EXPECT_EQ(eng->recount().rounded(), graph::reference_triangle_count(g));
}

TEST(StreamingSessionTest, ResetTimersZeroesTimesOnly) {
  const graph::EdgeList g = test_graph(9);
  auto eng = make_engine("pim", small_config());
  eng->add_edges(g.edges());
  const CountReport before = eng->recount();
  EXPECT_GT(before.times.total_s(), 0.0);
  eng->reset_timers();
  const CountReport after = eng->recount();
  EXPECT_EQ(after.rounded(), before.rounded());
  EXPECT_LT(after.times.total_s(), before.times.total_s());
}

// ---- report diagnostics -----------------------------------------------------

TEST(ReportTest, PimReportCarriesLoadBalanceDiagnostics) {
  const graph::EdgeList g = test_graph(10);
  const CountReport r = make_engine("pim", small_config())->count(g);
  EXPECT_EQ(r.num_units, 20u);  // binom(6,3) for C=4
  EXPECT_EQ(r.edges_streamed, g.num_edges());
  EXPECT_EQ(r.edges_kept, g.num_edges());
  EXPECT_GT(r.edges_replicated, 0u);
  EXPECT_LE(r.min_unit_edges, r.max_unit_edges);
  EXPECT_TRUE(r.simulated_times);
  EXPECT_GT(r.times.setup_s, 0.0);
}

TEST(ReportTest, HeavyHittersSurfaceWhenMisraGriesEnabled) {
  graph::EdgeList g = graph::gen::barabasi_albert(2000, 4, 12);
  graph::gen::add_hubs(g, 1, 500, 13);
  graph::preprocess(g, 14);

  EngineConfig cfg = small_config();
  cfg.misra_gries_enabled = true;
  cfg.mg_capacity = 256;
  cfg.mg_top = 4;
  const CountReport r = make_engine("pim", cfg)->count(g);
  ASSERT_FALSE(r.heavy_hitters.empty());
  EXPECT_LE(r.heavy_hitters.size(), 4u);
  EXPECT_GT(r.heavy_hitters.front().estimated_degree, 0u);
}

TEST(ReportTest, HostThreadsPlumbedThroughEveryBackend) {
  EngineConfig cfg = small_config();
  cfg.host_threads = 3;
  EXPECT_EQ(make_engine("pim", cfg)->recount().host_threads, 3u);
  EXPECT_EQ(make_engine("cpu", cfg)->recount().host_threads, 3u);
  // The adjacency engine is inherently serial and says so.
  EXPECT_EQ(make_engine("cpu-incremental", cfg)->recount().host_threads, 1u);
}

TEST(ReportTest, PimReportCarriesRankAwareTransferBreakdown) {
  const graph::EdgeList g = test_graph(11);
  EngineConfig cfg = small_config();
  cfg.pim.dpus_per_rank = 8;  // 20 cores for C=4 -> 3 ranks
  const CountReport r = make_engine("pim", cfg)->count(g);
  EXPECT_EQ(r.num_ranks, 3u);
  EXPECT_GT(r.transfers.push_transfers, 0u);
  EXPECT_GT(r.transfers.pull_transfers, 0u);
  EXPECT_GE(r.transfers.push_wire_bytes, r.transfers.push_payload_bytes);
  EXPECT_GE(r.transfers.overlap_saved_s, 0.0);

  // Backends without a transfer model report zeros.
  const CountReport c = make_engine("cpu", cfg)->count(g);
  EXPECT_EQ(c.num_ranks, 0u);
  EXPECT_EQ(c.transfers.push_transfers, 0u);
}

TEST(ReportTest, PimReportCarriesPartitionDiagnostics) {
  const graph::EdgeList g = test_graph(16);
  EngineConfig cfg = small_config();
  cfg.placement = color::PlacementPolicy::kGreedyBalance;
  const CountReport r = make_engine("pim", cfg)->count(g);
  EXPECT_EQ(r.num_colors, 4u);
  EXPECT_EQ(r.placement, "greedy_balance");
  EXPECT_GT(r.dpu_utilization, 0.0);
  EXPECT_GE(r.load_imbalance, 1.0);
  // C=4: 4 kind-1, 12 kind-2, 4 kind-3 cores; histogram covers every edge
  // replica.
  EXPECT_EQ(r.kind_units[0], 4u);
  EXPECT_EQ(r.kind_units[1], 12u);
  EXPECT_EQ(r.kind_units[2], 4u);
  EXPECT_EQ(r.kind_edges_seen[0] + r.kind_edges_seen[1] + r.kind_edges_seen[2],
            r.edges_replicated);

  // CPU backends have no partition; the fields stay at their zeros.
  const CountReport c = make_engine("cpu", cfg)->count(g);
  EXPECT_EQ(c.num_colors, 0u);
  EXPECT_TRUE(c.placement.empty());
}

TEST(ReportTest, PipelinedAndSerialSessionsAgreeBitForBit) {
  // engine_test parity criterion: rank-aware + pipelined ingestion must
  // produce the identical estimate to the serial path on a fixed seed.
  const graph::EdgeList g = test_graph(12);
  const auto edges = g.edges();
  const std::size_t step = edges.size() / 3;

  const auto run = [&](bool pipelined, std::uint64_t staging) {
    EngineConfig cfg = small_config(1234);
    cfg.uniform_p = 0.7;              // exercise the sampling RNG too
    cfg.sample_capacity_edges = 300;  // and reservoir replacement
    cfg.pipelined_ingest = pipelined;
    cfg.staging_capacity_edges = staging;
    auto eng = make_engine("pim", cfg);
    for (std::size_t b = 0; b < 3; ++b) {
      const std::size_t lo = b * step;
      const std::size_t hi = (b == 2) ? edges.size() : lo + step;
      eng->add_edges(edges.subspan(lo, hi - lo));
    }
    return eng->recount().estimate;
  };

  const double serial = run(false, 0);
  EXPECT_EQ(serial, run(true, 0));
  EXPECT_EQ(serial, run(true, 50));
}

TEST(ReportTest, ResetTimersSettlesInFlightPipelinedTime) {
  // add_edges leaves its flush's device time in flight (pipelined default);
  // reset_timers must settle it into the pre-reset window, or the next
  // recount would charge pre-reset work into the fresh measurement window.
  const graph::EdgeList g = test_graph(13);
  auto eng = make_engine("pim", small_config());
  eng->add_edges(g.edges());
  eng->reset_timers();
  const CountReport r = eng->recount();
  EXPECT_DOUBLE_EQ(r.times.ingest_s, 0.0);
  EXPECT_EQ(r.transfers.push_transfers, 1u);  // only recount's control push
}

TEST(ReportTest, CpuWorkProfileFeedsThePlatformModels) {
  const graph::EdgeList g = test_graph(15);
  const CountReport r = make_engine("cpu")->count(g);
  EXPECT_EQ(r.work.edges, g.num_edges());
  EXPECT_GT(r.work.conversion_ops, 0u);
  EXPECT_GT(r.work.intersection_steps, 0u);
  EXPECT_EQ(r.work.triangles, r.rounded());
}

}  // namespace
}  // namespace pimtc::engine
