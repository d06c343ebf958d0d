// Tests for the CPU baseline, the dynamic rebuild behavior of the "cpu"
// engine (which absorbed the old DynamicCpuCounter) and the analytic
// platform models.
#include <gtest/gtest.h>

#include "baseline/cpu_tc.hpp"
#include "baseline/device_model.hpp"
#include "common/math_util.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"

namespace pimtc::baseline {
namespace {

TEST(CpuTcTest, ExactOnKnownGraphs) {
  const CpuTriangleCounter counter;
  EXPECT_EQ(counter.count(graph::gen::complete(20)).triangles,
            binomial(20, 3));
  EXPECT_EQ(counter.count(graph::gen::wheel(30)).triangles, 29u);
  EXPECT_EQ(counter.count(graph::gen::cycle(30)).triangles, 0u);
  EXPECT_EQ(counter.count(graph::gen::star(30)).triangles, 0u);
}

TEST(CpuTcTest, MatchesReferenceOnRandomGraphs) {
  const CpuTriangleCounter counter;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    graph::EdgeList g = graph::gen::erdos_renyi(800, 6000, seed);
    graph::preprocess(g, seed);
    EXPECT_EQ(counter.count(g).triangles, graph::reference_triangle_count(g))
        << "seed " << seed;
  }
}

TEST(CpuTcTest, MatchesReferenceOnSkewedGraph) {
  const CpuTriangleCounter counter;
  graph::EdgeList g = graph::gen::barabasi_albert(2000, 6, 4);
  EXPECT_EQ(counter.count(g).triangles, graph::reference_triangle_count(g));
}

TEST(CpuTcTest, HandlesDirtyInput) {
  // Duplicates and loops in raw COO must not break the count... the CSR
  // conversion orients per-occurrence, so dedup is required for exactness —
  // here we check loops are dropped and a clean graph stays exact.
  graph::EdgeList g = graph::gen::complete(12);
  g.push_back({3, 3});
  EXPECT_EQ(CpuTriangleCounter().count(g).triangles, binomial(12, 3));
}

TEST(CpuTcTest, ProfileIsPopulated) {
  graph::EdgeList g = graph::gen::erdos_renyi(500, 4000, 2);
  const CpuCountResult r = CpuTriangleCounter().count(g);
  EXPECT_EQ(r.profile.edges, 4000u);
  EXPECT_GT(r.profile.conversion_ops, 3 * 4000u);
  EXPECT_GT(r.profile.intersection_steps, 0u);
  EXPECT_EQ(r.profile.triangles, r.triangles);
  EXPECT_GE(r.measured_convert_s, 0.0);
  EXPECT_GE(r.measured_count_s, 0.0);
}

TEST(CpuTcTest, EmptyGraph) {
  const CpuCountResult r = CpuTriangleCounter().count(graph::EdgeList{});
  EXPECT_EQ(r.triangles, 0u);
}

// ---- dynamic rebuild behavior of the "cpu" engine ---------------------------

TEST(DynamicCpuTest, AccumulatesBatches) {
  graph::EdgeList g = graph::gen::complete(16);
  graph::shuffle_edges(g, 3);
  const auto edges = g.edges();

  auto dyn = engine::make_engine("cpu");
  graph::EdgeList acc;
  const std::size_t half = edges.size() / 2;
  dyn->add_edges(edges.subspan(0, half));
  acc.append(edges.subspan(0, half));
  EXPECT_EQ(dyn->recount().rounded(), graph::reference_triangle_count(acc));

  dyn->add_edges(edges.subspan(half));
  EXPECT_EQ(dyn->recount().rounded(), binomial(16, 3));
}

TEST(DynamicCpuTest, RecountPaysFullConversionEveryTime) {
  // The conversion work must grow with the accumulated graph, not with the
  // batch — this is the CPU's handicap in Figure 7.
  graph::EdgeList g = graph::gen::erdos_renyi(3000, 30000, 5);
  const auto edges = g.edges();
  auto dyn = engine::make_engine("cpu");
  dyn->add_edges(edges.subspan(0, 10000));
  const auto first = dyn->recount().work.conversion_ops;
  dyn->add_edges(edges.subspan(10000, 10000));
  const auto second = dyn->recount().work.conversion_ops;
  dyn->add_edges(edges.subspan(20000, 10000));
  const auto third = dyn->recount().work.conversion_ops;
  EXPECT_GT(second, first);
  EXPECT_GT(third, second);
}

// ---- platform models -------------------------------------------------------------

TEST(DeviceModelTest, GpuFasterThanCpuOnStaticRuns) {
  graph::EdgeList g = graph::gen::erdos_renyi(2000, 20000, 7);
  const CpuCountResult r = CpuTriangleCounter().count(g);
  const double cpu = xeon_4215_model().static_seconds(r.profile);
  const double gpu = a100_model().static_seconds(r.profile);
  EXPECT_LT(gpu, cpu);
}

TEST(DeviceModelTest, CpuPaysConversionOnDynamicUpdates) {
  TcWorkProfile p;
  p.edges = 1'000'000;
  p.conversion_ops = 10'000'000;
  p.intersection_steps = 5'000'000;
  const double cpu_dyn =
      xeon_4215_model().dynamic_seconds(p, /*batch_bytes=*/8'000'000);
  const double gpu_dyn = a100_model().dynamic_seconds(p, 8'000'000);
  EXPECT_LT(gpu_dyn, cpu_dyn);
  // CPU dynamic >= CPU static because ingest adds on top of rebuild+count.
  EXPECT_GE(cpu_dyn + 1e-12, xeon_4215_model().static_seconds(p));
}

TEST(DeviceModelTest, ModeledTimeMonotoneInWork) {
  const PlatformModel m = xeon_4215_model();
  TcWorkProfile small;
  small.conversion_ops = 1000;
  small.intersection_steps = 1000;
  TcWorkProfile big = small;
  big.intersection_steps = 1'000'000'000;
  EXPECT_LT(m.static_seconds(small), m.static_seconds(big));
}

}  // namespace
}  // namespace pimtc::baseline
