// Tests for the graph generators and the paper-graph stand-ins: simplicity
// invariants, determinism, and the structural signatures each stand-in must
// preserve (degree ordering, clustering regime, triangle density).
#include <gtest/gtest.h>

#include <unordered_set>

#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "graph/stats.hpp"

namespace pimtc::graph {
namespace {

/// Simple = no loops, no duplicate undirected edges.
void expect_simple(const EdgeList& g) {
  std::unordered_set<Edge> seen;
  for (const Edge& e : g) {
    EXPECT_FALSE(e.is_loop()) << e.u << "," << e.v;
    EXPECT_TRUE(seen.insert(e.canonical()).second)
        << "duplicate edge " << e.u << "," << e.v;
  }
}

// ---- primitive generators ----------------------------------------------------

TEST(GeneratorsTest, ErdosRenyiExactEdgeCountAndSimple) {
  const EdgeList g = gen::erdos_renyi(500, 2000, 1);
  EXPECT_EQ(g.num_edges(), 2000u);
  EXPECT_LE(g.num_nodes(), 500u);
  expect_simple(g);
}

TEST(GeneratorsTest, ErdosRenyiDeterministicPerSeed) {
  const EdgeList a = gen::erdos_renyi(100, 300, 5);
  const EdgeList b = gen::erdos_renyi(100, 300, 5);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(GeneratorsTest, ErdosRenyiRejectsOverfull) {
  EXPECT_THROW(gen::erdos_renyi(4, 7, 1), std::invalid_argument);
  EXPECT_NO_THROW(gen::erdos_renyi(4, 6, 1));
}

TEST(GeneratorsTest, RmatRespectsScaleAndCount) {
  const EdgeList g = gen::rmat(10, 3000, gen::RmatParams{}, 2);
  EXPECT_EQ(g.num_edges(), 3000u);
  EXPECT_LE(g.num_nodes(), 1u << 10);
  expect_simple(g);
}

TEST(GeneratorsTest, RmatSkewProducesHubs) {
  // Graph500 parameters concentrate edges on low ids; the max degree must be
  // far above average.
  const EdgeList g = gen::rmat(12, 20000, gen::RmatParams{}, 3);
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(static_cast<double>(s.max_degree), 10.0 * s.avg_degree);
}

TEST(GeneratorsTest, BarabasiAlbertSimpleAndPowerLawTail) {
  const EdgeList g = gen::barabasi_albert(2000, 4, 4);
  expect_simple(g);
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(static_cast<double>(s.max_degree), 5.0 * s.avg_degree);
}

TEST(GeneratorsTest, CommunityGraphHighClustering) {
  const EdgeList g = gen::community(2000, 50, 0.6, 500, 6);
  expect_simple(g);
  const TriangleCount t = reference_triangle_count(g);
  EXPECT_GT(global_clustering(g, t), 0.25);
}

TEST(GeneratorsTest, RoadLikeHasPlantedTriangles) {
  const EdgeList g = gen::road_like(20000, 2.2, 16, 7);
  expect_simple(g);
  const TriangleCount t = reference_triangle_count(g);
  // At least the planted ones; ER at this density contributes a handful.
  EXPECT_GE(t, 16u);
  EXPECT_LE(t, 40u);
  const DegreeStats s = degree_stats(g);
  EXPECT_LE(s.max_degree, 16u);
  EXPECT_NEAR(s.avg_degree, 2.2, 0.6);
}

TEST(GeneratorsTest, AddHubsCreatesRequestedDegrees) {
  EdgeList g = gen::erdos_renyi(5000, 10000, 8);
  const NodeId before = g.num_nodes();
  gen::add_hubs(g, 2, 1000, 9);
  expect_simple(g);
  const auto deg = degrees(g);
  EXPECT_EQ(deg[before], 1000u);
  EXPECT_EQ(deg[before + 1], 1000u);
}

TEST(GeneratorsTest, CloseTriadsRaisesClustering) {
  EdgeList g = gen::rmat(12, 15000, gen::RmatParams{0.45, 0.22, 0.22, 0.11}, 10);
  const double before =
      global_clustering(g, reference_triangle_count(g));
  gen::close_triads(g, 0.8, 4, 11);
  expect_simple(g);
  const double after = global_clustering(g, reference_triangle_count(g));
  EXPECT_GT(after, before);
}

// ---- fixture graphs -----------------------------------------------------------

TEST(GeneratorsTest, FixtureTriangleCounts) {
  EXPECT_EQ(gen::complete(7).num_edges(), 21u);
  EXPECT_EQ(gen::cycle(7).num_edges(), 7u);
  EXPECT_EQ(gen::path(7).num_edges(), 6u);
  EXPECT_EQ(gen::star(7).num_edges(), 6u);
  EXPECT_EQ(gen::wheel(7).num_edges(), 12u);
}

// ---- paper stand-ins -----------------------------------------------------------

class PaperGraphTest : public ::testing::TestWithParam<PaperGraph> {};

TEST_P(PaperGraphTest, SimpleAndDeterministic) {
  const EdgeList a = make_paper_graph(GetParam(), 0.15, 42);
  const EdgeList b = make_paper_graph(GetParam(), 0.15, 42);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) EXPECT_EQ(a[i], b[i]);
  expect_simple(a);
  EXPECT_GT(a.num_edges(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, PaperGraphTest,
                         ::testing::ValuesIn(kAllPaperGraphs),
                         [](const auto& param_info) {
                           return std::string(
                               paper_graph_info(param_info.param).name)
                               .substr(0, 4) +
                               std::to_string(static_cast<int>(param_info.param));
                         });

TEST(PaperGraphsTest, V1rSignature) {
  // Near-zero triangles, tiny max degree — the Table 3/4 outlier.
  const EdgeList g = make_paper_graph(PaperGraph::kV1r, 0.3, 42);
  const TriangleCount t = reference_triangle_count(g);
  EXPECT_GE(t, 10u);
  EXPECT_LE(t, 60u);
  EXPECT_LE(degree_stats(g).max_degree, 16u);
}

TEST(PaperGraphsTest, MaxDegreeOrderingMatchesFigure3) {
  // The grouping the paper's Figure 3 and Table 2 rely on: V1r, LiveJournal,
  // Human-Jung and Orkut sit well below Kron23, Kron24 and WikipediaEdit.
  const double scale = 0.3;
  const auto max_deg = [&](PaperGraph g) {
    return degree_stats(make_paper_graph(g, scale, 42)).max_degree;
  };
  const auto v1r = max_deg(PaperGraph::kV1r);
  const auto lj = max_deg(PaperGraph::kLiveJournal);
  const auto hj = max_deg(PaperGraph::kHumanJung);
  const auto orkut = max_deg(PaperGraph::kOrkut);
  const auto k23 = max_deg(PaperGraph::kKronecker23);
  const auto k24 = max_deg(PaperGraph::kKronecker24);
  const auto wiki = max_deg(PaperGraph::kWikipediaEdit);

  const auto low_group_max = std::max({v1r, lj, hj, orkut});
  EXPECT_LT(low_group_max, k23);
  EXPECT_LT(k23, wiki);
  EXPECT_LT(k24, wiki);
  EXPECT_LT(v1r, lj);
}

TEST(PaperGraphsTest, HumanJungIsTriangleDense) {
  const EdgeList g = make_paper_graph(PaperGraph::kHumanJung, 0.2, 42);
  const TriangleCount t = reference_triangle_count(g);
  // Triangles per edge far above the social graphs', like the connectome.
  EXPECT_GT(static_cast<double>(t) / static_cast<double>(g.num_edges()), 2.0);
}

TEST(PaperGraphsTest, InfoTableMatchesPaperValues) {
  const auto& kron23 = paper_graph_info(PaperGraph::kKronecker23);
  EXPECT_EQ(kron23.paper_edges, 129'335'985u);
  EXPECT_EQ(kron23.paper_triangles, 4'675'811'428u);
  const auto& v1r = paper_graph_info(PaperGraph::kV1r);
  EXPECT_EQ(v1r.paper_triangles, 49u);
  EXPECT_EQ(v1r.paper_max_degree, 8u);
}

TEST(PaperGraphsTest, ScaleGrowsEdgeCount) {
  const auto small = make_paper_graph(PaperGraph::kLiveJournal, 0.1, 1);
  const auto large = make_paper_graph(PaperGraph::kLiveJournal, 0.3, 1);
  EXPECT_GT(large.num_edges(), 2 * small.num_edges());
}

TEST(PaperGraphsTest, RejectsNonPositiveScale) {
  EXPECT_THROW(make_paper_graph(PaperGraph::kOrkut, 0.0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pimtc::graph
