// Unit tests for src/graph: COO, CSR, preprocessing, stats, reference TC, IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <unordered_set>
#include <vector>

#include "common/math_util.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "graph/stats.hpp"

namespace pimtc::graph {
namespace {

// ---- EdgeList ---------------------------------------------------------------

TEST(EdgeListTest, TracksNodeBound) {
  EdgeList list;
  EXPECT_EQ(list.num_nodes(), 0u);
  list.push_back({3, 7});
  EXPECT_EQ(list.num_nodes(), 8u);
  list.push_back({10, 1});
  EXPECT_EQ(list.num_nodes(), 11u);
  EXPECT_EQ(list.num_edges(), 2u);
}

TEST(EdgeListTest, AppendBatch) {
  EdgeList list;
  const std::vector<Edge> batch = {{0, 1}, {1, 2}, {2, 5}};
  list.append(batch);
  EXPECT_EQ(list.num_edges(), 3u);
  EXPECT_EQ(list.num_nodes(), 6u);
}

TEST(EdgeListTest, RescanAfterMutation) {
  EdgeList list(std::vector<Edge>{{0, 9}});
  list.mutable_edges().clear();
  list.rescan_num_nodes();
  EXPECT_EQ(list.num_nodes(), 0u);
}

// ---- CSR --------------------------------------------------------------------

TEST(CsrTest, ForwardOrientationSortedAndDeduplicated) {
  // Triangle 0-1-2 plus duplicate and reversed copies and a loop.
  EdgeList coo(std::vector<Edge>{{1, 0}, {0, 1}, {1, 2}, {2, 0}, {2, 2}});
  const Csr csr = Csr::from_coo(coo);
  ASSERT_EQ(csr.num_nodes(), 3u);
  // Forward: 0 -> {1, 2}, 1 -> {2}, 2 -> {}.
  ASSERT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.neighbors(0)[0], 1u);
  EXPECT_EQ(csr.neighbors(0)[1], 2u);
  ASSERT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.neighbors(1)[0], 2u);
  EXPECT_EQ(csr.degree(2), 0u);
}

TEST(CsrTest, SymmetricDoublesArcs) {
  EdgeList coo(std::vector<Edge>{{0, 1}, {1, 2}});
  const Csr sym = Csr::from_coo_symmetric(coo);
  EXPECT_EQ(sym.num_arcs(), 4u);
  EXPECT_EQ(sym.degree(1), 2u);
}

TEST(CsrTest, EmptyGraph) {
  const Csr csr = Csr::from_coo(EdgeList{});
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_arcs(), 0u);
}

TEST(CsrTest, SelfLoopsOnlyGraph) {
  // Loops are dropped but still widen the node range; the CSR ends up all
  // zero-degree rows, not an empty structure.
  EdgeList coo(std::vector<Edge>{{2, 2}, {5, 5}});
  const Csr csr = Csr::from_coo(coo);
  EXPECT_EQ(csr.num_nodes(), 6u);
  EXPECT_EQ(csr.num_arcs(), 0u);
  for (NodeId u = 0; u < csr.num_nodes(); ++u) EXPECT_EQ(csr.degree(u), 0u);
}

TEST(CsrTest, DuplicateEdgesCollapseInBothOrientations) {
  // The same undirected edge in every spelling (forward, reversed, twice)
  // becomes exactly one forward arc and two symmetric arcs.
  EdgeList coo(std::vector<Edge>{{4, 9}, {9, 4}, {4, 9}, {9, 4}});
  EXPECT_EQ(Csr::from_coo(coo).num_arcs(), 1u);
  EXPECT_EQ(Csr::from_coo_symmetric(coo).num_arcs(), 2u);
}

TEST(CsrTest, IsolatedHighIdVertexKeepsTheCountExact) {
  // A triangle plus a far-away loop-only vertex: the wide node range must
  // not disturb either structure sizes or the reference count.
  EdgeList coo(std::vector<Edge>{{0, 1}, {1, 2}, {2, 0}, {1000, 1000}});
  const Csr csr = Csr::from_coo(coo);
  EXPECT_EQ(csr.num_nodes(), 1001u);
  EXPECT_EQ(csr.num_arcs(), 3u);
  EXPECT_EQ(csr.degree(1000), 0u);
  EXPECT_EQ(reference_triangle_count(coo), 1u);
}

// ---- preprocess -------------------------------------------------------------

TEST(PreprocessTest, RemovesLoopsAndDuplicates) {
  EdgeList list(std::vector<Edge>{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}});
  const PreprocessStats stats = remove_loops_and_duplicates(list);
  EXPECT_EQ(stats.input_edges, 5u);
  EXPECT_EQ(stats.removed_self_loops, 1u);
  EXPECT_EQ(stats.removed_duplicates, 2u);  // (1,0) and the second (0,1)
  EXPECT_EQ(stats.output_edges, 2u);
  EXPECT_EQ(list.num_edges(), 2u);

  // The filter behind it: a copy in either orientation is a duplicate, and
  // contains() sees only kept edges.
  EdgeFilter filter;
  EXPECT_TRUE(filter.keep({0, 1}));
  EXPECT_FALSE(filter.keep({1, 0}));
  EXPECT_FALSE(filter.keep({2, 2}));
  EXPECT_TRUE(filter.contains({1, 0}));
  EXPECT_FALSE(filter.contains({2, 2}));
  EXPECT_EQ(filter.loops(), 1u);
  EXPECT_EQ(filter.duplicates(), 1u);
}

TEST(PreprocessTest, EmptyAndLoopOnlyInputs) {
  EdgeList empty;
  const PreprocessStats none = remove_loops_and_duplicates(empty);
  EXPECT_EQ(none.input_edges, 0u);
  EXPECT_EQ(none.output_edges, 0u);

  EdgeList loops(std::vector<Edge>{{7, 7}, {7, 7}, {3, 3}});
  const PreprocessStats only = remove_loops_and_duplicates(loops);
  EXPECT_EQ(only.removed_self_loops + only.removed_duplicates, 3u);
  EXPECT_EQ(only.output_edges, 0u);
  EXPECT_EQ(loops.num_edges(), 0u);

  // Full preprocess (dedup + shuffle) on the degenerate inputs is a no-op
  // rather than an error.
  preprocess(empty, 1);
  preprocess(loops, 1);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_EQ(loops.num_edges(), 0u);
}

TEST(EdgeFilterTest, GrowsFromEmptyThroughEveryDoubling) {
  // 100k edges take the default-constructed table from 16 slots through 14
  // doublings; each edge stays findable in both orientations.
  constexpr NodeId kEdges = 100000;
  EdgeFilter filter;
  for (NodeId i = 0; i < kEdges; ++i) {
    ASSERT_TRUE(filter.keep({i, 7 * i + 1})) << i;
  }
  for (NodeId i = 0; i < kEdges; ++i) {
    ASSERT_TRUE(filter.contains({i, 7 * i + 1})) << i;
    ASSERT_TRUE(filter.contains({7 * i + 1, i})) << i;
    ASSERT_FALSE(filter.keep({7 * i + 1, i})) << i;
  }
  EXPECT_FALSE(filter.contains({1, 2}));
  EXPECT_EQ(filter.duplicates(), kEdges);
  EXPECT_EQ(filter.loops(), 0u);
}

TEST(EdgeFilterTest, KeepsExtremeIdsAndNeverStoresLoops) {
  // Key 0 is the loop (0,0), the table's empty mark; 2^32-2 is the largest
  // id the reader accepts.
  constexpr NodeId kMax = 0xfffffffeu;
  EdgeFilter filter;
  EXPECT_FALSE(filter.keep({0, 0}));
  EXPECT_FALSE(filter.keep({kMax, kMax}));
  EXPECT_TRUE(filter.keep({0, 1}));
  EXPECT_TRUE(filter.keep({kMax, 0}));
  EXPECT_TRUE(filter.keep({kMax - 1, kMax}));
  EXPECT_FALSE(filter.keep({0, kMax}));
  EXPECT_FALSE(filter.keep({kMax, kMax - 1}));
  EXPECT_FALSE(filter.keep({0, 0}));
  EXPECT_TRUE(filter.contains({1, 0}));
  EXPECT_TRUE(filter.contains({0, kMax}));
  EXPECT_FALSE(filter.contains({0, 0}));
  EXPECT_FALSE(filter.contains({kMax, kMax}));
  EXPECT_EQ(filter.loops(), 3u);
  EXPECT_EQ(filter.duplicates(), 2u);
}

TEST(EdgeFilterTest, MatchesUnorderedSetReference) {
  // 20 seeded graphs with reversed copies, exact copies and loops spliced
  // in: the same surviving sequence, first copy and its orientation kept,
  // and the same counters as a node-based set.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool hubs : {false, true}) {
      EdgeList g = hubs ? gen::barabasi_albert(2000, 5, seed)
                        : gen::erdos_renyi(1500, 6000, seed);
      if (hubs) gen::add_hubs(g, 3, 400, seed + 1);
      std::vector<Edge> dirty(g.begin(), g.end());
      const std::size_t n = dirty.size();
      std::mt19937_64 rng(seed);
      for (std::size_t k = 0; k < n / 4; ++k) {
        const Edge e = dirty[rng() % n];
        dirty.push_back(k % 3 == 0   ? e.reversed()
                        : k % 3 == 1 ? e
                                     : Edge{e.v, e.v});
      }
      std::shuffle(dirty.begin(), dirty.end(), rng);

      std::unordered_set<Edge> seen;
      std::vector<Edge> expected;
      std::size_t loops = 0;
      std::size_t duplicates = 0;
      for (const Edge& e : dirty) {
        if (e.is_loop()) {
          ++loops;
        } else if (!seen.insert(e.canonical()).second) {
          ++duplicates;
        } else {
          expected.push_back(e);
        }
      }

      EdgeList list(std::move(dirty));
      const PreprocessStats stats = remove_loops_and_duplicates(list);
      EXPECT_EQ(std::vector<Edge>(list.begin(), list.end()), expected)
          << "seed " << seed << (hubs ? " ba-hubs" : " er");
      EXPECT_EQ(stats.removed_self_loops, loops);
      EXPECT_EQ(stats.removed_duplicates, duplicates);
      EXPECT_GT(loops, 0u);
      EXPECT_GT(duplicates, 0u);
    }
  }
}

TEST(PreprocessTest, ShuffleIsPermutationAndDeterministic) {
  EdgeList a = gen::complete(12);
  EdgeList b = gen::complete(12);
  shuffle_edges(a, 7);
  shuffle_edges(b, 7);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i) EXPECT_EQ(a[i], b[i]);

  // Same multiset of edges as the original.
  auto sorted_a = std::vector<Edge>(a.begin(), a.end());
  const EdgeList original = gen::complete(12);
  auto orig = std::vector<Edge>(original.begin(), original.end());
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(orig.begin(), orig.end());
  EXPECT_EQ(sorted_a, orig);
}

TEST(PreprocessTest, DifferentSeedsDifferentOrders) {
  EdgeList a = gen::complete(16);
  EdgeList b = gen::complete(16);
  shuffle_edges(a, 1);
  shuffle_edges(b, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    if (a[i] != b[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// ---- reference triangle count ------------------------------------------------

TEST(ReferenceTcTest, KnownSmallGraphs) {
  EXPECT_EQ(reference_triangle_count(gen::complete(3)), 1u);
  EXPECT_EQ(reference_triangle_count(gen::complete(4)), 4u);
  EXPECT_EQ(reference_triangle_count(gen::complete(10)), binomial(10, 3));
  EXPECT_EQ(reference_triangle_count(gen::cycle(3)), 1u);
  EXPECT_EQ(reference_triangle_count(gen::cycle(10)), 0u);
  EXPECT_EQ(reference_triangle_count(gen::path(20)), 0u);
  EXPECT_EQ(reference_triangle_count(gen::star(20)), 0u);
  EXPECT_EQ(reference_triangle_count(gen::wheel(10)), 9u);
}

TEST(ReferenceTcTest, OrientationInvariant) {
  // Reversing edge orientation in the COO must not change the count.
  EdgeList g = gen::wheel(13);
  EdgeList reversed;
  for (const Edge& e : g) reversed.push_back(e.reversed());
  EXPECT_EQ(reference_triangle_count(g), reference_triangle_count(reversed));
}

TEST(ReferenceTcTest, DisjointTrianglesAdd) {
  EdgeList g;
  for (NodeId base = 0; base < 30; base += 3) {
    g.push_back({base, static_cast<NodeId>(base + 1)});
    g.push_back({static_cast<NodeId>(base + 1), static_cast<NodeId>(base + 2)});
    g.push_back({base, static_cast<NodeId>(base + 2)});
  }
  EXPECT_EQ(reference_triangle_count(g), 10u);
}

// ---- stats ------------------------------------------------------------------

TEST(StatsTest, DegreesOfStar) {
  const auto deg = degrees(gen::star(5));
  ASSERT_EQ(deg.size(), 5u);
  EXPECT_EQ(deg[0], 4u);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(deg[i], 1u);
}

TEST(StatsTest, DegreeStatsOfCompleteGraph) {
  const DegreeStats s = degree_stats(gen::complete(6));
  EXPECT_EQ(s.max_degree, 5u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 5.0);
  // Wedges: 6 * C(5,2) = 60.
  EXPECT_EQ(s.num_wedges, 60u);
}

TEST(StatsTest, ClusteringCoefficientExtremes) {
  // Complete graph: GCC = 1.  Star: no triangles -> 0.
  const EdgeList k6 = gen::complete(6);
  EXPECT_DOUBLE_EQ(global_clustering(k6, reference_triangle_count(k6)), 1.0);
  const EdgeList s10 = gen::star(10);
  EXPECT_DOUBLE_EQ(global_clustering(s10, 0), 0.0);
}

TEST(StatsTest, DuplicateEdgesDoNotInflateDegrees) {
  EdgeList g(std::vector<Edge>{{0, 1}, {1, 0}, {0, 1}});
  const auto deg = degrees(g);
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 1u);
}

// ---- IO ---------------------------------------------------------------------

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "pimtc_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  const EdgeList g = gen::wheel(9);
  const auto path = dir_ / "wheel.txt";
  write_coo_text(g, path);
  const EdgeList back = read_coo(path);
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) EXPECT_EQ(back[i], g[i]);
}

TEST_F(IoTest, TextSkipsComments) {
  const auto path = dir_ / "comments.txt";
  std::ofstream out(path);
  out << "# SNAP-style comment\n% KONECT-style comment\n1 2\n3 4\n";
  out.close();
  const EdgeList g = read_coo(path);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g[0], (Edge{1, 2}));
  EXPECT_EQ(g[1], (Edge{3, 4}));
}

TEST_F(IoTest, TextSkipsBlankishLinesAndIndentedComments) {
  // A downloaded SNAP file routinely ends with a blank-ish line or indents
  // its comments; neither may kill the load.
  const auto path = dir_ / "blanks.txt";
  std::ofstream out(path);
  out << "  # indented comment\n"
      << "\t% indented KONECT comment\n"
      << "1 2\n"
      << "\n"
      << "   \t \n"
      << "  3 4\n"
      << "   \n";
  out.close();
  const EdgeList g = read_coo(path);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g[0], (Edge{1, 2}));
  EXPECT_EQ(g[1], (Edge{3, 4}));
}

TEST_F(IoTest, TextStillRejectsMalformedLines) {
  const auto path = dir_ / "bad.txt";
  std::ofstream out(path);
  out << "1 2\nnot an edge\n";
  out.close();
  EXPECT_THROW(read_coo(path), std::runtime_error);
}

TEST_F(IoTest, UpdateStreamParsesSignsCommentsAndBlanks) {
  const auto path = dir_ / "updates.txt";
  std::ofstream out(path);
  out << "# header comment\n"
      << "+1 2\n"
      << "3 4\n"          // bare pair = insert
      << "- 1 2\n"        // sign separated from the pair
      << "  % indented comment\n"
      << "\n"
      << "-3 4\n"
      << "  +5 6\n";
  out.close();
  const auto updates = read_update_stream(path);
  ASSERT_EQ(updates.size(), 5u);
  EXPECT_EQ(updates[0], insert_of(Edge{1, 2}));
  EXPECT_EQ(updates[1], insert_of(Edge{3, 4}));
  EXPECT_EQ(updates[2], delete_of(Edge{1, 2}));
  EXPECT_EQ(updates[3], delete_of(Edge{3, 4}));
  EXPECT_EQ(updates[4], insert_of(Edge{5, 6}));
}

TEST_F(IoTest, UpdateStreamRejectsGarbage) {
  const auto path = dir_ / "bad_updates.txt";
  std::ofstream out(path);
  out << "+1 2\n~3 4\n";
  out.close();
  EXPECT_THROW(read_update_stream(path), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_coo(dir_ / "nope.txt"), std::runtime_error);
  EXPECT_THROW(read_coo(dir_ / "nope.pbin"), std::runtime_error);
  EXPECT_THROW(read_update_stream(dir_ / "nope.txt"), std::runtime_error);
}

}  // namespace
}  // namespace pimtc::graph
