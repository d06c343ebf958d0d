// Tests for the fast exact CPU backend (src/cpufast): DODG construction
// invariants and count preservation, bit-exact parity with the cpu oracle
// across a graph-shape x batch-split grid, fully-dynamic deletion
// semantics against the incremental adjacency oracle, recount memoization
// (here and on CpuEngine), and counter determinism across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/thread_pool.hpp"
#include "cpufast/count.hpp"
#include "cpufast/dodg.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"

namespace pimtc::cpufast {
namespace {

/// The parity-grid graph shapes: a pure star (no triangles, one mega-hub),
/// a clique (every pair intersects), a two-hub BA graph (bitmap path on
/// adversarial rows), and a plain power-law tail.
std::vector<graph::EdgeList> grid_graphs() {
  std::vector<graph::EdgeList> graphs;
  graphs.push_back(graph::gen::star(400));
  graphs.push_back(graph::gen::complete(24));
  graph::EdgeList two_hub = graph::gen::barabasi_albert(800, 4, 21);
  graph::gen::add_hubs(two_hub, 2, 300, 22);
  graph::gen::permute_ids(two_hub, 23);
  graphs.push_back(std::move(two_hub));
  graph::EdgeList power_law = graph::gen::barabasi_albert(1200, 5, 31);
  graph::preprocess(power_law, 32);
  graphs.push_back(std::move(power_law));
  return graphs;
}

// ---- DODG construction ------------------------------------------------------

TEST(DodgTest, OrientationInvariants) {
  graph::EdgeList g = graph::gen::barabasi_albert(600, 5, 3);
  graph::gen::add_hubs(g, 1, 200, 4);
  const Dodg d = Dodg::build(g.edges(), ThreadPool::global());

  // rank is a bijection over [0, n).
  ASSERT_EQ(d.rank().size(), d.num_nodes());
  std::vector<bool> seen(d.num_nodes(), false);
  for (const NodeId r : d.rank()) {
    ASSERT_LT(r, d.num_nodes());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }

  // Every row is strictly ascending and strictly above its own rank, so
  // the graph is acyclic and each undirected edge appears exactly once.
  EdgeCount arcs = 0;
  for (NodeId r = 0; r < d.num_nodes(); ++r) {
    const auto row = d.neighbors(r);
    arcs += row.size();
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_GT(row[i], r);
      if (i > 0) EXPECT_LT(row[i - 1], row[i]);
    }
  }
  EXPECT_EQ(arcs, d.num_arcs());

  // Arc count == deduped non-loop undirected edge count.
  std::set<std::uint64_t> dedup;
  for (const Edge& e : g.edges()) {
    if (!e.is_loop()) dedup.insert(edge_key(e.canonical()));
  }
  EXPECT_EQ(d.num_arcs(), dedup.size());
}

TEST(DodgTest, DuplicatesLoopsAndIsolatedHighIdVertex) {
  // Duplicates collapse, loops vanish, and a loop at a high id widens the
  // node range without adding arcs.
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 1}, {1, 2},
                                   {2, 0}, {3, 3}, {99, 99}};
  const Dodg d = Dodg::build(edges, ThreadPool::global());
  EXPECT_EQ(d.num_nodes(), 100u);
  EXPECT_EQ(d.num_arcs(), 3u);
  EXPECT_EQ(count_triangles(d, ThreadPool::global()).triangles, 1u);
}

TEST(DodgTest, EmptyGraph) {
  const Dodg d = Dodg::build({}, ThreadPool::global());
  EXPECT_EQ(d.num_nodes(), 0u);
  EXPECT_EQ(d.num_arcs(), 0u);
  EXPECT_EQ(count_triangles(d, ThreadPool::global()).triangles, 0u);
}

TEST(DodgTest, OrientationPreservesExactCountProperty) {
  // Property: for any graph, counting on the DODG equals the trusted
  // reference count — the (degree, id) renumbering is a bijection and each
  // triangle is counted once at its lowest-rank apex.
  for (const graph::EdgeList& g : grid_graphs()) {
    const TriangleCount truth = graph::reference_triangle_count(g);
    const Dodg d = Dodg::build(g.edges(), ThreadPool::global());
    EXPECT_EQ(count_triangles(d, ThreadPool::global()).triangles, truth);
  }
}

// ---- engine parity ----------------------------------------------------------

TEST(CpuFastEngineTest, BitIdenticalToCpuAcrossTheGrid) {
  for (const graph::EdgeList& g : grid_graphs()) {
    const double cpu = engine::make_engine("cpu")->count(g).estimate;
    const auto edges = g.edges();
    for (const std::size_t batches : {std::size_t{1}, std::size_t{3}}) {
      auto eng = engine::make_engine("cpu-fast");
      const std::size_t step = std::max<std::size_t>(1, edges.size() / batches);
      for (std::size_t lo = 0; lo < edges.size(); lo += step) {
        eng->add_edges(edges.subspan(lo, std::min(step, edges.size() - lo)));
      }
      const engine::CountReport r = eng->recount();
      EXPECT_TRUE(r.exact);
      EXPECT_EQ(r.estimate, cpu) << "batches=" << batches;
    }
  }
}

TEST(CpuFastEngineTest, StrategyCountersShowTheBitmapPath) {
  graph::EdgeList g = graph::gen::barabasi_albert(1000, 5, 7);
  graph::preprocess(g, 8);

  const engine::CountReport b = engine::make_engine("cpu-fast")->count(g);
  EXPECT_GT(b.kernel.bitmap_isects, 0u);
  EXPECT_EQ(b.kernel.merge_isects, 0u);
  EXPECT_EQ(b.kernel.gallop_isects, 0u);
}

// ---- fully-dynamic deletions ------------------------------------------------

TEST(CpuFastEngineTest, MixedStreamMatchesIncrementalOracle) {
  graph::EdgeList g = graph::gen::community(500, 20, 0.4, 2000, 40);
  graph::preprocess(g, 41);
  const auto edges = g.edges();
  const std::size_t half = edges.size() / 2;

  // Inserts, then delete every third edge of the first half, then re-insert
  // a few of the deleted ones.
  std::vector<EdgeUpdate> updates;
  for (std::size_t i = 0; i < half; i += 3) updates.push_back(delete_of(edges[i]));
  for (std::size_t i = 0; i < half; i += 9) updates.push_back(insert_of(edges[i]));

  auto fast = engine::make_engine("cpu-fast");
  auto oracle = engine::make_engine("cpu-incremental");
  for (auto* eng : {fast.get(), oracle.get()}) {
    eng->add_edges(edges);
    eng->apply(updates);
  }
  const engine::CountReport f = fast->recount();
  const engine::CountReport o = oracle->recount();
  EXPECT_EQ(f.rounded(), o.rounded());
  EXPECT_EQ(f.edges_deleted, o.edges_deleted);
  EXPECT_GT(f.edges_deleted, 0u);
}

TEST(CpuFastEngineTest, PhantomDeletesAreCountedNoOps) {
  auto eng = engine::make_engine("cpu-fast");
  eng->add_edges(graph::gen::complete(5).edges());
  const std::vector<EdgeUpdate> phantoms = {delete_of({40, 41}),
                                            delete_of({0, 1}),
                                            delete_of({0, 1})};  // second miss
  eng->apply(phantoms);
  const engine::CountReport r = eng->recount();
  EXPECT_EQ(r.edges_deleted, 1u);
  EXPECT_EQ(r.delete_misses, 2u);
  // K5 minus one edge: 10 - 3*1 = 7 triangles.
  EXPECT_EQ(r.rounded(), 7u);
}

TEST(CpuFastEngineTest, DeleteThenReinsertRestoresTheCount) {
  const graph::EdgeList g = graph::gen::complete(10);
  auto eng = engine::make_engine("cpu-fast");
  eng->add_edges(g.edges());
  const TriangleCount before = eng->recount().rounded();
  const std::vector<EdgeUpdate> del = {delete_of({2, 7})};
  eng->apply(del);
  EXPECT_LT(eng->recount().rounded(), before);
  const std::vector<EdgeUpdate> ins = {insert_of({7, 2})};  // same edge, swapped
  eng->apply(ins);
  EXPECT_EQ(eng->recount().rounded(), before);
}

// ---- memoization ------------------------------------------------------------

TEST(MemoizationTest, CleanRecountReturnsTheCachedReport) {
  graph::EdgeList g = graph::gen::barabasi_albert(800, 4, 50);
  graph::preprocess(g, 51);
  for (const char* name : {"cpu", "cpu-fast"}) {
    auto eng = engine::make_engine(name);
    eng->add_edges(g.edges());
    const engine::CountReport first = eng->recount();
    const engine::CountReport again = eng->recount();
    // Bitwise-identical report, including times: no work re-accumulated.
    EXPECT_EQ(again.estimate, first.estimate) << name;
    EXPECT_EQ(again.times.ingest_s, first.times.ingest_s) << name;
    EXPECT_EQ(again.times.count_s, first.times.count_s) << name;
    EXPECT_EQ(again.kernel.chunks_claimed, first.kernel.chunks_claimed) << name;

    // An empty batch is not a change; the memo survives.
    eng->add_edges({});
    EXPECT_EQ(eng->recount().times.count_s, first.times.count_s) << name;

    // A real batch invalidates: recount measures (and accumulates) again.
    eng->add_edges(std::vector<Edge>{{0, 1}});
    const engine::CountReport after = eng->recount();
    EXPECT_GT(after.times.count_s, first.times.count_s) << name;
  }
}

TEST(MemoizationTest, ResetTimersZeroesTheCachedTimes) {
  for (const char* name : {"cpu", "cpu-fast"}) {
    auto eng = engine::make_engine(name);
    eng->add_edges(graph::gen::complete(16).edges());
    const TriangleCount truth = eng->recount().rounded();
    eng->reset_timers();
    const engine::CountReport r = eng->recount();  // still memoized
    EXPECT_EQ(r.rounded(), truth) << name;
    EXPECT_DOUBLE_EQ(r.times.total_s(), 0.0) << name;
  }
}

// ---- config -----------------------------------------------------------------

// ---- determinism ------------------------------------------------------------

TEST(CpuFastEngineTest, CountersDeterministicAcrossThreadCounts) {
  graph::EdgeList g = graph::gen::barabasi_albert(1500, 5, 60);
  graph::gen::add_hubs(g, 2, 400, 61);
  graph::preprocess(g, 62);

  engine::CountReport reports[2];
  const std::uint32_t threads[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    engine::EngineConfig cfg;
    cfg.host_threads = threads[i];
    reports[i] = engine::make_engine("cpu-fast", cfg)->count(g);
  }
  EXPECT_EQ(reports[0].estimate, reports[1].estimate);
  EXPECT_EQ(reports[0].kernel.bitmap_isects, reports[1].kernel.bitmap_isects);
  EXPECT_EQ(reports[0].kernel.bitmap_probes, reports[1].kernel.bitmap_probes);
  EXPECT_EQ(reports[0].work.intersection_steps,
            reports[1].work.intersection_steps);
}

TEST(CpuFastEngineTest, CountIndependentOfArrivalOrder) {
  // The DODG is a function of the edge set: shuffled arrival (and shuffled
  // set-iteration order after a deletion) changes nothing observable.
  graph::EdgeList a = graph::gen::barabasi_albert(700, 4, 70);
  graph::EdgeList b = a;
  graph::shuffle_edges(b, 71);

  const engine::CountReport ra = engine::make_engine("cpu-fast")->count(a);
  const engine::CountReport rb = engine::make_engine("cpu-fast")->count(b);
  EXPECT_EQ(ra.estimate, rb.estimate);
  EXPECT_EQ(ra.work.intersection_steps, rb.work.intersection_steps);
}

}  // namespace
}  // namespace pimtc::cpufast
