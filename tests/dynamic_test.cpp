// Fully-dynamic stream correctness (ISSUE 5 tentpole): exact deletions on
// the cpu-incremental oracle, random-pairing deletions through the whole
// PIM pipeline, mixed ± streams under every placement and intersect
// policy, and the engine-level apply() contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "tc/host.hpp"

namespace pimtc {
namespace {

engine::EngineConfig small_engine(std::uint32_t colors = 3) {
  engine::EngineConfig cfg;
  cfg.num_colors = colors;
  cfg.pim.mram_bytes = 8ull << 20;
  return cfg;
}

std::vector<EdgeUpdate> inserts_of(std::span<const Edge> edges) {
  std::vector<EdgeUpdate> ups;
  ups.reserve(edges.size());
  for (const Edge e : edges) ups.push_back(insert_of(e));
  return ups;
}

std::vector<EdgeUpdate> deletes_of(std::span<const Edge> edges) {
  std::vector<EdgeUpdate> ups;
  ups.reserve(edges.size());
  for (const Edge e : edges) ups.push_back(delete_of(e));
  return ups;
}

/// The graph left after deleting `deleted` (canonical-key match) from `g`.
graph::EdgeList remaining_graph(const graph::EdgeList& g,
                                std::span<const Edge> deleted) {
  std::vector<std::uint64_t> keys;
  keys.reserve(deleted.size());
  for (const Edge e : deleted) keys.push_back(edge_key(e.canonical()));
  std::sort(keys.begin(), keys.end());
  graph::EdgeList rest;
  for (const Edge e : g) {
    if (!std::binary_search(keys.begin(), keys.end(),
                            edge_key(e.canonical()))) {
      rest.push_back(e);
    }
  }
  return rest;
}

/// Every triplet's sample region, read from its bank: sample_capacity()
/// slots per triplet, in triplet order.
std::vector<Edge> sample_regions(tc::PimTriangleCounter& counter) {
  const std::uint32_t triplets = counter.triplets().num_triplets();
  const std::uint64_t cap = counter.sample_capacity();
  std::vector<Edge> all(triplets * cap);
  for (std::uint32_t t = 0; t < triplets; ++t) {
    counter.system()
        .dpu(counter.plan().dpu_of(t))
        .mram()
        .read(tc::MramLayout::sample_offset(), all.data() + t * cap,
              cap * sizeof(Edge));
  }
  return all;
}

// ---- cpu-incremental: the exact fully-dynamic oracle ------------------------

TEST(CpuIncrementalDynamicTest, InsertThenDeleteRestoresExactPriorCount) {
  graph::EdgeList g = graph::gen::community(600, 40, 0.5, 400, 21);
  graph::preprocess(g, 22);
  const std::size_t half = g.num_edges() / 2;

  auto eng = engine::make_engine("cpu-incremental", small_engine());
  eng->add_edges(g.edges().subspan(0, half));
  const TriangleCount before = eng->recount().rounded();

  const auto batch = g.edges().subspan(half);
  eng->apply(inserts_of(batch));
  const TriangleCount with_batch = eng->recount().rounded();
  EXPECT_EQ(with_batch, graph::reference_triangle_count(g));

  eng->apply(deletes_of(batch));
  const engine::CountReport after = eng->recount();
  EXPECT_EQ(after.rounded(), before);
  EXPECT_TRUE(after.exact);
  EXPECT_EQ(after.edges_deleted, batch.size());
  EXPECT_EQ(after.delete_misses, 0u);
}

TEST(CpuIncrementalDynamicTest, DeleteThenReinsertRoundTrips) {
  graph::EdgeList g = graph::gen::complete(12);
  auto eng = engine::make_engine("cpu-incremental", small_engine());
  eng->add_edges(g.edges());
  const TriangleCount full = eng->recount().rounded();
  EXPECT_EQ(full, binomial(12, 3));

  const Edge victim{3, 7};
  eng->remove_edges(std::vector<Edge>{victim});
  // K12 minus one edge: each removed edge closed 10 triangles.
  EXPECT_EQ(eng->recount().rounded(), full - 10);

  eng->apply(std::vector<EdgeUpdate>{insert_of(victim)});
  EXPECT_EQ(eng->recount().rounded(), full);
}

TEST(CpuIncrementalDynamicTest, NeverInsertedDeleteIsDetectedNoOp) {
  graph::EdgeList g = graph::gen::complete(8);
  auto eng = engine::make_engine("cpu-incremental", small_engine());
  eng->add_edges(g.edges());
  const TriangleCount full = eng->recount().rounded();

  // Absent edge, double-delete, reversed orientation of an absent edge.
  eng->remove_edges(std::vector<Edge>{{100, 200}});
  eng->remove_edges(std::vector<Edge>{{2, 5}});
  eng->remove_edges(std::vector<Edge>{{5, 2}});  // already deleted above
  const engine::CountReport r = eng->recount();
  EXPECT_EQ(r.delete_misses, 2u);
  EXPECT_EQ(r.edges_deleted, 1u);
  EXPECT_EQ(r.rounded(),
            full - 6);  // K8: one real deletion removes 6 triangles
}

TEST(CpuIncrementalDynamicTest, ArbitraryChurnMatchesReference) {
  // Interleaved ± stream in one apply() call; the running total must track
  // the reference count of the final graph exactly.
  graph::EdgeList g = graph::gen::barabasi_albert(300, 4, 31);
  graph::preprocess(g, 32);
  const auto edges = g.edges();
  const std::size_t keep = (edges.size() * 3) / 4;

  // Insert everything, then interleave deletions of the tail with
  // re-insertions of some of it.
  std::vector<EdgeUpdate> stream = inserts_of(edges);
  for (std::size_t i = keep; i < edges.size(); ++i) {
    stream.push_back(delete_of(edges[i]));
    if (i % 3 == 0) {
      stream.push_back(insert_of(edges[i]));
      stream.push_back(delete_of(edges[i]));
    }
  }
  auto eng = engine::make_engine("cpu-incremental", small_engine());
  eng->apply(stream);
  const graph::EdgeList rest = remaining_graph(g, edges.subspan(keep));
  EXPECT_EQ(eng->recount().rounded(), graph::reference_triangle_count(rest));
}

// ---- PIM pipeline: deletions end-to-end -------------------------------------

TEST(PimDynamicTest, MixedStreamIsExactAndMatchesOracle) {
  graph::EdgeList g = graph::gen::community(800, 50, 0.5, 600, 41);
  graph::preprocess(g, 42);
  const auto edges = g.edges();
  const std::size_t cut = (edges.size() * 4) / 5;
  const auto deleted = edges.subspan(cut);

  engine::EngineConfig cfg = small_engine(3);
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(edges);
  counter.remove_edges(deleted);
  const engine::CountReport r = counter.recount();

  const graph::EdgeList rest = remaining_graph(g, deleted);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.rounded(), graph::reference_triangle_count(rest));
  EXPECT_EQ(r.edges_deleted, deleted.size());
  EXPECT_GT(r.sample_evictions, 0u);

  // Parity with the exact oracle through the engine API.
  auto oracle = engine::make_engine("cpu-incremental", small_engine());
  oracle->add_edges(edges);
  oracle->remove_edges(deleted);
  EXPECT_EQ(oracle->recount().rounded(), r.rounded());
}

TEST(PimDynamicTest, DeleteEverythingCountsZeroAndRecovers) {
  graph::EdgeList g = graph::gen::complete(16);
  engine::EngineConfig cfg = small_engine(2);
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(g.edges());
  EXPECT_EQ(counter.recount().rounded(), binomial(16, 3));

  counter.remove_edges(g.edges());
  const engine::CountReport empty = counter.recount();
  EXPECT_EQ(empty.rounded(), 0u);
  EXPECT_TRUE(empty.exact);

  // The session keeps working after total deletion (delete-then-reinsert
  // round-trip at pipeline scale).
  counter.add_edges(g.edges());
  const engine::CountReport again = counter.recount();
  EXPECT_EQ(again.rounded(), binomial(16, 3));
  EXPECT_TRUE(again.exact);
}

TEST(PimDynamicTest, NeverInsertedDeleteIsANoOpInTheExactRegime) {
  // While every reservoir still covers its live subgraph, a deletion that
  // misses the sample on both orientations is provably bogus: it must be
  // dropped as a counted no-op, never registered as random-pairing debt
  // (which would silently discard the next live insertion).
  engine::EngineConfig cfg = small_engine(2);
  tc::PimTriangleCounter counter(cfg);
  counter.remove_edges(std::vector<Edge>{{7, 8}});  // empty session delete
  const std::vector<Edge> tri{{1, 2}, {2, 3}, {1, 3}};
  counter.add_edges(tri);
  const engine::CountReport r = counter.recount();
  EXPECT_EQ(r.rounded(), 1u);
  EXPECT_TRUE(r.exact);
  EXPECT_GT(r.delete_misses, 0u);
  EXPECT_EQ(r.sample_evictions, 0u);

  // Same through a populated session: the estimate must not move.
  graph::EdgeList g = graph::gen::complete(10);
  tc::PimTriangleCounter full(cfg);
  full.add_edges(g.edges());
  const TriangleCount before = full.recount().rounded();
  full.remove_edges(std::vector<Edge>{{500, 600}});
  full.remove_edges(std::vector<Edge>{{0, 1}});  // real delete for contrast
  full.remove_edges(std::vector<Edge>{{0, 1}});  // double delete: now absent
  const engine::CountReport after = full.recount();
  EXPECT_EQ(after.rounded(), before - 8);  // K10: one edge closes 8
  EXPECT_TRUE(after.exact);
  EXPECT_GT(after.delete_misses, 0u);
}

TEST(PimDynamicTest, ReversedOrientationDeletesMatch) {
  graph::EdgeList g = graph::gen::complete(10);
  engine::EngineConfig cfg = small_engine(2);
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(g.edges());
  // Delete with endpoints swapped relative to the stored orientation.
  std::vector<Edge> reversed;
  for (const Edge e : g.edges().subspan(0, 10)) reversed.push_back(e.reversed());
  counter.remove_edges(reversed);
  const graph::EdgeList rest = remaining_graph(g, g.edges().subspan(0, 10));
  EXPECT_EQ(counter.recount().rounded(), graph::reference_triangle_count(rest));
}

TEST(PimDynamicTest, MixedStreamInvariantUnderPlacementPolicies) {
  // Estimator state is keyed by triplet, so a ± stream must produce
  // bit-identical estimates under every placement policy.
  graph::EdgeList g = graph::gen::barabasi_albert(500, 4, 51);
  graph::preprocess(g, 52);
  const auto edges = g.edges();
  const std::size_t cut = (edges.size() * 3) / 4;

  double ref = -1.0;
  for (const color::PlacementPolicy policy :
       {color::PlacementPolicy::kIdentity,
        color::PlacementPolicy::kKindInterleave,
        color::PlacementPolicy::kGreedyBalance}) {
    engine::EngineConfig cfg = small_engine(3);
    cfg.placement = policy;
    tc::PimTriangleCounter counter(cfg);
    counter.add_edges(edges.subspan(0, cut));
    counter.remove_edges(edges.subspan(cut / 2, 100));
    counter.add_edges(edges.subspan(cut));
    counter.remove_edges(edges.subspan(0, 50));
    const engine::CountReport r = counter.recount();
    if (ref < 0.0) {
      ref = r.estimate;
      // Cross-check against the reference count of the final graph.
      std::vector<Edge> gone(edges.begin() + cut / 2,
                             edges.begin() + cut / 2 + 100);
      gone.insert(gone.end(), edges.begin(), edges.begin() + 50);
      const graph::EdgeList rest = remaining_graph(g, gone);
      EXPECT_EQ(r.rounded(), graph::reference_triangle_count(rest));
    } else {
      EXPECT_EQ(r.estimate, ref) << color::to_string(policy);
    }
  }
}

TEST(PimDynamicTest, MixedStreamInvariantUnderIntersectPolicy) {
  graph::EdgeList g = graph::gen::barabasi_albert(600, 5, 61);
  graph::gen::add_hubs(g, 2, 150, 62);
  graph::preprocess(g, 63);
  const auto edges = g.edges();
  const std::size_t cut = (edges.size() * 4) / 5;

  double ref = -1.0;
  std::uint64_t ref_raw = 0;
  for (const tc::IntersectPolicy policy :
       {tc::IntersectPolicy::kAuto, tc::IntersectPolicy::kMerge,
        tc::IntersectPolicy::kGallop}) {
    engine::EngineConfig cfg = small_engine(3);
    cfg.intersect = policy;
    tc::PimTriangleCounter counter(cfg);
    counter.add_edges(edges);
    counter.remove_edges(edges.subspan(cut));
    const engine::CountReport r = counter.recount();
    if (ref < 0.0) {
      ref = r.estimate;
      ref_raw = r.raw_total;
    } else {
      EXPECT_EQ(r.estimate, ref) << tc::to_string(policy);
      EXPECT_EQ(r.raw_total, ref_raw) << tc::to_string(policy);
    }
  }
}

TEST(PimDynamicTest, InsertOnlyApplyIsBitIdenticalToAddEdges) {
  // Criterion: insert-only streams through the new verb take the legacy
  // path verbatim — with sampling, overflow and Misra-Gries all active.
  graph::EdgeList g = graph::gen::barabasi_albert(700, 5, 71);
  graph::preprocess(g, 72);
  const auto edges = g.edges();
  const std::size_t half = edges.size() / 2;

  engine::EngineConfig cfg = small_engine(3);
  cfg.uniform_p = 0.7;
  cfg.misra_gries_enabled = true;
  cfg.sample_capacity_edges = edges.size() / 4;  // forces overflow somewhere

  tc::PimTriangleCounter a(cfg);
  a.add_edges(edges.subspan(0, half));
  a.add_edges(edges.subspan(half));
  const engine::CountReport ra = a.recount();

  tc::PimTriangleCounter b(cfg);
  b.apply(inserts_of(edges.subspan(0, half)));
  b.apply(inserts_of(edges.subspan(half)));
  const engine::CountReport rb = b.recount();

  EXPECT_EQ(ra.estimate, rb.estimate);
  EXPECT_EQ(ra.raw_total, rb.raw_total);
  EXPECT_EQ(ra.edges_kept, rb.edges_kept);
  EXPECT_EQ(rb.edges_deleted, 0u);
  EXPECT_EQ(rb.sample_evictions, 0u);
}

TEST(PimDynamicTest, IncrementalModeInvalidatesOnlyDirtyTriplets) {
  graph::EdgeList g = graph::gen::community(700, 40, 0.5, 500, 81);
  graph::preprocess(g, 82);
  const auto edges = g.edges();
  const std::size_t cut = (edges.size() * 3) / 4;

  engine::EngineConfig cfg = small_engine(4);
  cfg.incremental = true;
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(edges.subspan(0, cut));
  // Full pass; persists the sorted arcs.
  const engine::CountReport first = counter.recount();
  EXPECT_FALSE(first.used_incremental);

  // Delete a handful of edges: only the triplets that sampled them go
  // dirty; everything else keeps the incremental path.
  counter.remove_edges(edges.subspan(0, 8));
  counter.add_edges(edges.subspan(cut));
  const engine::CountReport second = counter.recount();
  EXPECT_TRUE(second.used_incremental);
  EXPECT_GT(second.dirty_full_recounts, 0u);
  EXPECT_LT(second.dirty_full_recounts, second.num_units);

  const graph::EdgeList rest = remaining_graph(g, edges.subspan(0, 8));
  EXPECT_EQ(second.rounded(), graph::reference_triangle_count(rest));
  EXPECT_TRUE(second.exact);

  // A third, deletion-free incremental recount stays fully incremental.
  counter.add_edges(edges.subspan(0, 8));
  const engine::CountReport third = counter.recount();
  EXPECT_TRUE(third.used_incremental);
  EXPECT_EQ(third.dirty_full_recounts, 0u);
  EXPECT_EQ(third.rounded(), graph::reference_triangle_count(g));
}

TEST(PimDynamicTest, ChurnUnderOverflowStaysNearTruth) {
  // Sampled regime (capacity overflow) on the fig4 hub-heavy shape: the
  // random-pairing estimator must stay within the usual estimator
  // tolerance of the exact count of the surviving graph.
  graph::EdgeList g = graph::gen::barabasi_albert(2500, 5, 91);
  graph::gen::add_hubs(g, 3, 600, 92);
  graph::preprocess(g, 93);
  const auto edges = g.edges();
  const std::size_t cut = (edges.size() * 4) / 5;  // 20% churned away
  const graph::EdgeList rest = remaining_graph(g, edges.subspan(cut));
  const auto truth =
      static_cast<double>(graph::reference_triangle_count(rest));

  double sum = 0.0;
  const int trials = 5;
  std::uint64_t overflows = 0;
  for (int s = 0; s < trials; ++s) {
    engine::EngineConfig cfg = small_engine(3);
    cfg.seed = 9000 + s;
    cfg.sample_capacity_edges = edges.size() / 4;
    tc::PimTriangleCounter counter(cfg);
    counter.add_edges(edges);
    counter.remove_edges(edges.subspan(cut));
    const engine::CountReport r = counter.recount();
    EXPECT_FALSE(r.exact);
    overflows += r.reservoir_overflows;
    sum += r.estimate;
  }
  EXPECT_GT(overflows, 0u);
  EXPECT_NEAR(sum / trials, truth, truth * 0.2);
}

TEST(PimDynamicTest, InsertsPairedAgainstDeletionsLandWhereTheMirrorSays) {
  // Overflowed reservoirs, then deletions that both hit and miss the
  // samples, then a batch small enough to fit the freed slots.  Its offers
  // pair against the pending deletions, so some are discarded: they must
  // not be written as one append run.  Restoring every bank from the host
  // mirrors must then leave each bank's sample region as it was.
  graph::EdgeList g = graph::gen::barabasi_albert(2500, 5, 95);
  graph::preprocess(g, 96);
  const auto edges = g.edges();
  const std::size_t cut = edges.size() * 19 / 20;
  engine::EngineConfig cfg = small_engine(3);
  cfg.sample_capacity_edges = cut / 8;
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(edges.subspan(0, cut));
  std::vector<EdgeUpdate> deletions;
  for (std::size_t i = 0; i < cut; i += 4) {
    deletions.push_back(delete_of(edges[i]));
  }
  counter.apply(deletions);
  counter.add_edges(edges.subspan(cut));
  const engine::CountReport r = counter.recount();
  ASSERT_GT(r.sample_evictions, 0u);
  ASSERT_GT(r.reservoir_overflows, 0u);  // so deletions also miss samples

  const std::vector<Edge> before = sample_regions(counter);
  for (std::uint32_t t = 0; t < counter.triplets().num_triplets(); ++t) {
    counter.restore_bank(t);
  }
  EXPECT_TRUE(sample_regions(counter) == before);
}

TEST(PimDynamicTest, OlderSlotReplacementsLandWhereTheMirrorSays) {
  // Mirrors valid from the start, then insert batches into reservoirs far
  // below the per-core load: later batches and staging rounds replace
  // slots that earlier ones filled.  Restoring every bank from the host
  // mirrors must leave each bank's sample region as it was, and the
  // staging rounds must not change what lands there.
  graph::EdgeList g = graph::gen::barabasi_albert(2500, 5, 97);
  graph::preprocess(g, 98);
  const auto edges = g.edges();
  std::vector<std::vector<Edge>> regions;
  for (const std::uint64_t staging : {0u, 64u}) {
    engine::EngineConfig cfg = small_engine(3);
    cfg.sample_capacity_edges = 128;
    cfg.staging_capacity_edges = staging;
    tc::PimTriangleCounter counter(cfg);
    counter.ensure_mirrors();  // nothing resident: no gather
    EXPECT_EQ(counter.system().transfer_stats().pull_transfers, 0u);
    const std::size_t batch = edges.size() / 5 + 1;
    for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
      counter.add_edges(edges.subspan(lo, std::min(batch, edges.size() - lo)));
    }
    ASSERT_GT(counter.recount().reservoir_overflows, 0u);

    regions.push_back(sample_regions(counter));
    for (std::uint32_t t = 0; t < counter.triplets().num_triplets(); ++t) {
      counter.restore_bank(t);
    }
    EXPECT_TRUE(sample_regions(counter) == regions.back())
        << "staging " << staging;
  }
  EXPECT_TRUE(regions[0] == regions[1]);
}

TEST(PimDynamicTest, PipelinedOverlapNeverExceedsHostTime) {
  // Pipelined ingest hides in-flight device time only under host work it
  // measured, so across a ± session the hidden total is bounded by the
  // host time the report charges.  Small staging rounds give every batch
  // several settles.
  graph::EdgeList g = graph::gen::barabasi_albert(1500, 5, 101);
  graph::preprocess(g, 102);
  const auto edges = g.edges();
  engine::EngineConfig cfg = small_engine(4);
  cfg.pipelined_ingest = true;
  cfg.staging_capacity_edges = 16;
  tc::PimTriangleCounter counter(cfg);
  const std::size_t batch = edges.size() / 8;
  for (std::size_t lo = 0; lo < edges.size(); lo += batch) {
    const std::size_t n = std::min(batch, edges.size() - lo);
    std::vector<EdgeUpdate> mixed = inserts_of(edges.subspan(lo, n));
    const std::size_t dels = std::min<std::size_t>(lo, 64);
    for (const EdgeUpdate& u : deletes_of(edges.subspan(lo - dels, dels))) {
      mixed.push_back(u);
    }
    counter.apply(mixed);
  }
  const engine::CountReport r = counter.recount();
  EXPECT_GT(r.edges_deleted, 0u);
  EXPECT_GT(r.transfers.overlap_saved_s, 0.0);
  EXPECT_LE(r.transfers.overlap_saved_s, r.times.host_s);
}

// ---- engine API contract ----------------------------------------------------

TEST(EngineDynamicTest, BaseApplyForwardsInsertsAndRejectsDeletes) {
  graph::EdgeList g = graph::gen::complete(9);
  auto cpu = engine::make_engine("cpu", small_engine());
  cpu->apply(inserts_of(g.edges()));  // all-insert: forwarded to add_edges
  EXPECT_EQ(cpu->recount().rounded(), binomial(9, 3));
  EXPECT_THROW(cpu->apply(deletes_of(g.edges().subspan(0, 1))),
               std::invalid_argument);
}

TEST(EngineDynamicTest, PimApplyRejectsDeletionsUnderUniformSampling) {
  engine::EngineConfig cfg = small_engine();
  cfg.uniform_p = 0.5;
  auto pim = engine::make_engine("pim", cfg);
  graph::EdgeList g = graph::gen::complete(9);
  pim->add_edges(g.edges());
  EXPECT_THROW(pim->apply(deletes_of(g.edges().subspan(0, 1))),
               std::invalid_argument);
}

TEST(EngineDynamicTest, PimReportCarriesDynamicCounters) {
  graph::EdgeList g = graph::gen::complete(14);
  auto pim = engine::make_engine("pim", small_engine(2));
  pim->add_edges(g.edges());
  pim->remove_edges(g.edges().subspan(0, 5));
  const engine::CountReport r = pim->recount();
  EXPECT_EQ(r.edges_deleted, 5u);
  EXPECT_GT(r.sample_evictions, 0u);
  const graph::EdgeList rest = remaining_graph(g, g.edges().subspan(0, 5));
  EXPECT_EQ(r.rounded(), graph::reference_triangle_count(rest));
}

}  // namespace
}  // namespace pimtc
