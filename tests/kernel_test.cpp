// Tests for the DPU counting kernel in isolation: a single DPU is loaded
// with a full (un-partitioned) edge sample, and the kernel must produce the
// exact triangle count — checked against the trusted reference.  Also
// exercises the remap path, layout invariants and WRAM discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "graph/stats.hpp"
#include "pim/dpu.hpp"
#include "tc/intersect.hpp"
#include "tc/kernel.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {
namespace {

pim::PimSystemConfig test_config() {
  pim::PimSystemConfig cfg;
  cfg.mram_bytes = 16ull << 20;
  return cfg;
}

/// Loads `edges` into a fresh DPU's sample region and runs the kernel.
DpuMeta run_kernel_on(pim::Dpu& dpu, const std::vector<Edge>& edges,
                      const KernelParams& params,
                      const std::vector<NodeId>& remap = {}) {
  DpuMeta meta;
  meta.sample_size = edges.size();
  meta.edges_seen = edges.size();
  meta.sample_capacity = edges.size() + 1;
  meta.num_remap = static_cast<std::uint32_t>(remap.size());
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  if (!remap.empty()) {
    dpu.mram().write(MramLayout::kRemapOffset, remap.data(),
                     remap.size() * sizeof(NodeId));
  }
  if (!edges.empty()) {
    dpu.mram().write(MramLayout::sample_offset(), edges.data(),
                     edges.size() * sizeof(Edge));
  }
  run_count_kernel(dpu, params);
  return dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
}

std::vector<Edge> to_vector(const graph::EdgeList& g) {
  return {g.begin(), g.end()};
}

class KernelExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(KernelExactnessTest, MatchesReferenceOnRandomGraphs) {
  const auto [seed, tasklets] = GetParam();
  const graph::EdgeList g =
      graph::gen::erdos_renyi(300, 1800, static_cast<std::uint64_t>(seed));
  const TriangleCount expected = graph::reference_triangle_count(g);

  pim::Dpu dpu(test_config(), 0);
  KernelParams params;
  params.tasklets = tasklets;
  const DpuMeta out = run_kernel_on(dpu, to_vector(g), params);
  EXPECT_EQ(out.triangle_count, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTasklets, KernelExactnessTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(1u, 2u, 11u, 16u)));

TEST(KernelTest, EmptySampleCountsZero) {
  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out = run_kernel_on(dpu, {}, KernelParams{});
  EXPECT_EQ(out.triangle_count, 0u);
  EXPECT_EQ(out.num_regions, 0u);
}

TEST(KernelTest, SingleEdgeCountsZero) {
  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out = run_kernel_on(dpu, {{0, 1}}, KernelParams{});
  EXPECT_EQ(out.triangle_count, 0u);
  EXPECT_EQ(out.num_regions, 1u);
}

TEST(KernelTest, SingleTriangleAnyOrientation) {
  // All 8 orientation combinations of the triangle's edges must count 1.
  for (int mask = 0; mask < 8; ++mask) {
    std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}};
    for (int b = 0; b < 3; ++b) {
      if (mask & (1 << b)) edges[b] = edges[b].reversed();
    }
    pim::Dpu dpu(test_config(), 0);
    const DpuMeta out = run_kernel_on(dpu, edges, KernelParams{});
    EXPECT_EQ(out.triangle_count, 1u) << "orientation mask " << mask;
  }
}

TEST(KernelTest, CompleteGraphExactCount) {
  const graph::EdgeList g = graph::gen::complete(40);  // binom(40,3) = 9880
  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out = run_kernel_on(dpu, to_vector(g), KernelParams{});
  EXPECT_EQ(out.triangle_count, 9880u);
}

TEST(KernelTest, ShuffledInputSameCount) {
  graph::EdgeList g = graph::gen::wheel(50);
  const TriangleCount expected = graph::reference_triangle_count(g);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    graph::shuffle_edges(g, seed);
    pim::Dpu dpu(test_config(), 0);
    const DpuMeta out = run_kernel_on(dpu, to_vector(g), KernelParams{});
    EXPECT_EQ(out.triangle_count, expected) << "seed " << seed;
  }
}

TEST(KernelTest, RegionCountEqualsDistinctFirstNodes) {
  // After canonicalization+sort, regions = distinct min-endpoints.
  const std::vector<Edge> edges = {{5, 1}, {1, 2}, {2, 3}, {1, 7}, {4, 9}};
  // canonical first nodes: 1 (from 5,1), 1, 2, 1, 4 -> distinct {1, 2, 4}.
  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out = run_kernel_on(dpu, edges, KernelParams{});
  EXPECT_EQ(out.num_regions, 3u);
}

TEST(KernelTest, RemapPreservesCount) {
  // Remapping node ids is a graph isomorphism: counts must not change.
  const graph::EdgeList g = graph::gen::barabasi_albert(400, 5, 17);
  const TriangleCount expected = graph::reference_triangle_count(g);

  // Remap the 8 highest-degree nodes (any nodes work for correctness).
  const auto deg = graph::degrees(g);
  std::vector<NodeId> by_degree(deg.size());
  for (NodeId u = 0; u < deg.size(); ++u) by_degree[u] = u;
  std::sort(by_degree.begin(), by_degree.end(),
            [&deg](NodeId a, NodeId b) { return deg[a] > deg[b]; });
  by_degree.resize(8);

  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out =
      run_kernel_on(dpu, to_vector(g), KernelParams{}, by_degree);
  EXPECT_EQ(out.triangle_count, expected);
}

TEST(KernelTest, HubPathologyHandledByGallopAndRemap) {
  // The Section 3.5 pathology: hub 0 (lowest id) neighbors every leaf, and
  // every leaf also points at a high-id anchor.  Each hub edge (0, x) then
  // intersects the *remainder of the hub's huge region* against
  // region(x) = {anchor}; a pure linear merge walks O(deg) edges per hub
  // edge — O(deg^2) total.  Two independent mechanisms now collapse it:
  // the adaptive intersection gallops the 1-element region into the hub's
  // (small * log(large)), and the high-degree remap moves the hub to the
  // highest id so its region is never the intersected suffix at all.
  const NodeId n = 1500;  // anchor node id
  graph::EdgeList g;
  for (NodeId x = 1; x < n; ++x) {
    g.push_back({0, x});
    g.push_back({x, n});
  }
  g.push_back({0, n});
  const TriangleCount expected = graph::reference_triangle_count(g);
  ASSERT_EQ(expected, n - 1);  // triangles (0, x, anchor)

  KernelParams merge_only;
  merge_only.intersect = IntersectPolicy::kMerge;

  pim::Dpu merged(test_config(), 0);
  const DpuMeta out_merge = run_kernel_on(merged, to_vector(g), merge_only);

  pim::Dpu adaptive(test_config(), 1);
  const DpuMeta out_adapt = run_kernel_on(adaptive, to_vector(g),
                                          KernelParams{});  // auto policy

  pim::Dpu remapped(test_config(), 2);
  const DpuMeta out_remap =
      run_kernel_on(remapped, to_vector(g), KernelParams{}, {0});  // hub = 0

  EXPECT_EQ(out_merge.triangle_count, expected);
  EXPECT_EQ(out_adapt.triangle_count, expected);
  EXPECT_EQ(out_remap.triangle_count, expected);
  // The adaptive intersection alone must yield a large win over the pure
  // merge (it galloped the hub intersections)...
  EXPECT_GT(out_adapt.gallop_isects, 0u);
  EXPECT_LT(adaptive.cycles() * 5.0, merged.cycles());
  // ...and the degree remap still helps on top (hub region gone entirely).
  EXPECT_LT(remapped.cycles(), adaptive.cycles());
}

TEST(KernelTest, MoreTaskletsReduceSimulatedTime) {
  const graph::EdgeList g = graph::gen::erdos_renyi(500, 4000, 5);
  KernelParams p1;
  p1.tasklets = 1;
  KernelParams p16;
  p16.tasklets = 16;

  pim::Dpu d1(test_config(), 0);
  (void)run_kernel_on(d1, to_vector(g), p1);
  pim::Dpu d16(test_config(), 1);
  (void)run_kernel_on(d16, to_vector(g), p16);
  EXPECT_LT(d16.cycles(), d1.cycles());
}

TEST(KernelTest, BufferSizeDoesNotChangeResult) {
  const graph::EdgeList g = graph::gen::erdos_renyi(400, 3000, 9);
  const TriangleCount expected = graph::reference_triangle_count(g);
  for (const std::uint32_t buf : {8u, 16u, 64u, 256u}) {
    KernelParams p;
    p.buffer_edges = buf;
    pim::Dpu dpu(test_config(), 0);
    const DpuMeta out = run_kernel_on(dpu, to_vector(g), p);
    EXPECT_EQ(out.triangle_count, expected) << "buffer " << buf;
  }
}

TEST(KernelTest, SampleRegionUntouchedByKernel) {
  // The kernel sorts a *copy*; the reservoir sample must stay byte-identical
  // (dynamic counting depends on it).
  const std::vector<Edge> edges = {{9, 2}, {3, 1}, {2, 3}, {1, 9}, {2, 1}};
  pim::Dpu dpu(test_config(), 0);
  (void)run_kernel_on(dpu, edges, KernelParams{});
  std::vector<Edge> after(edges.size());
  dpu.mram().read(MramLayout::sample_offset(), after.data(),
                  after.size() * sizeof(Edge));
  EXPECT_EQ(after, edges);
}

TEST(KernelTest, RepeatedRunsAreIdempotent) {
  const graph::EdgeList g = graph::gen::erdos_renyi(200, 1200, 3);
  pim::Dpu dpu(test_config(), 0);
  const DpuMeta first = run_kernel_on(dpu, to_vector(g), KernelParams{});
  run_count_kernel(dpu, KernelParams{});
  const DpuMeta second = dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
  EXPECT_EQ(first.triangle_count, second.triangle_count);
  EXPECT_EQ(first.num_regions, second.num_regions);
}

TEST(KernelTest, LayoutOffsetsAreDisjoint) {
  const std::uint64_t cap = 1000;
  EXPECT_GE(MramLayout::sample_offset(), MramLayout::kRemapOffset +
                                             MramLayout::kMaxRemap *
                                                 sizeof(NodeId));
  // sample (M edges) | S* (2M arcs) | flags (2M bytes) | A (2M) | B (2M) |
  // regions (2M entries).
  EXPECT_EQ(MramLayout::sorted_offset(cap),
            MramLayout::sample_offset() + cap * sizeof(Edge));
  EXPECT_EQ(MramLayout::flags_offset(cap),
            MramLayout::sorted_offset(cap) + 2 * cap * sizeof(Edge));
  EXPECT_GE(MramLayout::work_a_offset(cap),
            MramLayout::flags_offset(cap) + 2 * cap);
  EXPECT_EQ(MramLayout::work_b_offset(cap),
            MramLayout::work_a_offset(cap) + 2 * cap * sizeof(Edge));
  EXPECT_EQ(MramLayout::region_offset(cap),
            MramLayout::work_b_offset(cap) + 2 * cap * sizeof(Edge));
}

TEST(KernelTest, MaxCapacityLeavesRoomForScratch) {
  const std::uint64_t mram = 64ull << 20;
  const std::uint64_t cap = MramLayout::max_capacity(mram);
  EXPECT_GT(cap, 0u);
  EXPECT_LE(MramLayout::total_bytes(cap), mram);
}

TEST(KernelTest, RemappedIdsAreAboveAllRealIds) {
  EXPECT_GT(remapped_id(0), remapped_id(1));
  EXPECT_EQ(remapped_id(0), kInvalidNode - 1);
}

TEST(KernelTest, MaxCapacityClampsToRegionIndexRange) {
  // RegionEntry.begin is 32-bit: even an absurd simulated bank must not
  // derive a capacity whose 2M-arc arrays it could not index.
  EXPECT_EQ(MramLayout::max_capacity(1ull << 60),
            MramLayout::kMaxCapacityEdges);
  EXPECT_LE(2 * MramLayout::kMaxCapacityEdges - 1,
            std::uint64_t{std::numeric_limits<std::uint32_t>::max()});
}

TEST(KernelTest, RejectsCapacityBeyondRegionIndexRange) {
  // Boundary regression for the RegionEntry.begin truncation hazard: a
  // control block one past kMaxCapacityEdges is rejected by both kernels
  // before any work; the boundary value itself is accepted.
  pim::Dpu dpu(test_config(), 0);
  DpuMeta meta;
  meta.sample_size = 0;
  meta.sample_capacity = MramLayout::kMaxCapacityEdges + 1;
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  EXPECT_THROW(run_count_kernel(dpu, KernelParams{}), std::logic_error);
  EXPECT_THROW(run_incremental_kernel(dpu, KernelParams{}), std::logic_error);

  meta.sample_capacity = MramLayout::kMaxCapacityEdges;
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  EXPECT_NO_THROW(run_count_kernel(dpu, KernelParams{}));
}

// ---- closed-form charges ----------------------------------------------------

/// charge_stream<T> against draining a StreamReader<T> and against filling
/// and flushing a StreamWriter<T> of `records` records through a
/// `buffer`-record WRAM buffer: same DMA tallies, same phase cycles.
template <typename T>
void expect_stream_charge_matches(std::uint64_t buffer,
                                  std::uint64_t records) {
  pim::Dpu reader(test_config(), 0);
  pim::Dpu writer(test_config(), 1);
  pim::Dpu charged(test_config(), 2);
  std::vector<T> wram(buffer);
  constexpr std::uint64_t kBase = 4096;
  reader.parallel(1, [&](pim::Tasklet& t) {
    StreamReader<T> in(t, std::span<T>(wram), kBase, 0, records);
    T value;
    while (in.next(value)) {
    }
  });
  writer.parallel(1, [&](pim::Tasklet& t) {
    StreamWriter<T> out(t, std::span<T>(wram), kBase, 0);
    for (std::uint64_t i = 0; i < records; ++i) out.put(T{});
    out.flush();
  });
  charged.parallel(1, [&](pim::Tasklet& t) {
    charge_stream<T>(t, records, buffer);
  });
  for (const pim::Dpu* streamed : {&reader, &writer}) {
    const char* kind = streamed == &reader ? "reader" : "writer";
    EXPECT_EQ(charged.dma_transfers(), streamed->dma_transfers())
        << kind << " sizeof=" << sizeof(T) << " buffer=" << buffer
        << " records=" << records;
    EXPECT_EQ(charged.dma_bytes(), streamed->dma_bytes())
        << kind << " sizeof=" << sizeof(T) << " buffer=" << buffer
        << " records=" << records;
    EXPECT_EQ(charged.cycles(), streamed->cycles())
        << kind << " sizeof=" << sizeof(T) << " buffer=" << buffer
        << " records=" << records;
  }
}

TEST(ClosedFormChargeTest, ChargeStreamMatchesStreamedDma) {
  for (const std::uint64_t b : {4u, 7u, 9u, 64u}) {
    for (const std::uint64_t records :
         {std::uint64_t{0}, std::uint64_t{1}, b - 1, b, b + 1, 3 * b + 5}) {
      expect_stream_charge_matches<Edge>(b, records);
      expect_stream_charge_matches<RegionEntry>(b, records);
      expect_stream_charge_matches<std::uint8_t>(b, records);
    }
  }
}

TEST(ClosedFormChargeTest, SearchStepsMatchesTheKernelLoop) {
  // The kernels' lower-bound loop over sorted entries 2, 4, 6, ... with a
  // key that leaves exactly r of them below it; count its probes.
  const auto loop_probes = [](std::uint64_t size, std::uint64_t r) {
    std::vector<Edge> entries(size);
    for (std::uint64_t i = 0; i < size; ++i) {
      entries[i] = {0, static_cast<NodeId>(2 * (i + 1))};
    }
    const Edge key{0, static_cast<NodeId>(2 * r + 1)};
    std::uint64_t lo = 0;
    std::uint64_t hi = size;
    std::uint64_t probes = 0;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (entries[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
      ++probes;
    }
    EXPECT_EQ(lo, r);
    return probes;
  };
  std::vector<std::uint64_t> sizes(301);
  for (std::uint64_t s = 0; s <= 300; ++s) sizes[s] = s;
  sizes.push_back(2048);
  for (const std::uint64_t size : sizes) {
    for (std::uint64_t r = 0; r <= size; ++r) {
      ASSERT_EQ(search_steps(size, r), loop_probes(size, r))
          << "size=" << size << " r=" << r;
    }
  }
}

// ---- intersection-policy equivalence --------------------------------------

/// Adversarial region shapes for the adaptive intersection: a pure star
/// (one huge region, no triangles), a clique (all regions dense), two hubs
/// sharing every leaf (huge x huge intersections with matches), and a
/// skewed power-law graph with planted mega-hubs.
std::vector<std::pair<const char*, graph::EdgeList>> adversarial_graphs() {
  std::vector<std::pair<const char*, graph::EdgeList>> out;
  out.emplace_back("star", graph::gen::star(500));
  out.emplace_back("clique", graph::gen::complete(40));

  graph::EdgeList two_hub;
  for (NodeId x = 2; x < 400; ++x) {
    two_hub.push_back({0, x});
    two_hub.push_back({1, x});
  }
  two_hub.push_back({0, 1});
  out.emplace_back("two-hub", std::move(two_hub));

  graph::EdgeList skewed = graph::gen::barabasi_albert(600, 5, 77);
  graph::gen::add_hubs(skewed, 2, 150, 78);
  graph::preprocess(skewed, 79);
  out.emplace_back("skewed-power-law", std::move(skewed));
  return out;
}

constexpr IntersectPolicy kAllPolicies[] = {
    IntersectPolicy::kMerge, IntersectPolicy::kGallop, IntersectPolicy::kAuto};

TEST(IntersectPolicyTest, StaticCountsBitIdenticalAcrossPolicies) {
  for (const auto& [name, g] : adversarial_graphs()) {
    const TriangleCount expected = graph::reference_triangle_count(g);
    for (const IntersectPolicy policy : kAllPolicies) {
      KernelParams p;
      p.intersect = policy;
      pim::Dpu dpu(test_config(), 0);
      const DpuMeta out = run_kernel_on(dpu, to_vector(g), p);
      EXPECT_EQ(out.triangle_count, expected)
          << name << " under " << to_string(policy);
    }
  }
}

TEST(IntersectPolicyTest, TallyReflectsForcedPolicy) {
  const graph::EdgeList g = adversarial_graphs()[3].second;  // skewed
  KernelParams p;

  p.intersect = IntersectPolicy::kMerge;
  pim::Dpu merged(test_config(), 0);
  const DpuMeta out_m = run_kernel_on(merged, to_vector(g), p);
  EXPECT_GT(out_m.merge_isects, 0u);
  EXPECT_GT(out_m.merge_picks, 0u);
  EXPECT_EQ(out_m.gallop_isects, 0u);
  EXPECT_EQ(out_m.gallop_probes, 0u);
  EXPECT_GT(out_m.chunks_claimed, 0u);

  p.intersect = IntersectPolicy::kGallop;
  pim::Dpu galloped(test_config(), 1);
  const DpuMeta out_g = run_kernel_on(galloped, to_vector(g), p);
  EXPECT_GT(out_g.gallop_isects, 0u);
  EXPECT_GT(out_g.gallop_probes, 0u);
  EXPECT_EQ(out_g.merge_isects, 0u);
  EXPECT_EQ(out_g.merge_picks, 0u);

  p.intersect = IntersectPolicy::kAuto;
  pim::Dpu adaptive(test_config(), 2);
  const DpuMeta out_a = run_kernel_on(adaptive, to_vector(g), p);
  // The skewed graph must exercise both paths under the cost model.
  EXPECT_GT(out_a.merge_isects, 0u);
  EXPECT_GT(out_a.gallop_isects, 0u);
  EXPECT_EQ(out_a.merge_isects + out_a.gallop_isects,
            out_m.merge_isects + out_m.gallop_isects);
}

// ---- incremental kernel --------------------------------------------------

/// Loads `prefix` edges, runs a persisting full count, appends the rest in
/// `batches` chunks via the incremental kernel, and returns the final meta.
DpuMeta run_incremental_on(pim::Dpu& dpu, const std::vector<Edge>& edges,
                           std::size_t prefix, std::size_t batches,
                           const KernelParams& params,
                           const std::vector<NodeId>& remap = {}) {
  DpuMeta meta;
  meta.sample_size = prefix;
  meta.edges_seen = prefix;
  meta.sample_capacity = edges.size() + 1;
  meta.num_remap = static_cast<std::uint32_t>(remap.size());
  meta.flags = DpuMeta::kFlagPersistSorted;
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  if (!remap.empty()) {
    dpu.mram().write(MramLayout::kRemapOffset, remap.data(),
                     remap.size() * sizeof(NodeId));
  }
  dpu.mram().write(MramLayout::sample_offset(), edges.data(),
                   prefix * sizeof(Edge));
  run_count_kernel(dpu, params);

  const std::size_t rest = edges.size() - prefix;
  const std::size_t step = std::max<std::size_t>(1, rest / batches);
  std::size_t done = prefix;
  while (done < edges.size()) {
    const std::size_t hi = std::min(edges.size(), done + step);
    dpu.mram().write(MramLayout::sample_offset() + done * sizeof(Edge),
                     edges.data() + done, (hi - done) * sizeof(Edge));
    meta = dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
    meta.sample_size = hi;
    meta.edges_seen = hi;
    dpu.mram().write_t(MramLayout::kMetaOffset, meta);
    run_incremental_kernel(dpu, params);
    done = hi;
  }
  return dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
}

class IncrementalKernelTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IncrementalKernelTest, CumulativeCountMatchesReference) {
  const auto [seed, batches] = GetParam();
  graph::EdgeList g =
      graph::gen::erdos_renyi(250, 1500, static_cast<std::uint64_t>(seed));
  graph::shuffle_edges(g, static_cast<std::uint64_t>(seed) + 7);
  const TriangleCount expected = graph::reference_triangle_count(g);

  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out = run_incremental_on(dpu, to_vector(g),
                                         g.num_edges() / 3, batches,
                                         KernelParams{});
  EXPECT_EQ(out.triangle_count, expected)
      << "seed=" << seed << " batches=" << batches;
}

INSTANTIATE_TEST_SUITE_P(SeedsAndBatches, IncrementalKernelTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 3, 7)));

TEST(IncrementalKernelTest, TriangleOwnershipClasses) {
  // Craft a graph where the update contains triangles with exactly one, two
  // and three new edges, plus a triangle whose apex is *smaller* than the
  // new edge's endpoints (the case a canonical-only index would miss).
  const std::vector<Edge> old_edges = {
      {0, 1}, {1, 2},          // wedge: closing edge (0,2) arrives later
      {10, 11},                // one old edge of a 2-new triangle
      {20, 21}, {20, 22}, {21, 22},  // an old triangle (must not recount)
      {5, 30}, {5, 31},        // apex 5 < 30,31: new edge (30,31) closes it
  };
  const std::vector<Edge> new_edges = {
      {0, 2},                  // 1-new triangle (0,1,2)
      {10, 12}, {11, 12},      // 2-new triangle (10,11,12)
      {40, 41}, {41, 42}, {40, 42},  // 3-new triangle
      {30, 31},                // closes (5,30,31) with a smaller apex
  };
  std::vector<Edge> all = old_edges;
  all.insert(all.end(), new_edges.begin(), new_edges.end());

  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out = run_incremental_on(dpu, all, old_edges.size(), 1,
                                         KernelParams{});
  // Old triangle counted once by the full pass; four new triangles by the
  // incremental pass.
  EXPECT_EQ(out.triangle_count, 5u);
  EXPECT_EQ(graph::reference_triangle_count(graph::EdgeList(all)), 5u);
}

TEST(IncrementalKernelTest, MatchesFullRecountOnSkewedGraph) {
  graph::EdgeList g = graph::gen::barabasi_albert(500, 5, 23);
  graph::shuffle_edges(g, 24);
  const TriangleCount expected = graph::reference_triangle_count(g);

  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out =
      run_incremental_on(dpu, to_vector(g), g.num_edges() / 2, 4,
                         KernelParams{});
  EXPECT_EQ(out.triangle_count, expected);
}

TEST(IncrementalKernelTest, WorksWithRemapTable) {
  graph::EdgeList g = graph::gen::barabasi_albert(400, 4, 31);
  graph::shuffle_edges(g, 32);
  const TriangleCount expected = graph::reference_triangle_count(g);

  pim::Dpu dpu(test_config(), 0);
  const DpuMeta out = run_incremental_on(dpu, to_vector(g),
                                         g.num_edges() / 2, 3, KernelParams{},
                                         /*remap=*/{0, 1, 2, 3});
  EXPECT_EQ(out.triangle_count, expected);
}

TEST(IncrementalKernelTest, EmptyBatchIsNoop) {
  graph::EdgeList g = graph::gen::complete(20);
  pim::Dpu dpu(test_config(), 0);
  DpuMeta meta;
  meta.sample_size = g.num_edges();
  meta.edges_seen = g.num_edges();
  meta.sample_capacity = g.num_edges() + 1;
  meta.flags = DpuMeta::kFlagPersistSorted;
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  dpu.mram().write(MramLayout::sample_offset(), g.edges().data(),
                   g.num_edges() * sizeof(Edge));
  run_count_kernel(dpu, KernelParams{});
  const auto before = dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
  run_incremental_kernel(dpu, KernelParams{});
  const auto after = dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
  EXPECT_EQ(before.triangle_count, after.triangle_count);
}

TEST(IncrementalKernelTest, RequiresValidSortedState) {
  pim::Dpu dpu(test_config(), 0);
  DpuMeta meta;
  meta.sample_size = 3;
  meta.sample_capacity = 16;
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}};
  dpu.mram().write(MramLayout::sample_offset(), edges.data(),
                   edges.size() * sizeof(Edge));
  EXPECT_THROW(run_incremental_kernel(dpu, KernelParams{}), std::logic_error);
}

TEST(IncrementalKernelTest, IncrementalIsCheaperThanFullRecount) {
  // Ten updates: cumulative incremental cycles must undercut re-running the
  // full kernel after every update — the Figure 7 mechanism.
  graph::EdgeList g = graph::gen::community(2000, 50, 0.4, 2000, 51);
  graph::shuffle_edges(g, 52);
  const auto edges = to_vector(g);
  const std::size_t prefix = edges.size() / 10;

  pim::Dpu inc(test_config(), 0);
  (void)run_incremental_on(inc, edges, prefix, 9, KernelParams{});

  // Full-recount baseline: count after each of the same 10 states.
  pim::Dpu full(test_config(), 1);
  const std::size_t step = (edges.size() - prefix) / 9;
  std::size_t done = prefix;
  for (int i = 0; i < 10; ++i) {
    DpuMeta meta;
    meta.sample_size = done;
    meta.edges_seen = done;
    meta.sample_capacity = edges.size() + 1;
    full.mram().write_t(MramLayout::kMetaOffset, meta);
    full.mram().write(MramLayout::sample_offset(), edges.data(),
                      done * sizeof(Edge));
    run_count_kernel(full, KernelParams{});
    done = std::min(edges.size(), done + step);
  }
  EXPECT_LT(inc.cycles(), full.cycles());
}

TEST(IncrementalKernelTest, CountsBitIdenticalAcrossIntersectPolicies) {
  // The incremental path exercises the shared intersection with the
  // new-flag ownership callback; every policy must land the same deltas on
  // the same adversarial shapes as the static suite.
  for (const auto& [name, g] : adversarial_graphs()) {
    if (g.num_edges() < 6) continue;
    const TriangleCount expected = graph::reference_triangle_count(g);
    for (const IntersectPolicy policy : kAllPolicies) {
      KernelParams p;
      p.intersect = policy;
      pim::Dpu dpu(test_config(), 0);
      const DpuMeta out =
          run_incremental_on(dpu, to_vector(g), g.num_edges() / 2, 3, p);
      EXPECT_EQ(out.triangle_count, expected)
          << name << " under " << to_string(policy);
    }
  }
}

}  // namespace
}  // namespace pimtc::tc
