// Tests for the DPU counting kernel in isolation: a single DPU is loaded
// with a full (un-partitioned) edge sample, and the kernel must produce the
// exact triangle count — checked against the trusted reference.  Also
// exercises the remap path, layout invariants and WRAM discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/math_util.hpp"
#include "common/prng.hpp"
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
//
// The kernels run on host copies and charge their streams in closed form.
// The WRAM-buffered streams below are the device code those charges stand
// for; each test runs both and compares the DMA and instructions issued.

/// Buffered sequential MRAM reader: a tasklet streaming a region of the
/// bank through a WRAM buffer, one transfer per refill.
template <typename T>
class StreamReader {
 public:
  StreamReader(pim::Tasklet& t, std::span<T> buf, std::uint64_t base,
               std::uint64_t begin_idx, std::uint64_t end_idx)
      : t_(&t),
        buf_(buf),
        base_(base),
        next_fetch_(begin_idx),
        buf_base_(begin_idx),
        end_(end_idx) {}

  bool next(T& out) {
    if (cursor_ >= filled_) {
      if (next_fetch_ >= end_) return false;
      refill();
    }
    out = buf_[cursor_++];
    return true;
  }

  /// Absolute index of the record most recently returned by next().
  [[nodiscard]] std::uint64_t last_index() const noexcept {
    return buf_base_ + cursor_ - 1;
  }

 private:
  void refill() {
    const std::uint64_t count =
        std::min<std::uint64_t>(buf_.size(), end_ - next_fetch_);
    t_->mram_read(base_ + next_fetch_ * sizeof(T), buf_.data(),
                  count * sizeof(T));
    buf_base_ = next_fetch_;
    next_fetch_ += count;
    filled_ = static_cast<std::size_t>(count);
    cursor_ = 0;
  }

  pim::Tasklet* t_;
  std::span<T> buf_;
  std::uint64_t base_;
  std::uint64_t next_fetch_;
  std::uint64_t buf_base_;
  std::uint64_t end_;
  std::size_t cursor_ = 0;
  std::size_t filled_ = 0;
};

/// Buffered sequential MRAM writer, one transfer per flushed buffer.
template <typename T>
class StreamWriter {
 public:
  StreamWriter(pim::Tasklet& t, std::span<T> buf, std::uint64_t base,
               std::uint64_t begin_idx)
      : t_(&t), buf_(buf), base_(base), pos_(begin_idx) {}

  void put(const T& value) {
    buf_[cursor_++] = value;
    if (cursor_ == buf_.size()) flush();
  }

  void flush() {
    if (cursor_ == 0) return;
    t_->mram_write(base_ + pos_ * sizeof(T), buf_.data(), cursor_ * sizeof(T));
    pos_ += cursor_;
    cursor_ = 0;
  }

 private:
  pim::Tasklet* t_;
  std::span<T> buf_;
  std::uint64_t base_;
  std::uint64_t pos_;
  std::size_t cursor_ = 0;
};

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

/// The kernel's block search as the device runs it: each probe reads an
/// 8-edge block from the sorted array at MRAM offset `sorted`, then one
/// read resolves the <= 8 remaining entries.
std::uint64_t streamed_gallop_lower_bound(pim::Tasklet& t,
                                          std::uint64_t sorted,
                                          const Region& r, NodeId w,
                                          IntersectTally& tally,
                                          std::uint64_t& instr) {
  using Cost = pim::KernelCostModel;
  std::uint64_t lo = r.begin;
  std::uint64_t hi = r.end;
  std::uint64_t probes = 0;
  Edge block[8];
  while (hi - lo > 8) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const std::uint64_t b = std::min(std::max(mid, lo + 4), hi - 4) - 4;
    t.mram_read(sorted + b * sizeof(Edge), block, sizeof(block));
    if (block[0].v >= w) {
      hi = b + 1;
    } else if (block[7].v < w) {
      lo = b + 8;
    } else {
      lo = b;
      for (int i = 7; i >= 0; --i) {
        if (block[i].v < w) {
          lo = b + i + 1;
          break;
        }
      }
      hi = lo;
    }
    ++probes;
  }
  instr += probes * (Cost::binary_search_step + 8);
  if (hi != lo) {
    const std::uint64_t fetch = hi - lo;
    t.mram_read(sorted + lo * sizeof(Edge), block, fetch * sizeof(Edge));
    instr += Cost::binary_search_step + fetch;
    ++probes;
    std::uint64_t i = 0;
    while (i < fetch && block[i].v < w) ++i;
    lo += i;
  }
  tally.gallop_probes += probes;
  return lo;
}

/// The kernel's intersection as the device runs it: merge both regions
/// through WRAM streams, or stream the small one and block-search each of
/// its records into the large one.
template <typename OnMatch>
void streamed_intersect_regions(pim::Tasklet& t, IntersectPolicy policy,
                                std::uint64_t sorted, const Region& a,
                                const Region& b, std::span<Edge> buf_a,
                                std::span<Edge> buf_b, IntersectTally& tally,
                                std::uint64_t& instr, OnMatch&& on_match) {
  using Cost = pim::KernelCostModel;
  const Region& small = a.size() <= b.size() ? a : b;
  const Region& large = a.size() <= b.size() ? b : a;
  if (small.size() == 0) return;

  if (choose_gallop(policy, small.size(), large.size())) {
    ++tally.gallop_isects;
    StreamReader<Edge> stream_s(t, buf_a, sorted, small.begin, small.end);
    Edge es;
    while (stream_s.next(es)) {
      const NodeId w = es.v;
      const std::uint64_t lo =
          streamed_gallop_lower_bound(t, sorted, large, w, tally, instr);
      instr += Cost::loop_overhead;
      if (lo >= large.end) continue;
      const Edge m = t.mram_read_t<Edge>(sorted + lo * sizeof(Edge));
      ++tally.gallop_probes;
      instr += Cost::binary_search_step;
      if (m.v != w) continue;
      on_match(stream_s.last_index(), es, lo, m);
    }
    return;
  }

  ++tally.merge_isects;
  StreamReader<Edge> stream_a(t, buf_a, sorted, a.begin, a.end);
  StreamReader<Edge> stream_b(t, buf_b, sorted, b.begin, b.end);
  Edge ea;
  Edge eb;
  bool has_a = stream_a.next(ea);
  bool has_b = stream_b.next(eb);
  while (has_a && has_b) {
    instr += Cost::count_merge_step;
    ++tally.merge_picks;
    if (ea.v == eb.v) {
      on_match(stream_a.last_index(), ea, stream_b.last_index(), eb);
      has_a = stream_a.next(ea);
      has_b = stream_b.next(eb);
    } else if (ea.v < eb.v) {
      has_a = stream_a.next(ea);
    } else {
      has_b = stream_b.next(eb);
    }
  }
}

/// A sorted arc array of `regions` adjacency regions (first endpoint =
/// region number), each holding a sorted random subset of [0, range) whose
/// size is drawn from `sizes`, and the region bounds.
std::pair<std::vector<Edge>, std::vector<Region>> random_regions(
    std::uint64_t seed, std::uint32_t regions,
    const std::vector<std::uint32_t>& sizes, NodeId range) {
  std::vector<Edge> arcs;
  std::vector<Region> bounds;
  Xoshiro256ss rng(seed);
  for (NodeId u = 0; u < regions; ++u) {
    const std::uint32_t size = sizes[rng.next_below(sizes.size())];
    std::vector<NodeId> vs;
    for (std::uint32_t k = 0; k < size; ++k) {
      vs.push_back(static_cast<NodeId>(rng.next_below(range)));
    }
    std::sort(vs.begin(), vs.end());
    vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
    bounds.push_back({arcs.size(), arcs.size() + vs.size()});
    for (const NodeId v : vs) arcs.push_back({u, v});
  }
  return {arcs, bounds};
}

struct LoopRun {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> matches;
  IntersectTally tally;
  std::uint64_t result = 0;  ///< gallop position
  std::uint64_t instr = 0;
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  double cycles = 0;
};

void expect_same_run(const LoopRun& streamed, const LoopRun& host,
                     const std::string& what) {
  EXPECT_EQ(host.matches, streamed.matches) << what;
  EXPECT_EQ(host.result, streamed.result) << what;
  EXPECT_EQ(host.tally.merge_picks, streamed.tally.merge_picks) << what;
  EXPECT_EQ(host.tally.gallop_probes, streamed.tally.gallop_probes) << what;
  EXPECT_EQ(host.tally.merge_isects, streamed.tally.merge_isects) << what;
  EXPECT_EQ(host.tally.gallop_isects, streamed.tally.gallop_isects) << what;
  EXPECT_EQ(host.instr, streamed.instr) << what;
  EXPECT_EQ(host.transfers, streamed.transfers) << what;
  EXPECT_EQ(host.bytes, streamed.bytes) << what;
  EXPECT_EQ(host.cycles, streamed.cycles) << what;
}

/// Runs `body(t, sorted_offset)` as one tasklet on a DPU holding `arcs` in
/// MRAM and returns what it issued; the body fills the rest of the run.
template <typename Body>
LoopRun run_loop(const std::vector<Edge>& arcs, Body&& body) {
  constexpr std::uint64_t kSorted = 4096;
  pim::Dpu dpu(test_config(), 0);
  dpu.mram().write(kSorted, arcs.data(), arcs.size() * sizeof(Edge));
  LoopRun run;
  dpu.parallel(1, [&](pim::Tasklet& t) {
    body(t, kSorted, run);
    t.instr(run.instr);
  });
  run.transfers = dpu.dma_transfers();
  run.bytes = dpu.dma_bytes();
  run.cycles = dpu.cycles();
  return run;
}

TEST(ClosedFormChargeTest, IntersectionMatchesStreamedReference) {
  // Region sizes from empty to several buffers, so merges stop at every
  // cursor position and both policies' cost-model branches run.
  const std::vector<std::uint32_t> sizes = {0,  1,  3,  8,   9,  16,
                                            40, 64, 65, 150, 300};
  const auto [arcs, bounds] = random_regions(7, 60, sizes, 400);
  Xoshiro256ss rng(11);
  for (int pair = 0; pair < 200; ++pair) {
    const Region a = bounds[rng.next_below(bounds.size())];
    Region b = bounds[rng.next_below(bounds.size())];
    // Also a suffix, as count_full intersects the rest of u's region.
    if (pair % 3 == 0 && b.size() > 1) b.begin += rng.next_below(b.size());
    for (const std::uint64_t buffer : {4u, 7u, 9u, 64u}) {
      for (const IntersectPolicy policy : {IntersectPolicy::kMerge,
                                           IntersectPolicy::kGallop,
                                           IntersectPolicy::kAuto}) {
        const LoopRun streamed = run_loop(
            arcs, [&](pim::Tasklet& t, std::uint64_t sorted, LoopRun& run) {
              std::vector<Edge> buf_a(buffer);
              std::vector<Edge> buf_b(buffer);
              streamed_intersect_regions(
                  t, policy, sorted, a, b, std::span<Edge>(buf_a),
                  std::span<Edge>(buf_b), run.tally, run.instr,
                  [&](std::uint64_t i, const Edge&, std::uint64_t j,
                      const Edge&) { run.matches.emplace_back(i, j); });
            });
        const LoopRun host = run_loop(
            arcs, [&](pim::Tasklet& t, std::uint64_t, LoopRun& run) {
              DmaTally dma;
              intersect_regions(
                  policy, arcs, a, b, buffer, run.tally, run.instr, dma,
                  [&](std::uint64_t i, const Edge&, std::uint64_t j,
                      const Edge&) { run.matches.emplace_back(i, j); });
              t.charge_dma(dma.transfers, dma.bytes);
            });
        expect_same_run(streamed, host,
                        "pair " + std::to_string(pair) + " buffer " +
                            std::to_string(buffer) + " " + to_string(policy));
      }
    }
  }
}

TEST(ClosedFormChargeTest, GallopReplayMatchesStreamedSearch) {
  const std::vector<std::uint32_t> sizes = {0, 1, 5, 8, 9, 12, 17, 64, 500};
  const auto [arcs, bounds] = random_regions(3, 40, sizes, 1000);
  for (const Region& r : bounds) {
    // Keys below, inside and above the region's second endpoints.
    for (NodeId w = 0; w <= 1001; w += 7) {
      const LoopRun streamed = run_loop(
          arcs, [&](pim::Tasklet& t, std::uint64_t sorted, LoopRun& run) {
            run.result = streamed_gallop_lower_bound(t, sorted, r, w,
                                                     run.tally, run.instr);
          });
      const LoopRun host = run_loop(
          arcs, [&](pim::Tasklet& t, std::uint64_t, LoopRun& run) {
            DmaTally dma;
            run.result =
                gallop_lower_bound(arcs, r, w, run.tally, run.instr, dma);
            t.charge_dma(dma.transfers, dma.bytes);
          });
      expect_same_run(streamed, host,
                      "region [" + std::to_string(r.begin) + ", " +
                          std::to_string(r.end) + ") w=" + std::to_string(w));
    }
  }
}

// ---- sort replay -----------------------------------------------------------
//
// replay_sort sorts keys with run tags and ranks the merge-path splits from
// per-run checkpoints.  The reference below is the form it replaced: a
// sort of (key, chunk) records and one sweep over them per co-partitioned
// pass.

struct SortReference {
  std::vector<std::uint64_t> keys;        ///< sorted
  std::vector<std::uint64_t> split_less;  ///< every co-partitioned pass's
};

SortReference reference_sort(std::span<const std::uint64_t> input,
                             std::uint64_t chunk, std::uint32_t tasklets) {
  struct Record {
    std::uint64_t key;
    std::uint64_t chunk;
  };
  const std::uint64_t n = input.size();
  std::vector<Record> records(n);
  for (std::uint64_t i = 0; i < n; ++i) records[i] = {input[i], i / chunk};
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.key != b.key ? a.key < b.key : a.chunk < b.chunk;
            });
  SortReference out;
  for (const Record& r : records) out.keys.push_back(r.key);

  unsigned pass = 0;
  for (std::uint64_t width = chunk; width < n; width *= 2, ++pass) {
    const std::uint64_t pairs = ceil_div(n, width * 2);
    const auto ways = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, tasklets / pairs));
    if (ways == 1) continue;
    // The sweep: per run (chunk >> pass), the records seen so far and the
    // rank of its next split; a split stores the right run's count.
    constexpr std::uint64_t kNone = ~0ull;
    std::vector<std::uint64_t> split_less(pairs * ways, 0);
    std::vector<std::uint64_t> seen(2 * pairs, 0);
    std::vector<std::uint64_t> target(2 * pairs, kNone);
    std::vector<std::uint32_t> next_way(pairs, ways);
    const auto seek = [&](std::uint64_t pr, std::uint32_t w) {
      const std::uint64_t lo = pr * width * 2;
      const std::uint64_t nl = std::min(lo + width, n) - lo;
      for (; w < ways; ++w) {
        const std::uint64_t rank = w * nl / ways;
        if (rank >= nl) break;
        if (rank > 0) {
          next_way[pr] = w;
          target[2 * pr] = rank;
          return;
        }
      }
      target[2 * pr] = kNone;
    };
    for (std::uint64_t pr = 0; pr < pairs; ++pr) seek(pr, 1);
    for (const Record& rec : records) {
      const std::uint64_t run = rec.chunk >> pass;
      while (target[run] == seen[run]) {
        const std::uint64_t pr = run >> 1;
        split_less[pr * ways + next_way[pr]] = seen[run + 1];
        seek(pr, next_way[pr] + 1);
      }
      ++seen[run];
    }
    out.split_less.insert(out.split_less.end(), split_less.begin(),
                          split_less.end());
  }
  return out;
}

TEST(SortReplayTest, MatchesTheChunkRecordSweep) {
  Xoshiro256ss rng(27);
  const auto id_below = [&](std::uint64_t bound) {
    return static_cast<NodeId>(rng.next_below(bound));
  };
  // Key shapes, each drawn per record: canonical edges over 2^17 ids; a
  // pool of 40 keys, so equal keys land in different runs; a constant
  // high half (one first node) or low half (one second node); arcs of
  // real ids and remapped hub ids near 2^32, so both halves vary fully.
  const std::vector<std::pair<std::string, std::function<std::uint64_t()>>>
      shapes = {
          {"canonical",
           [&] {
             return edge_key(
                 Edge{id_below(1u << 17), id_below(1u << 17)}.canonical());
           }},
          {"duplicates",
           [&] {
             return edge_key(Edge{id_below(5), 5 + id_below(8)});
           }},
          {"high-constant",
           [&] { return edge_key(Edge{1234, id_below(1u << 20)}); }},
          {"low-constant",
           [&] { return edge_key(Edge{id_below(1u << 20), 99}); }},
          {"remapped",
           [&] {
             const auto node = [&] {
               return rng.next_below(4) == 0
                          ? remapped_id(static_cast<std::uint32_t>(
                                rng.next_below(200)))
                          : id_below(3000);
             };
             return edge_key(Edge{node(), node()});
           }},
      };
  std::uint64_t inside_splits = 0;
  for (const auto& [shape, draw] : shapes) {
    for (const std::uint64_t n :
         {std::uint64_t{3}, std::uint64_t{40}, kRadixMinRecords - 1,
          kRadixMinRecords, kRadixMinRecords + 1, std::uint64_t{511},
          std::uint64_t{512}, std::uint64_t{513}, std::uint64_t{12'289}}) {
      std::vector<std::uint64_t> input(n);
      for (std::uint64_t& key : input) key = draw();
      for (const std::uint32_t tasklets : {1u, 2u, 11u, 16u, 24u}) {
        // The kernel's chunk for 16 tasklets' WRAM share (at most 256),
        // the 8-record floor and an odd size.
        const std::uint64_t fitted = std::max<std::uint64_t>(
            8, std::min<std::uint64_t>(256, ceil_div(n, tasklets)));
        for (const std::uint64_t chunk :
             {fitted, std::uint64_t{8}, std::uint64_t{37}}) {
          const std::string where = shape + " n=" + std::to_string(n) +
                                    " tasklets=" + std::to_string(tasklets) +
                                    " chunk=" + std::to_string(chunk);
          const SortReference want = reference_sort(input, chunk, tasklets);
          std::vector<Edge> data(n);
          for (std::uint64_t i = 0; i < n; ++i) {
            data[i] = edge_from_key(input[i]);
          }
          std::vector<std::uint64_t> split_less{7};  // replaced
          replay_sort(data, chunk, tasklets, split_less);
          std::vector<std::uint64_t> got(n);
          for (std::uint64_t i = 0; i < n; ++i) got[i] = edge_key(data[i]);
          ASSERT_EQ(got, want.keys) << where;
          ASSERT_EQ(split_less, want.split_less) << where;
          inside_splits += static_cast<std::uint64_t>(std::count_if(
              split_less.begin(), split_less.end(),
              [](std::uint64_t r) { return r != 0; }));
        }
      }
    }
  }
  // The ranks compared are mostly real searches, not the zeros of splits
  // that need none.
  EXPECT_GT(inside_splits, 5'000u);
}

TEST(SortReplayTest, RejectsAChunkOrTaskletCountItCannotTag) {
  std::vector<Edge> data = {{2, 3}, {1, 2}};
  std::vector<std::uint64_t> split_less;
  EXPECT_THROW(replay_sort(data, 0, 16, split_less), std::invalid_argument);
  EXPECT_THROW(replay_sort(data, 8, 0, split_less), std::invalid_argument);
  EXPECT_THROW(replay_sort(data, 8, pim::PimSystemConfig::max_tasklets + 1,
                           split_less),
               std::invalid_argument);
}

// ---- region lookup ---------------------------------------------------------

/// A region table over `nodes` (sorted, distinct) with random region sizes;
/// returns it and the record count it indexes.
std::pair<std::vector<RegionEntry>, std::uint64_t> region_table(
    const std::vector<NodeId>& nodes, Xoshiro256ss& rng) {
  std::vector<RegionEntry> regions;
  std::uint64_t begin = 0;
  for (const NodeId node : nodes) {
    regions.push_back({node, static_cast<std::uint32_t>(begin)});
    begin += 1 + rng.next_below(5);
  }
  return {regions, begin};
}

TEST(RegionCacheTest, LookupsMatchLowerBound) {
  Xoshiro256ss rng(5);
  // Node sets: dense ids (one bit per id), ids spread over 2^31 (too wide
  // for the bitmap: binary searched), tight clusters far apart, and real
  // ids reaching up to the remapped range.
  std::vector<std::pair<std::string, std::vector<NodeId>>> shapes;
  std::vector<NodeId> dense;
  for (NodeId x = 3; x < 3000; ++x) {
    if (rng.next_below(3) != 0) dense.push_back(x);
  }
  shapes.emplace_back("dense", dense);
  std::vector<NodeId> sparse;
  for (int i = 0; i < 2000; ++i) {
    sparse.push_back(static_cast<NodeId>(1 + rng.next_below(1ull << 31)));
  }
  shapes.emplace_back("sparse", sparse);
  std::vector<NodeId> clustered;
  for (const NodeId base : {NodeId{10}, NodeId{1u << 20}, NodeId{1u << 30}}) {
    for (NodeId x = 0; x < 700; ++x) clustered.push_back(base + 2 * x);
  }
  shapes.emplace_back("clustered", clustered);
  shapes.emplace_back("top-pair", std::vector<NodeId>{1, 3'500'000'000u});
  const NodeId top_real = remapped_id(MramLayout::kMaxRemap - 1) - 1;
  std::vector<NodeId> to_top = {top_real};
  for (int i = 0; i < 2000; ++i) {
    to_top.push_back(static_cast<NodeId>(1 + rng.next_below(top_real)));
  }
  shapes.emplace_back("to-top", to_top);
  shapes.emplace_back("one-region", std::vector<NodeId>{77});
  // Real id ranges exactly at and one id past the one-bit-per-id cutoff.
  // With few records the cutoff is kRankBitmapBytes of bits; with more
  // records than that has words, it is one word per record, and the
  // shape's last node is placed once its record count is known.
  constexpr std::uint64_t kCutoffIds = RegionCache::kRankBitmapBytes * 8;
  struct Cutoff {
    std::string name;
    NodeId first;
    std::uint64_t regions;  ///< region count; 0 = the 64 KB cutoff
    std::uint64_t past;     ///< ids past the cutoff: 0 or 1
  };
  std::vector<Cutoff> cutoffs;
  for (const std::uint64_t past : {0u, 1u}) {
    const std::string at = past == 0 ? "at" : "past";
    cutoffs.push_back({at + "-64k-cutoff", 1000, 0, past});
    cutoffs.push_back({at + "-record-cutoff", 5, 4000, past});
  }
  for (const Cutoff& c : cutoffs) {
    std::vector<NodeId> nodes;
    if (c.regions == 0) {
      const auto last = static_cast<NodeId>(c.first + kCutoffIds - 1 + c.past);
      nodes = {c.first, c.first + 1, c.first + 63, c.first + 64,
               last / 2, last - 64, last - 1, last};
    } else {
      // Placeholders; the last node moves once n is known.
      for (NodeId x = 0; x < c.regions; ++x) nodes.push_back(c.first + 3 * x);
    }
    shapes.emplace_back(c.name, nodes);
  }

  for (auto [name, nodes] : shapes) {
    for (const bool tail : {false, true}) {
      std::vector<NodeId> all = nodes;
      if (tail) {
        // A remapped tail: some of the kMaxRemap hub ids.
        for (std::uint32_t r = 0; r < MramLayout::kMaxRemap;
             r += 1 + static_cast<std::uint32_t>(rng.next_below(9))) {
          all.push_back(remapped_id(r));
        }
      }
      std::sort(all.begin(), all.end());
      all.erase(std::unique(all.begin(), all.end()), all.end());
      auto [regions, n] = region_table(all, rng);
      if (name.ends_with("-record-cutoff")) {
        // One 64-bit word per record: n * 64 ids from the first node.
        const std::uint64_t last_real =
            regions.front().node + n * 64 - 1 + (name.starts_with("past") ? 1 : 0);
        ASSERT_GT(n * 64, kCutoffIds) << name;
        auto real_end = std::lower_bound(
            regions.begin(), regions.end(),
            remapped_id(MramLayout::kMaxRemap - 1),
            [](const RegionEntry& e, NodeId k) { return e.node < k; });
        std::prev(real_end)->node = static_cast<NodeId>(last_real);
      }

      // Keys on, just below and just above every region (so the first and
      // last real ids +- 1 too), below the first and above the last.
      std::vector<NodeId> keys = {0, kInvalidNode - 1};
      for (const RegionEntry& e : regions) {
        keys.push_back(e.node);
        keys.push_back(e.node - 1);
        keys.push_back(e.node + 1);
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      // The second side: a key list over the same keys, absent ones
      // included, ranked by std::lower_bound over the whole table.
      std::vector<KeyRegion> listed;
      for (const NodeId key : keys) {
        const std::uint64_t r = static_cast<std::uint64_t>(
            std::lower_bound(regions.begin(), regions.end(), key,
                             [](const RegionEntry& e, NodeId k) {
                               return e.node < k;
                             }) -
            regions.begin());
        KeyRegion k{key, r, {}};
        if (r < regions.size() && regions[r].node == key) {
          k.region = {regions[r].begin,
                      r + 1 < regions.size() ? regions[r + 1].begin : n};
        }
        listed.push_back(k);
      }
      for (const bool enabled : {false, true}) {
        pim::Dpu dpu(test_config(), 0);
        RegionCache indexed;
        RegionCache by_list;
        indexed.build(dpu, 16, 64, regions, n, enabled);
        by_list.build(dpu, 16, 64, regions.size(), listed, enabled);
        for (const KeyRegion& want : listed) {
          const NodeId key = want.node;
          const std::string what = name + (tail ? "+tail" : "") +
                                   (enabled ? " cached" : " uncached") +
                                   " key=" + std::to_string(key);
          std::uint64_t instr_i = 0;
          std::uint64_t instr_l = 0;
          DmaTally dma_i;
          DmaTally dma_l;
          const Region got = find_region(indexed, key, instr_i, dma_i);
          const Region via_list = find_region(by_list, key, instr_l, dma_l);
          ASSERT_EQ(got.found(), want.region.found()) << what;
          if (want.region.found()) {
            EXPECT_EQ(got.begin, want.region.begin) << what;
            EXPECT_EQ(got.end, want.region.end) << what;
          }
          // The charge depends on the rank, the key's presence and the
          // region count alone: the indexed lookup must charge what the
          // list's lower_bound ranks charge.
          ASSERT_EQ(via_list.found(), want.region.found()) << what;
          EXPECT_EQ(via_list.begin, got.begin) << what;
          EXPECT_EQ(via_list.end, got.end) << what;
          EXPECT_EQ(instr_l, instr_i) << what;
          EXPECT_EQ(dma_l.transfers, dma_i.transfers) << what;
          EXPECT_EQ(dma_l.bytes, dma_i.bytes) << what;
        }
        // A key the list does not hold is a logic error.
        std::uint64_t instr = 0;
        DmaTally dma;
        const std::vector<KeyRegion> none;
        RegionCache empty_list;
        empty_list.build(dpu, 16, 64, regions.size(), none, enabled);
        EXPECT_THROW((void)find_region(empty_list, regions[0].node, instr, dma),
                     std::logic_error)
            << name;
      }
    }
  }
}

/// What the cached lookup of a key of rank `r` issues in a table of `num`
/// regions, with the cache window found by division: the reference for
/// RegionCache::charge_lookup, which finds it by a reciprocal.
void divided_lookup_charge(std::uint64_t num, std::uint64_t r, bool present,
                           std::uint64_t& instr, DmaTally& dma) {
  using Cost = pim::KernelCostModel;
  constexpr std::uint64_t kEntry = sizeof(RegionEntry);
  const std::uint64_t stride = ceil_div(num, RegionCache::kSlots);
  const std::uint64_t slots = ceil_div(num, stride);
  const std::uint64_t at_or_below = r + (present ? 1 : 0);
  const std::uint64_t below =
      at_or_below == 0 ? 0 : (at_or_below - 1) / stride + 1;
  instr += 3 * search_steps(slots, below);
  const std::uint64_t w_lo = below == 0 ? 0 : (below - 1) * stride;
  const std::uint64_t w_hi = std::min(num, below * stride + 1);
  if (w_hi - w_lo <= 6) {
    const std::uint64_t fetch = std::min(w_hi - w_lo + 1, num - w_lo);
    dma.add(1, fetch * kEntry);
    instr += Cost::binary_search_step + fetch * 2;
    if (present && r - w_lo + 1 == fetch && r + 1 < num) dma.add(1, kEntry);
  } else {
    const std::uint64_t steps = search_steps(w_hi - w_lo, r - w_lo);
    dma.add(steps, steps * kEntry);
    instr += steps * Cost::binary_search_step;
    if (r >= num) return;
    dma.add(1, (r + 1 < num ? 2 : 1) * kEntry);
    instr += Cost::binary_search_step;
  }
}

TEST(RegionCacheTest, ChargesMatchTheDividedWindow) {
  // Region counts on both sides of every stride step up to stride 8: each
  // key's cache window must be the one today's division finds, at every
  // rank, for a present and an absent key.
  Xoshiro256ss rng(11);
  for (std::uint64_t k = 1; k <= 7; ++k) {
    for (const std::uint64_t num : {2048 * k - 1, 2048 * k, 2048 * k + 1}) {
      std::vector<NodeId> nodes;
      for (std::uint64_t i = 0; i < num; ++i) {
        nodes.push_back(static_cast<NodeId>(10 + 2 * i));
      }
      const auto [regions, n] = region_table(nodes, rng);
      pim::Dpu dpu(test_config(), 0);
      RegionCache cache;
      cache.build(dpu, 16, 64, regions, n, /*enabled=*/true);
      // Node 10 + 2r has rank r; 9 + 2r is absent with rank r.
      for (std::uint64_t r = 0; r <= num; ++r) {
        for (const bool present : {false, true}) {
          if (present && r == num) continue;
          const auto key = static_cast<NodeId>(9 + 2 * r + (present ? 1 : 0));
          std::uint64_t instr = 0;
          std::uint64_t want_instr = 0;
          DmaTally dma;
          DmaTally want_dma;
          const Region got = find_region(cache, key, instr, dma);
          divided_lookup_charge(num, r, present, want_instr, want_dma);
          const std::string what = "regions=" + std::to_string(num) +
                                   " key=" + std::to_string(key);
          ASSERT_EQ(got.found(), present) << what;
          ASSERT_EQ(instr, want_instr) << what;
          ASSERT_EQ(dma.transfers, want_dma.transfers) << what;
          ASSERT_EQ(dma.bytes, want_dma.bytes) << what;
        }
      }
    }
  }
}

// ---- incremental region index ---------------------------------------------

/// Both orientations of every edge, sorted.
std::vector<Edge> sorted_arcs(const std::vector<Edge>& edges) {
  std::vector<Edge> arcs;
  for (const Edge& e : edges) {
    arcs.push_back(e);
    arcs.push_back(e.reversed());
  }
  std::sort(arcs.begin(), arcs.end());
  return arcs;
}

/// S* arcs `old` merged with the batch arcs, ties S* first, and the merged
/// position of every batch arc.
std::pair<std::vector<Edge>, std::vector<std::uint64_t>> merge_arcs(
    const std::vector<Edge>& old, const std::vector<Edge>& batch) {
  std::vector<Edge> merged;
  std::vector<std::uint64_t> at;
  std::size_t i = 0;
  for (const Edge& b : batch) {
    while (i < old.size() && !(b < old[i])) merged.push_back(old[i++]);
    at.push_back(merged.size());
    merged.push_back(b);
  }
  merged.insert(merged.end(), old.begin() + static_cast<std::ptrdiff_t>(i),
                old.end());
  return {merged, at};
}

TEST(RegionIndexTest, KeyListMatchesTheTable) {
  Xoshiro256ss rng(17);
  const auto edges_between = [&](NodeId lo, NodeId hi, int count) {
    std::vector<Edge> out;
    for (int k = 0; k < count; ++k) {
      const auto u = static_cast<NodeId>(lo + rng.next_below(hi - lo));
      const auto v = static_cast<NodeId>(lo + rng.next_below(hi - lo));
      if (u != v) out.push_back({u, v});
    }
    return out;
  };
  const auto concat = [](std::vector<Edge> a, const std::vector<Edge>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  struct Shape {
    std::string name;
    std::vector<Edge> old_edges;  ///< S*
    std::vector<Edge> new_edges;  ///< the batch
  };
  std::vector<Shape> shapes;
  const std::vector<Edge> base = edges_between(10, 300, 900);
  // Batch nodes S* does not hold, alone and joined to nodes it does.
  shapes.push_back({"absent", base,
                    concat(edges_between(500, 520, 15),
                           {{505, 40}, {519, 299}, {600, 11}})});
  // Arcs sorting before S*'s first record and after its last one.
  shapes.push_back({"outside", base, {{1, 2}, {0, 9}, {1000, 1001}, {3, 999}}});
  // A hub whose region spans many 64-edge stream buffers, with batch arcs
  // in its middle, at both of its ends and equal to arcs S* holds (ties
  // merge S* first).
  std::vector<Edge> hub = base;
  for (NodeId x = 20; x < 900; x += 2) hub.push_back({7, x});
  shapes.push_back({"hub", hub,
                    {{7, 451}, {7, 8}, {7, 2000}, {7, 452}, {7, 20}, {7, 898},
                     {40, 41}, {12, 13}}});
  // Remapped hub ids above the last real node, in S* and in the batch.
  std::vector<Edge> remapped = base;
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (NodeId x = 10; x < 300; x += 3 + r) {
      remapped.push_back({remapped_id(r), x});
    }
  }
  remapped.push_back({remapped_id(0), remapped_id(2)});
  shapes.push_back({"remapped", remapped,
                    {{remapped_id(1), 11},
                     {remapped_id(3), remapped_id(0)},
                     {remapped_id(5), 50},
                     {remapped_id(2), 299},
                     {12, 299}}});
  // An empty S*: the batch is the whole merged array.
  shapes.push_back({"no-old", {}, edges_between(0, 40, 60)});
  // A random batch over S*'s nodes, some of its edges already there.
  std::vector<Edge> mixed = edges_between(10, 320, 120);
  mixed.push_back(base[0]);
  mixed.push_back(base[1].reversed());
  shapes.push_back({"mixed", base, mixed});

  // One table reused across shapes: it only grows, so later shapes see
  // stale entries past their prefix.
  std::vector<RegionEntry> storage;
  for (const Shape& shape : shapes) {
    const std::vector<Edge> old = sorted_arcs(shape.old_edges);
    const std::vector<Edge> batch = sorted_arcs(shape.new_edges);
    const auto [merged, at] = merge_arcs(old, batch);
    std::vector<NodeId> nodes;  // the batch's distinct first nodes
    for (const Edge& b : batch) {
      if (nodes.empty() || nodes.back() != b.u) nodes.push_back(b.u);
    }
    for (const std::uint32_t tasklets : {1u, 3u, 16u, 24u}) {
      const std::string what =
          shape.name + " tasklets=" + std::to_string(tasklets);
      std::vector<std::uint64_t> table_counts(tasklets, 7);
      std::vector<std::uint64_t> key_counts(tasklets, 7);
      const std::span<const RegionEntry> table =
          build_regions(merged, table_counts, storage);
      std::vector<KeyRegion> keys = {{3, 3, {}}};  // overwritten
      const std::uint64_t num =
          resolve_batch_keys(merged, batch, at, key_counts, keys);
      EXPECT_EQ(num, table.size()) << what;
      EXPECT_EQ(key_counts, table_counts) << what;
      ASSERT_EQ(keys.size(), nodes.size()) << what;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const NodeId node = nodes[k];
        const auto r = static_cast<std::uint64_t>(
            std::lower_bound(table.begin(), table.end(), node,
                             [](const RegionEntry& e, NodeId key) {
                               return e.node < key;
                             }) -
            table.begin());
        ASSERT_LT(r, table.size()) << what;
        ASSERT_EQ(table[r].node, node) << what;
        EXPECT_EQ(keys[k].node, node) << what;
        EXPECT_EQ(keys[k].rank, r) << what << " node=" << node;
        EXPECT_EQ(keys[k].region.begin, table[r].begin)
            << what << " node=" << node;
        EXPECT_EQ(keys[k].region.end,
                  r + 1 < table.size() ? table[r + 1].begin : merged.size())
            << what << " node=" << node;
      }

      // Every lookup of the launch charges the same through either form.
      for (const bool enabled : {false, true}) {
        pim::Dpu dpu(test_config(), 0);
        RegionCache by_table;
        RegionCache by_keys;
        by_table.build(dpu, tasklets, 64, table, merged.size(), enabled);
        by_keys.build(dpu, tasklets, 64, num, keys, enabled);
        for (const NodeId node : nodes) {
          std::uint64_t instr_t = 0;
          std::uint64_t instr_k = 0;
          DmaTally dma_t;
          DmaTally dma_k;
          const Region via_table = find_region(by_table, node, instr_t, dma_t);
          const Region via_keys = find_region(by_keys, node, instr_k, dma_k);
          const std::string at_node = what + (enabled ? " cached" : "") +
                                      " node=" + std::to_string(node);
          ASSERT_TRUE(via_table.found()) << at_node;
          ASSERT_TRUE(via_keys.found()) << at_node;
          EXPECT_EQ(via_keys.begin, via_table.begin) << at_node;
          EXPECT_EQ(via_keys.end, via_table.end) << at_node;
          EXPECT_EQ(instr_k, instr_t) << at_node;
          EXPECT_EQ(dma_k.transfers, dma_t.transfers) << at_node;
          EXPECT_EQ(dma_k.bytes, dma_t.bytes) << at_node;
        }
      }
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
