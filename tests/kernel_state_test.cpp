// Golden pin of one bank's device state after both counting kernels.  A
// bare 8 MB DPU runs the full kernel with S* persistence over a sample and
// then the incremental kernel over one batch, on four inputs and fifteen
// kernel configurations (tasklets x stream buffer, plus the forced
// intersection policies and the region cache off).  Each run writes one line
// with the count, the region count, the DPU's cycles, instructions and DMA
// tallies, the end of its live MRAM state and a digest of that state
// (MramLayout::live_ranges: control block, remap table, sample, S* and its
// flags), and the lines must equal tests/golden/kernel_state.golden.
// Cycles are printed to 17 digits and every other field is an integer, so
// a change in any modeled charge or any byte of state that outlives a
// launch shows as a diff.  On a deliberate model change, replace the golden
// file with the text the failure prints.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "pim/dpu.hpp"
#include "tc/kernel.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {
namespace {

struct Input {
  std::string name;
  std::vector<Edge> edges;  ///< sample, then the batch
  std::size_t prefix = 0;   ///< edges in the sample the full kernel counts
  std::vector<NodeId> remap;
};

std::vector<Input> inputs() {
  std::vector<Input> out;
  // Six sample edges sort inside one WRAM chunk: no merge pass.
  out.push_back({"six",
                 {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {1, 3},
                  {2, 4}, {0, 4}, {4, 5}},
                 6,
                 {}});

  graph::EdgeList er = graph::gen::erdos_renyi(60, 300, 3);
  graph::shuffle_edges(er, 4);
  out.push_back({"er300", {er.begin(), er.end()}, er.num_edges() - 20, {}});

  graph::EdgeList ba = graph::gen::barabasi_albert(600, 5, 5);
  graph::gen::add_hubs(ba, 2, 150, 6);
  graph::preprocess(ba, 7);
  // The eight busiest endpoints of the sample, busiest first.
  std::vector<std::uint64_t> degree(ba.num_nodes(), 0);
  for (const Edge& e : ba) {
    ++degree[e.u];
    ++degree[e.v];
  }
  std::vector<NodeId> remap;
  for (int r = 0; r < 8; ++r) {
    NodeId best = 0;
    for (NodeId x = 1; x < degree.size(); ++x) {
      if (degree[x] > degree[best]) best = x;
    }
    remap.push_back(best);
    degree[best] = 0;
  }
  out.push_back({"bahubs", {ba.begin(), ba.end()}, 2200, remap});

  // Over 10,240 regions: the region cache's stride exceeds 5, so lookups
  // search wide windows with MRAM probes.
  graph::EdgeList sparse = graph::gen::erdos_renyi(40000, 18000, 9);
  out.push_back({"sparse", {sparse.begin(), sparse.end()},
                 sparse.num_edges() - 2000, {}});
  return out;
}

struct Config {
  std::string name;
  KernelParams params;
};

std::vector<Config> configs() {
  std::vector<Config> out;
  for (const std::uint32_t tasklets : {1u, 3u, 16u, 24u}) {
    for (const std::uint32_t buffer : {4u, 9u, 64u}) {
      KernelParams p;
      p.tasklets = tasklets;
      p.buffer_edges = buffer;
      out.push_back({"t" + std::to_string(tasklets) + ".b" +
                         std::to_string(buffer),
                     p});
    }
  }
  KernelParams merge;
  merge.intersect = IntersectPolicy::kMerge;
  out.push_back({"merge", merge});
  KernelParams gallop;
  gallop.intersect = IntersectPolicy::kGallop;
  out.push_back({"gallop", gallop});
  KernelParams no_cache;
  no_cache.region_cache = false;
  out.push_back({"nocache", no_cache});
  return out;
}

pim::PimSystemConfig bank_config() {
  pim::PimSystemConfig cfg;
  cfg.mram_bytes = 8ull << 20;
  return cfg;
}

/// Runs the full kernel with S* persistence over the sample, then the
/// incremental kernel over the batch; returns the final control block.
DpuMeta run_kernels(pim::Dpu& dpu, const Input& in,
                    const KernelParams& params) {
  DpuMeta meta;
  meta.sample_size = in.prefix;
  meta.edges_seen = in.prefix;
  meta.sample_capacity = in.edges.size() + 1;
  meta.num_remap = static_cast<std::uint32_t>(in.remap.size());
  meta.flags = DpuMeta::kFlagPersistSorted;
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  if (!in.remap.empty()) {
    dpu.mram().write(MramLayout::kRemapOffset, in.remap.data(),
                     in.remap.size() * sizeof(NodeId));
  }
  dpu.mram().write(MramLayout::sample_offset(), in.edges.data(),
                   in.edges.size() * sizeof(Edge));
  run_count_kernel(dpu, params);

  meta = dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
  meta.sample_size = in.edges.size();
  meta.edges_seen = in.edges.size();
  dpu.mram().write_t(MramLayout::kMetaOffset, meta);
  run_incremental_kernel(dpu, params);
  return dpu.mram().read_t<DpuMeta>(MramLayout::kMetaOffset);
}

std::string run_one(const Input& in, const Config& c) {
  pim::Dpu dpu(bank_config(), 0);
  const DpuMeta meta = run_kernels(dpu, in, c.params);

  // The live state: what outlives the launch.  Scratch is the kernels'
  // own business, as long as their charges and this state stay the same.
  Xxh64 digest;
  std::uint64_t live_end = 0;
  for (const MramRange& r :
       MramLayout::live_ranges(meta.sample_capacity, meta.sorted_size)) {
    std::vector<std::uint8_t> mram(r.end - r.begin);
    dpu.mram().read(r.begin, mram.data(), mram.size());
    digest.update(mram.data(), mram.size());
    if (r.end > r.begin) live_end = r.end;
  }
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "%s.%s triangles=%llu regions=%llu cycles=%.17g instr=%llu "
                "dma=%llu/%llu high_water=%llu mram=%016llx",
                in.name.c_str(), c.name.c_str(),
                static_cast<unsigned long long>(meta.triangle_count),
                static_cast<unsigned long long>(meta.num_regions),
                dpu.cycles(),
                static_cast<unsigned long long>(dpu.total_instructions()),
                static_cast<unsigned long long>(dpu.dma_transfers()),
                static_cast<unsigned long long>(dpu.dma_bytes()),
                static_cast<unsigned long long>(live_end),
                static_cast<unsigned long long>(digest.digest()));
  return buf;
}

TEST(KernelStateGoldenTest, DeviceStateMatchesGoldenFile) {
  std::vector<std::string> actual;
  for (const Input& in : inputs()) {
    for (const Config& c : configs()) actual.push_back(run_one(in, c));
  }
  std::string text;
  for (const std::string& line : actual) text += line + "\n";

  const std::filesystem::path path =
      std::filesystem::path(__FILE__).parent_path() / "golden" /
      "kernel_state.golden";
  std::ifstream file(path);
  ASSERT_TRUE(file) << "cannot open " << path << "\nactual:\n" << text;
  std::vector<std::string> expected;
  for (std::string line; std::getline(file, line);) expected.push_back(line);

  std::size_t matched = 0;
  while (matched < actual.size() && matched < expected.size() &&
         actual[matched] == expected[matched]) {
    ++matched;
  }
  EXPECT_TRUE(matched == actual.size() && matched == expected.size())
      << "first difference at line " << matched + 1 << " of " << path
      << "\nactual:\n"
      << text;
}

TEST(KernelStateTest, MramHoldsOnlyLiveState) {
  // After both kernels the bank backs exactly the pages of the data that
  // outlives a launch: a fresh bank given only that data (the control
  // block, remap table and sample, then S*) holds the same pages.  The
  // flags are zero between launches, and a never-written page reads as
  // zero, so they need none.  A stage that stores scratch in MRAM again
  // fails here even though the live digest cannot see it.
  for (const Input& in : inputs()) {
    for (const Config& c : configs()) {
      pim::Dpu dpu(bank_config(), 0);
      const DpuMeta meta = run_kernels(dpu, in, c.params);
      ASSERT_EQ(meta.sorted_size, in.edges.size());
      const std::uint64_t sorted =
          MramLayout::sorted_offset(meta.sample_capacity);
      const MramRange data[] = {
          {0, MramLayout::sample_offset() + meta.sample_size * sizeof(Edge)},
          {sorted, sorted + 2 * meta.sorted_size * sizeof(Edge)}};
      pim::MramBank live(bank_config().mram_bytes);
      for (const MramRange& r : data) {
        std::vector<std::uint8_t> bytes(r.end - r.begin);
        dpu.mram().read(r.begin, bytes.data(), bytes.size());
        live.write(r.begin, bytes.data(), bytes.size());
      }
      EXPECT_EQ(dpu.mram().resident_bytes(), live.resident_bytes())
          << in.name << "." << c.name;
    }
  }
}

}  // namespace
}  // namespace pimtc::tc
