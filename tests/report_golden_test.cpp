// Golden pin of the "pim" engine's CountReport.  One small seeded BA+hubs
// graph runs under ten configurations; every report field except the
// measured times.host_s is written one per line and compared with
// tests/golden/pim_reports.golden.  Estimates, tallies, instruction counts
// and modeled times are pure functions of graph, config and seed (ingest is
// serial and host threads are pinned), so a refactor must leave this text
// unchanged.  Integers and strings match exactly; doubles match to 1e-12
// relative, since another compiler may contract floating-point math
// differently.  After each report come the summed per-DPU cycles,
// instructions and DMA tallies, and one digest over every bank's device
// state (those sums plus the MRAM state that outlives a launch), so a change
// to any bank's modeled work or contents shows here even when the report
// hides it.
// On a deliberate model change, replace the golden file with the actual text
// the failure message prints.  ThreadLayoutTest renders the same lines for
// an exact session and for an incremental one under several host thread
// layouts and requires them to agree (host_threads aside).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "tc/host.hpp"
#include "tc/layout.hpp"

namespace pimtc {
namespace {

struct Line {
  std::string key;
  std::string value;
  bool is_double = false;
};

void append_report(const std::string& tag, const engine::CountReport& r,
                   std::vector<Line>& out) {
  const auto s = [&](const std::string& key, std::string value) {
    out.push_back({tag + "." + key, std::move(value), false});
  };
  const auto i = [&](const std::string& key, std::uint64_t value) {
    s(key, std::to_string(value));
  };
  const auto d = [&](const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out.push_back({tag + "." + key, buf, true});
  };

  s("backend", r.backend);
  d("estimate", r.estimate);
  i("exact", r.exact);
  i("raw_total", r.raw_total);
  d("times.setup_s", r.times.setup_s);
  d("times.ingest_s", r.times.ingest_s);
  d("times.count_s", r.times.count_s);
  i("simulated_times", r.simulated_times);
  i("work.edges", r.work.edges);
  i("work.nodes", r.work.nodes);
  i("work.conversion_ops", r.work.conversion_ops);
  i("work.intersection_steps", r.work.intersection_steps);
  i("work.triangles", r.work.triangles);
  i("transfers.push_transfers", r.transfers.push_transfers);
  i("transfers.push_payload_bytes", r.transfers.push_payload_bytes);
  i("transfers.push_wire_bytes", r.transfers.push_wire_bytes);
  i("transfers.pull_transfers", r.transfers.pull_transfers);
  i("transfers.pull_payload_bytes", r.transfers.pull_payload_bytes);
  i("transfers.pull_wire_bytes", r.transfers.pull_wire_bytes);
  d("transfers.overlap_saved_s", r.transfers.overlap_saved_s);
  i("num_units", r.num_units);
  i("num_ranks", r.num_ranks);
  i("host_threads", r.host_threads);
  i("edges_streamed", r.edges_streamed);
  i("edges_kept", r.edges_kept);
  i("edges_replicated", r.edges_replicated);
  i("min_unit_edges", r.min_unit_edges);
  i("max_unit_edges", r.max_unit_edges);
  i("reservoir_overflows", r.reservoir_overflows);
  i("used_incremental", r.used_incremental);
  i("edges_deleted", r.edges_deleted);
  i("sample_evictions", r.sample_evictions);
  i("delete_misses", r.delete_misses);
  i("dirty_full_recounts", r.dirty_full_recounts);
  i("num_colors", r.num_colors);
  s("placement", r.placement);
  d("dpu_utilization", r.dpu_utilization);
  d("load_imbalance", r.load_imbalance);
  for (std::size_t k = 0; k < 3; ++k) {
    i("kind_edges_seen." + std::to_string(k), r.kind_edges_seen[k]);
    i("kind_units." + std::to_string(k), r.kind_units[k]);
  }
  s("kernel.intersect", r.kernel.intersect);
  i("kernel.merge_isects", r.kernel.merge_isects);
  i("kernel.gallop_isects", r.kernel.gallop_isects);
  i("kernel.bitmap_isects", r.kernel.bitmap_isects);
  i("kernel.merge_picks", r.kernel.merge_picks);
  i("kernel.gallop_probes", r.kernel.gallop_probes);
  i("kernel.bitmap_probes", r.kernel.bitmap_probes);
  i("kernel.chunks_claimed", r.kernel.chunks_claimed);
  i("kernel.instructions", r.kernel.instructions);
  i("kernel.count_instructions", r.kernel.count_instructions);
  i("faults.injected", r.faults.injected);
  i("faults.degraded", r.faults.degraded);
  d("faults.coverage", r.faults.coverage);
  d("faults.error_bound", r.faults.error_bound);
  i("faults.launch_transients", r.faults.launch_transients);
  i("faults.launch_retries", r.faults.launch_retries);
  i("faults.dead_dpus", r.faults.dead_dpus);
  i("faults.rematerializations", r.faults.rematerializations);
  i("faults.dropped_triplets", r.faults.dropped_triplets);
  i("faults.transfer_corruptions", r.faults.transfer_corruptions);
  i("faults.transfer_retries", r.faults.transfer_retries);
  i("faults.mram_bitflips", r.faults.mram_bitflips);
  i("faults.sample_restores", r.faults.sample_restores);
  i("faults.checksum_bytes", r.faults.checksum_bytes);
  d("faults.detection_s", r.faults.detection_s);
  d("faults.recovery_s", r.faults.recovery_s);
  i("heavy_hitters", r.heavy_hitters.size());
  for (std::size_t k = 0; k < r.heavy_hitters.size(); ++k) {
    s("heavy_hitters." + std::to_string(k),
      std::to_string(r.heavy_hitters[k].node) + ":" +
          std::to_string(r.heavy_hitters[k].estimated_degree));
  }
}

/// Sums of the per-DPU cycle, instruction and DMA tallies of `eng`'s
/// machine, then one XXH64 over every bank's (cycle bits, instructions, DMA
/// transfers, DMA bytes, live MRAM state per tc::MramLayout::live_ranges).
void append_device(const std::string& tag,
                   const engine::TriangleCountEngine& eng,
                   std::vector<Line>& out) {
  const pim::PimSystem& sys =
      dynamic_cast<const tc::PimTriangleCounter&>(eng).system();
  double cycles = 0.0;
  std::uint64_t instr = 0;
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;
  Xxh64 digest;
  std::vector<std::uint8_t> mram;
  for (std::uint32_t d = 0; d < sys.num_dpus(); ++d) {
    const pim::Dpu& dpu = sys.dpu(d);
    const double c = dpu.cycles();
    const std::uint64_t tallies[] = {dpu.total_instructions(),
                                     dpu.dma_transfers(), dpu.dma_bytes()};
    cycles += c;
    instr += tallies[0];
    transfers += tallies[1];
    bytes += tallies[2];
    digest.update(&c, sizeof c);
    digest.update(tallies, sizeof tallies);
    const auto meta =
        dpu.mram().read_t<tc::DpuMeta>(tc::MramLayout::kMetaOffset);
    for (const tc::MramRange& r : tc::MramLayout::live_ranges(
             meta.sample_capacity, meta.sorted_size)) {
      mram.resize(r.end - r.begin);
      dpu.mram().read(r.begin, mram.data(), mram.size());
      digest.update(mram.data(), mram.size());
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", cycles);
  out.push_back({tag + ".dpus.cycles", buf, true});
  out.push_back({tag + ".dpus.instructions", std::to_string(instr), false});
  out.push_back(
      {tag + ".dpus.dma_transfers", std::to_string(transfers), false});
  out.push_back({tag + ".dpus.dma_bytes", std::to_string(bytes), false});
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest.digest()));
  out.push_back({tag + ".dpus.digest", buf, false});
}

std::string render(const std::vector<Line>& lines) {
  std::string text;
  for (const Line& l : lines) text += l.key + " = " + l.value + "\n";
  return text;
}

bool value_matches(const Line& actual, const std::string& expected) {
  if (actual.value == expected) return true;
  if (!actual.is_double) return false;
  char* end = nullptr;
  const double want = std::strtod(expected.c_str(), &end);
  if (end == expected.c_str() || *end != '\0') return false;
  const double got = std::strtod(actual.value.c_str(), nullptr);
  return std::abs(got - want) <=
         1e-12 * std::max(std::abs(got), std::abs(want));
}

graph::EdgeList golden_graph() {
  graph::EdgeList g = graph::gen::barabasi_albert(1200, 5, 7);
  graph::gen::add_hubs(g, 3, 300, 8);
  graph::preprocess(g, 9);
  return g;
}

engine::EngineConfig base_config() {
  engine::EngineConfig cfg;
  cfg.num_colors = 6;
  cfg.host_threads = 2;
  cfg.pipelined_ingest = false;
  cfg.pim.mram_bytes = 8ull << 20;
  cfg.mg_top = 16;  // the Misra-Gries configs' lines were generated at t = 16
  return cfg;
}

std::vector<Line> run_all() {
  const graph::EdgeList g = golden_graph();
  std::vector<Line> lines;
  const auto one_shot = [&](const std::string& tag,
                            const engine::EngineConfig& cfg) {
    const auto eng = engine::make_engine("pim", cfg);
    const engine::CountReport r = eng->count(g);
    append_report(tag, r, lines);
    append_device(tag, *eng, lines);
    return r;
  };

  one_shot("exact", base_config());

  engine::EngineConfig sampled = base_config();
  sampled.uniform_p = 0.5;
  sampled.sample_capacity_edges = 512;
  sampled.misra_gries_enabled = true;
  one_shot("sampled", sampled);

  engine::EngineConfig remap = base_config();
  remap.misra_gries_enabled = true;
  remap.degree_ordered_remap = true;
  remap.intersect = tc::IntersectPolicy::kGallop;
  one_shot("remap_gallop", remap);

  // Ranks of 8 cores, so placement moves the padded wire bytes.  Greedy
  // plans once from a 64-edge first batch and keeps that plan while the
  // rest of the graph shifts the loads.
  engine::EngineConfig greedy = base_config();
  greedy.placement = color::PlacementPolicy::kGreedyBalance;
  greedy.pim.dpus_per_rank = 8;
  {
    auto eng = engine::make_engine("pim", greedy);
    eng->add_edges(g.edges().subspan(0, 64));
    eng->add_edges(g.edges().subspan(64));
    append_report("greedy_first_batch", eng->recount(), lines);
    append_device("greedy_first_batch", *eng, lines);
  }

  engine::EngineConfig staged = base_config();
  staged.staging_capacity_edges = 64;
  one_shot("staging64", staged);

  // Incremental ± session with dead banks re-materialized onto spares; the
  // report's times and fault ledger accumulate over both recounts.
  engine::EngineConfig churn = base_config();
  churn.incremental = true;
  churn.fault_spec = "seed=3,launch-permanent=0.02,recovery=rematerialize";
  {
    auto eng = engine::make_engine("pim", churn);
    const std::size_t half = g.num_edges() / 2;
    eng->add_edges(g.edges().subspan(0, half));
    (void)eng->recount();
    std::vector<EdgeUpdate> mixed;
    for (std::size_t k = half; k < g.num_edges(); ++k) {
      mixed.push_back(insert_of(g[k]));
    }
    for (std::size_t k = 0; k < half; k += 5) mixed.push_back(delete_of(g[k]));
    eng->apply(mixed);
    append_report("churn", eng->recount(), lines);
    append_device("churn", *eng, lines);
  }

  // Every repair path of the fault machinery in one count: launch retries,
  // transfer retransmits and bit-flip scrubs, restored from the host
  // mirrors (recovered) or dropped with a coverage-extrapolated estimate
  // (degraded).  The repair counters must be nonzero, or the pin is vacuous.
  engine::EngineConfig recovered = base_config();
  recovered.fault_spec =
      "seed=5,launch-transient=0.1,corrupt=0.1,bitflip=0.1,"
      "recovery=rematerialize";
  const engine::CountReport rec = one_shot("recovered", recovered);
  EXPECT_GT(rec.faults.launch_retries, 0u);
  EXPECT_GT(rec.faults.transfer_retries, 0u);
  EXPECT_GT(rec.faults.sample_restores, 0u);
  EXPECT_TRUE(rec.exact);

  engine::EngineConfig degraded = base_config();
  degraded.fault_spec =
      "seed=5,launch-transient=0.05,corrupt=0.05,bitflip=0.05,recovery=retry";
  const engine::CountReport deg = one_shot("degraded", degraded);
  EXPECT_GT(deg.faults.launch_retries, 0u);
  EXPECT_GT(deg.faults.transfer_retries, 0u);
  EXPECT_GT(deg.faults.mram_bitflips, 0u);
  EXPECT_GT(deg.faults.dropped_triplets, 0u);
  EXPECT_TRUE(deg.faults.degraded);

  // A reservoir far below the per-core load, fed in three batches and
  // flushed in rounds of 64: replacements land on slots that earlier
  // batches and earlier rounds filled, not only on the current round's.
  engine::EngineConfig thirds = base_config();
  thirds.sample_capacity_edges = 256;
  thirds.staging_capacity_edges = 64;
  {
    auto eng = engine::make_engine("pim", thirds);
    const std::size_t third = g.num_edges() / 3;
    eng->add_edges(g.edges().subspan(0, third));
    eng->add_edges(g.edges().subspan(third, third));
    eng->add_edges(g.edges().subspan(2 * third));
    const engine::CountReport r = eng->recount();
    EXPECT_GT(r.reservoir_overflows, 0u);
    append_report("overflow_thirds", r, lines);
    append_device("overflow_thirds", *eng, lines);
  }

  // An insert-only session under the degree-ordered hub remap: a full
  // count of 3/5 of the graph, then three batches that every core counts
  // with the incremental kernel (none dirty), so the lines pin its merge,
  // region lookups and ownership checks.
  engine::EngineConfig batches = base_config();
  batches.incremental = true;
  batches.misra_gries_enabled = true;
  batches.degree_ordered_remap = true;
  {
    auto eng = engine::make_engine("pim", batches);
    const std::size_t m = g.num_edges();
    const std::size_t preload = 3 * m / 5;
    eng->add_edges(g.edges().subspan(0, preload));
    (void)eng->recount();
    engine::CountReport r;
    for (std::size_t k = 0; k < 3; ++k) {
      const std::size_t lo = preload + k * (m - preload) / 3;
      const std::size_t hi = preload + (k + 1) * (m - preload) / 3;
      eng->add_edges(g.edges().subspan(lo, hi - lo));
      r = eng->recount();
      EXPECT_TRUE(r.used_incremental);
      EXPECT_EQ(r.dirty_full_recounts, 0u);
    }
    append_report("incremental_batches", r, lines);
    append_device("incremental_batches", *eng, lines);
  }
  return lines;
}

TEST(ReportGoldenTest, PimReportsMatchGoldenFile) {
  const std::vector<Line> actual = run_all();
  const std::filesystem::path path =
      std::filesystem::path(__FILE__).parent_path() / "golden" /
      "pim_reports.golden";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path << "\nactual:\n"
                  << render(actual);
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  std::size_t matched = 0;
  while (matched < actual.size() && matched < expected.size()) {
    const Line& a = actual[matched];
    const std::string prefix = a.key + " = ";
    const std::string& e = expected[matched];
    if (e.compare(0, prefix.size(), prefix) != 0 ||
        !value_matches(a, e.substr(prefix.size()))) {
      break;
    }
    ++matched;
  }
  const bool same = matched == actual.size() && matched == expected.size();
  EXPECT_TRUE(same) << "first difference at line " << matched + 1 << " of "
                    << path << "\nactual:\n"
                    << render(actual);
}

TEST(ThreadLayoutTest, ExactDeviceStateIndependentOfHostThreads) {
  // The partition gives each chunk of a batch its own slice of every
  // triplet's buffer, in stream order.  An exact count and a ± batch after
  // it must leave the same report and the same device state whatever the
  // number of chunks: 1, 3 and 4 host threads, and one chunk from inside a
  // pool worker (also after a batch of several chunks on the same engine).
  graph::EdgeList g = graph::gen::barabasi_albert(4000, 5, 21);
  graph::gen::add_hubs(g, 3, 1000, 22);
  graph::preprocess(g, 23);
  std::vector<EdgeUpdate> churn;
  for (std::size_t k = 0; k < g.num_edges(); k += 5) {
    churn.push_back(delete_of(g[k]));
  }
  for (std::size_t k = 0; k < g.num_edges(); k += 10) {
    churn.push_back(insert_of(g[k]));
  }

  const auto on = [](bool in_task, const std::function<void()>& fn) {
    if (in_task) {
      ThreadPool::global().submit(fn).get();
    } else {
      fn();
    }
  };
  const auto run = [&](std::uint32_t threads, bool count_in_task,
                       bool apply_in_task) {
    engine::EngineConfig cfg = base_config();
    cfg.host_threads = threads;
    const auto eng = engine::make_engine("pim", cfg);
    std::vector<Line> lines;
    on(count_in_task, [&] {
      eng->add_edges(g.edges());
      append_report("count", eng->recount(), lines);
    });
    append_device("count", *eng, lines);
    on(apply_in_task, [&] {
      eng->apply(churn);
      append_report("apply", eng->recount(), lines);
    });
    append_device("apply", *eng, lines);
    std::erase_if(lines, [](const Line& l) {
      return l.key.ends_with(".host_threads");
    });
    return render(lines);
  };

  const std::string reference = run(1, false, false);
  EXPECT_EQ(run(3, false, false), reference);
  EXPECT_EQ(run(4, false, false), reference);
  EXPECT_EQ(run(0, true, true), reference);
  EXPECT_EQ(run(0, false, true), reference);
}

TEST(ThreadLayoutTest, IncrementalBatchesIndependentOfHostThreads) {
  // Each worker thread reuses the incremental kernel's host buffers (the
  // merged arcs, the batch arcs' merged positions, the key list) from bank
  // to bank and launch to launch.  An insert-only session, a preload and
  // three batches that every core counts incrementally, must leave the same
  // reports and device state on 1, 3 and 4 host threads and from inside a
  // pool worker.
  graph::EdgeList g = graph::gen::barabasi_albert(4000, 5, 31);
  graph::gen::add_hubs(g, 3, 1000, 32);
  graph::preprocess(g, 33);

  const auto run = [&](std::uint32_t threads, bool in_task) {
    engine::EngineConfig cfg = base_config();
    cfg.host_threads = threads;
    cfg.incremental = true;
    const auto eng = engine::make_engine("pim", cfg);
    std::vector<Line> lines;
    const auto session = [&] {
      const std::size_t m = g.num_edges();
      const std::size_t preload = m / 2;
      eng->add_edges(g.edges().subspan(0, preload));
      append_report("preload", eng->recount(), lines);
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t lo = preload + k * (m - preload) / 3;
        const std::size_t hi = preload + (k + 1) * (m - preload) / 3;
        eng->add_edges(g.edges().subspan(lo, hi - lo));
        const engine::CountReport r = eng->recount();
        EXPECT_TRUE(r.used_incremental);
        EXPECT_EQ(r.dirty_full_recounts, 0u);
        const std::string tag = "batch" + std::to_string(k);
        append_report(tag, r, lines);
        append_device(tag, *eng, lines);
      }
    };
    if (in_task) {
      ThreadPool::global().submit(session).get();
    } else {
      session();
    }
    std::erase_if(lines, [](const Line& l) {
      return l.key.ends_with(".host_threads");
    });
    return render(lines);
  };

  const std::string reference = run(1, false);
  EXPECT_EQ(run(3, false), reference);
  EXPECT_EQ(run(4, false), reference);
  EXPECT_EQ(run(0, true), reference);
}

}  // namespace
}  // namespace pimtc
