// Kernel-instruction baseline for the adaptive intersection engine on the
// fig4 hub-heavy BA+hubs graph (the same recipe as bench_fig4 part 2).
//
// Measures the static counting kernel under forced merge (the paper's
// Section 3.4 linear intersection), forced gallop, adaptive auto, and auto
// with the degree-ordered remap, plus an incremental-update scenario —
// reporting kernel instructions, modeled count_s and the merge/gallop
// tally for each.  The shape check is this PR's acceptance bar: auto must
// cut static kernel instructions >= 1.5x vs merge at default params, with
// bit-identical estimates everywhere.
//
// With --json the run emits a single JSON object (BENCH_kernel.json in the
// CI bench-smoke job) seeding the kernel perf trajectory future PRs diff
// against.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "tc/host.hpp"

namespace {

using namespace pimtc;

struct Options {
  double scale = 0.5;
  std::uint64_t seed = 42;
  bool json = false;
};

Options parse(int argc, char** argv) {
  return bench::parse_flags(
      argc, argv, "--scale= --seed= --quick --json", [](const cli::Args& args) {
        Options opt;
        opt.scale = args.f64("scale", opt.scale);
        if (args.flag("quick")) opt.scale = std::min(opt.scale, 0.1);
        opt.seed = args.u64("seed", opt.seed);
        opt.json = args.flag("json");
        return opt;
      });
}

struct Sample {
  const char* name;
  double estimate = 0.0;
  double count_s = 0.0;
  /// `instructions` is the whole kernel (copy + sort + count),
  /// `count_instructions` the counting phase alone.
  engine::KernelStats kernel;
};

/// Adds the per-recount kernel tallies of `r` into `sum`.
void accumulate(engine::KernelStats& sum, const engine::KernelStats& r) {
  sum.instructions += r.instructions;
  sum.count_instructions += r.count_instructions;
  sum.merge_isects += r.merge_isects;
  sum.gallop_isects += r.gallop_isects;
  sum.merge_picks += r.merge_picks;
  sum.gallop_probes += r.gallop_probes;
  sum.chunks_claimed += r.chunks_claimed;
}

engine::EngineConfig base_config(std::uint64_t seed) {
  engine::EngineConfig cfg;
  cfg.num_colors = 4;
  cfg.seed = seed;
  return cfg;
}

Sample run_static(const char* name, const graph::EdgeList& g,
                  tc::IntersectPolicy policy, bool degree_remap,
                  bool region_cache, std::uint64_t seed) {
  engine::EngineConfig cfg = base_config(seed);
  cfg.intersect = policy;
  cfg.region_cache = region_cache;
  cfg.misra_gries_enabled = degree_remap;
  cfg.degree_ordered_remap = degree_remap;
  tc::PimTriangleCounter counter(cfg);
  const engine::CountReport r = counter.count(g);
  return {name, r.estimate, r.times.count_s, r.kernel};
}

void print_sample_json(const Sample& s, bool first) {
  std::printf(
      "%s\"%s\":{\"estimate\":%.17g,\"kernel_instructions\":%llu,"
      "\"count_instructions\":%llu,"
      "\"count_s\":%.9g,\"merge_isects\":%llu,\"gallop_isects\":%llu,"
      "\"merge_picks\":%llu,\"gallop_probes\":%llu,\"chunks_claimed\":%llu}",
      first ? "" : ",", s.name, s.estimate,
      static_cast<unsigned long long>(s.kernel.instructions),
      static_cast<unsigned long long>(s.kernel.count_instructions), s.count_s,
      static_cast<unsigned long long>(s.kernel.merge_isects),
      static_cast<unsigned long long>(s.kernel.gallop_isects),
      static_cast<unsigned long long>(s.kernel.merge_picks),
      static_cast<unsigned long long>(s.kernel.gallop_probes),
      static_cast<unsigned long long>(s.kernel.chunks_claimed));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // The fig4 part-2 hub-heavy graph: BA tail + three mega-hubs.  Node ids
  // are permuted because the generators park hubs at structurally
  // convenient positions (add_hubs: top ids, where canonical orientation
  // neutralizes them for free); real datasets do not, and the intersection
  // cost profile depends on where hubs sort.
  graph::EdgeList g = graph::gen::barabasi_albert(
      static_cast<NodeId>(20000 * opt.scale) + 2000, 5, opt.seed + 1);
  graph::gen::add_hubs(g, 3, g.num_nodes() / 4, opt.seed + 2);
  graph::gen::permute_ids(g, opt.seed + 4);
  graph::preprocess(g, opt.seed + 3);

  std::vector<Sample> statics;
  // "legacy" reproduces the pre-engine static path: pure linear merge with
  // uncached full-table region searches — the acceptance baseline.
  statics.push_back(run_static("legacy_merge_nocache", g,
                               tc::IntersectPolicy::kMerge, false, false,
                               opt.seed));
  statics.push_back(run_static("merge", g, tc::IntersectPolicy::kMerge, false,
                               true, opt.seed));
  statics.push_back(run_static("auto", g, tc::IntersectPolicy::kAuto, false,
                               true, opt.seed));
  statics.push_back(run_static("gallop", g, tc::IntersectPolicy::kGallop,
                               false, true, opt.seed));
  statics.push_back(run_static("auto_degree_remap", g,
                               tc::IntersectPolicy::kAuto, true, true,
                               opt.seed));

  // Incremental scenario (auto policy): 60% first count, then four 10%
  // batches, each recounted through the persistent sorted arcs.
  Sample inc{"incremental_updates"};
  Sample inc_full{"incremental_first_count"};
  {
    engine::EngineConfig cfg = base_config(opt.seed);
    cfg.incremental = true;
    tc::PimTriangleCounter counter(cfg);
    const auto edges = g.edges();
    const std::size_t first = edges.size() * 6 / 10;
    counter.add_edges(edges.subspan(0, first));
    engine::CountReport r = counter.recount();
    inc_full.estimate = r.estimate;
    inc_full.count_s = r.times.count_s;
    inc_full.kernel = r.kernel;
    double prev_count_s = r.times.count_s;
    std::size_t done = first;
    for (int b = 0; b < 4; ++b) {
      const std::size_t hi =
          b == 3 ? edges.size() : done + edges.size() / 10;
      counter.add_edges(edges.subspan(done, hi - done));
      r = counter.recount();
      inc.count_s += r.times.count_s - prev_count_s;
      accumulate(inc.kernel, r.kernel);
      prev_count_s = r.times.count_s;
      done = hi;
    }
    inc.estimate = r.estimate;
  }

  bool estimates_identical = true;
  for (const Sample& s : statics) {
    estimates_identical &= s.estimate == statics[0].estimate;
  }
  estimates_identical &= inc.estimate == statics[0].estimate;
  // Acceptance metric: static counting-phase instructions, legacy path
  // (merge + uncached searches) vs the adaptive default (copy/sort/index
  // are identical across variants and would only dilute the ratio).
  const Sample& legacy = statics[0];
  const Sample& adaptive = statics[2];
  const double reduction =
      adaptive.kernel.count_instructions > 0
          ? static_cast<double>(legacy.kernel.count_instructions) /
                static_cast<double>(adaptive.kernel.count_instructions)
          : 0.0;

  if (opt.json) {
    std::printf("{\"graph\":{\"edges\":%zu,\"nodes\":%u,\"scale\":%.3g,"
                "\"seed\":%llu},\"static\":{",
                g.num_edges(), g.num_nodes(), opt.scale,
                static_cast<unsigned long long>(opt.seed));
    for (std::size_t i = 0; i < statics.size(); ++i) {
      print_sample_json(statics[i], i == 0);
    }
    std::printf("},\"incremental\":{");
    print_sample_json(inc_full, true);
    print_sample_json(inc, false);
    std::printf("},\"static_count_instr_reduction_auto_vs_legacy\":%.4g,"
                "\"estimates_identical\":%s}\n",
                reduction, estimates_identical ? "true" : "false");
    return estimates_identical && reduction >= 1.5 ? 0 : 1;
  }

  std::printf("==============================================================\n");
  std::printf("Kernel-instruction baseline on the hub-heavy BA+hubs graph\n");
  std::printf("(%zu edges / %u nodes, scale=%.2f seed=%llu)\n", g.num_edges(),
              g.num_nodes(), opt.scale,
              static_cast<unsigned long long>(opt.seed));
  std::printf("==============================================================\n");
  std::printf("  %-22s %12s %14s %10s %9s %9s %12s %12s\n", "variant",
              "count instr", "kernel instr", "count(ms)", "merge", "gallop",
              "picks", "probes");
  const auto row = [](const Sample& s) {
    std::printf("  %-22s %12llu %14llu %10.2f %9llu %9llu %12llu %12llu\n",
                s.name,
                static_cast<unsigned long long>(s.kernel.count_instructions),
                static_cast<unsigned long long>(s.kernel.instructions),
                s.count_s * 1e3,
                static_cast<unsigned long long>(s.kernel.merge_isects),
                static_cast<unsigned long long>(s.kernel.gallop_isects),
                static_cast<unsigned long long>(s.kernel.merge_picks),
                static_cast<unsigned long long>(s.kernel.gallop_probes));
  };
  for (const Sample& s : statics) row(s);
  row(inc_full);
  row(inc);

  std::printf("\nShape check: adaptive auto cuts static counting-phase "
              "instructions >= 1.5x vs the legacy merge+uncached path: %s "
              "(%.2fx); estimates bit-identical across all variants: %s\n",
              reduction >= 1.5 ? "HOLDS" : "VIOLATED", reduction,
              estimates_identical ? "HOLDS" : "VIOLATED");
  return estimates_identical && reduction >= 1.5 ? 0 : 1;
}
