// Fault-injection bench: accuracy and modeled recovery cost of the
// fault-tolerant PIM runtime over a fault-rate x recovery-policy grid on
// the fixed hub-heavy BA+hubs graph (the cpu_scaling / kernel_instr
// recipe).
//
// Per cell the same workload runs under a composite fault spec (launch
// transients, permanent DPU deaths, wire corruption, MRAM bit flips, all
// scaled by one rate knob) and one recovery policy.  Reported: the fault
// ledger, the estimate's relative error against the clean run, and the
// modeled detection + recovery seconds added to the count phase.
//
// Shape check and exit gate:
//   - every cell that fully recovered (degraded=false) must be
//     *bit-identical* to the clean run, and
//   - every degraded cell's realized error must sit inside the error bound
//     its own report advertises.
//
// With --json the run emits one JSON object (BENCH_faults.json in the CI
// bench-smoke job).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"

namespace {

using namespace pimtc;

struct Options {
  double scale = 0.5;
  std::uint64_t seed = 42;
  std::uint32_t colors = 6;
  bool json = false;
  bool quick = false;
};

Options parse(int argc, char** argv) {
  return bench::parse_flags(
      argc, argv, "--scale= --seed= --colors= --quick --json",
      [](const cli::Args& args) {
        Options opt;
        opt.quick = args.flag("quick");
        opt.scale = args.f64("scale", opt.scale);
        if (opt.quick) opt.scale = std::min(opt.scale, 0.1);
        opt.seed = args.u64("seed", opt.seed);
        opt.colors = bench::colors_flag(args, opt.colors);
        opt.json = args.flag("json");
        return opt;
      });
}

graph::EdgeList make_graph(double scale, std::uint64_t seed) {
  graph::EdgeList g = graph::gen::barabasi_albert(
      static_cast<NodeId>(20000 * scale) + 2000, 5, seed + 1);
  graph::gen::add_hubs(g, 3, g.num_nodes() / 4, seed + 2);
  graph::gen::permute_ids(g, seed + 4);
  graph::preprocess(g, seed + 3);
  return g;
}

struct Cell {
  double rate;
  const char* policy;
  engine::CountReport report;
  double rel_err = 0.0;
};

std::string spec_for(double rate, const char* policy, std::uint64_t seed) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "seed=%llu,launch-transient=%.6g,launch-permanent=%.6g,"
                "corrupt=%.6g,bitflip=%.6g,recovery=%s,spares=32",
                static_cast<unsigned long long>(seed + 17), rate, rate / 2.0,
                rate / 4.0, rate, policy);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const graph::EdgeList g = make_graph(opt.scale, opt.seed);

  engine::EngineConfig cfg;
  cfg.seed = opt.seed;
  cfg.num_colors = opt.colors;
  const engine::CountReport clean = engine::make_engine("pim", cfg)->count(g);

  const std::vector<double> rates =
      opt.quick ? std::vector<double>{0.02}
                : std::vector<double>{0.005, 0.02, 0.08};
  const char* const policies[] = {"retry", "rematerialize", "degrade"};

  std::vector<Cell> cells;
  for (const double rate : rates) {
    for (const char* policy : policies) {
      engine::EngineConfig fcfg = cfg;
      fcfg.fault_spec = spec_for(rate, policy, opt.seed);
      Cell cell{rate, policy, engine::make_engine("pim", fcfg)->count(g), 0.0};
      cell.rel_err = clean.estimate > 0.0
                         ? std::abs(cell.report.estimate - clean.estimate) /
                               clean.estimate
                         : 0.0;
      cells.push_back(std::move(cell));
    }
  }

  bool recovered_identical = true;
  bool degraded_within_bound = true;
  for (const Cell& c : cells) {
    if (!c.report.faults.degraded) {
      recovered_identical &= c.report.estimate == clean.estimate;
    } else {
      degraded_within_bound &= c.rel_err <= c.report.faults.error_bound;
    }
  }
  const bool pass = recovered_identical && degraded_within_bound;

  if (opt.json) {
    std::printf("{\"bench\":\"faults\",\"seed\":%llu,\"scale\":%.3g,"
                "\"colors\":%u,\"edges\":%llu,\"nodes\":%u,"
                "\"clean_estimate\":%.17g,\"cells\":[",
                static_cast<unsigned long long>(opt.seed), opt.scale,
                opt.colors, static_cast<unsigned long long>(g.num_edges()),
                g.num_nodes(), clean.estimate);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      const auto& f = c.report.faults;
      std::printf(
          "%s{\"rate\":%.6g,\"policy\":\"%s\",\"estimate\":%.17g,"
          "\"rel_err\":%.9g,\"degraded\":%s,\"coverage\":%.9g,"
          "\"error_bound\":%.9g,\"launch_transients\":%llu,"
          "\"launch_retries\":%llu,\"dead_dpus\":%llu,"
          "\"rematerializations\":%llu,\"dropped_triplets\":%llu,"
          "\"transfer_corruptions\":%llu,\"mram_bitflips\":%llu,"
          "\"sample_restores\":%llu,\"detection_s\":%.9g,"
          "\"recovery_s\":%.9g,\"count_s\":%.9g}",
          i == 0 ? "" : ",", c.rate, c.policy, c.report.estimate, c.rel_err,
          f.degraded ? "true" : "false", f.coverage, f.error_bound,
          static_cast<unsigned long long>(f.launch_transients),
          static_cast<unsigned long long>(f.launch_retries),
          static_cast<unsigned long long>(f.dead_dpus),
          static_cast<unsigned long long>(f.rematerializations),
          static_cast<unsigned long long>(f.dropped_triplets),
          static_cast<unsigned long long>(f.transfer_corruptions),
          static_cast<unsigned long long>(f.mram_bitflips),
          static_cast<unsigned long long>(f.sample_restores), f.detection_s,
          f.recovery_s, c.report.times.count_s);
    }
    std::printf("],\"recovered_identical\":%s,\"degraded_within_bound\":%s}\n",
                recovered_identical ? "true" : "false",
                degraded_within_bound ? "true" : "false");
    return pass ? 0 : 1;
  }

  std::printf("==============================================================\n");
  std::printf("Fault injection: accuracy x recovery policy on BA+hubs\n");
  std::printf("(%llu edges, %u nodes, C=%u, clean estimate %.0f, seed %llu)\n",
              static_cast<unsigned long long>(g.num_edges()), g.num_nodes(),
              opt.colors, clean.estimate,
              static_cast<unsigned long long>(opt.seed));
  std::printf("==============================================================\n");
  std::printf("  %-7s %-14s %10s %9s %9s %6s %6s %7s %9s %9s\n", "rate",
              "policy", "rel_err", "coverage", "bound", "dead", "remat",
              "dropped", "detect_ms", "recov_ms");
  for (const Cell& c : cells) {
    const auto& f = c.report.faults;
    std::printf("  %-7.3g %-14s %10.3g %9.4f %9.3g %6llu %6llu %7llu "
                "%9.3f %9.3f%s\n",
                c.rate, c.policy, c.rel_err, f.coverage, f.error_bound,
                static_cast<unsigned long long>(f.dead_dpus),
                static_cast<unsigned long long>(f.rematerializations),
                static_cast<unsigned long long>(f.dropped_triplets),
                f.detection_s * 1e3, f.recovery_s * 1e3,
                f.degraded ? "  (degraded)" : "");
  }
  std::printf("\nShape check: fully-recovered cells bit-identical to the "
              "clean run: %s; degraded cells inside their reported error "
              "bound: %s\n",
              recovered_identical ? "HOLDS" : "VIOLATED",
              degraded_within_bound ? "HOLDS" : "VIOLATED");
  return pass ? 0 : 1;
}
