// Wall-clock scaling bench for the exact CPU backends: `cpu` (the paper's
// Section 4.1 oracle) vs `cpu-fast` (parallel DODG + SIMD bitmap/gallop
// kernel) over a threads x graph-size grid on the hub-heavy BA+hubs graph
// (the bench_kernel_instr / fig4 part-2 recipe).
//
// Per (size, backend, threads) cell: structure-build and count-phase
// wall-clock (min over --repeat interleaved runs, so a noisy neighbour
// inflates both backends equally), counted edges/s, and cpu-fast's speedup
// over cpu at the same thread count.  The headline and exit gate is the
// single-thread count-phase speedup on the largest size: cpu-fast must be
// >= 2.5x (the tracked local figure is ~4x; the gate is deliberately
// looser so shared-runner noise does not flap CI).  Estimates must be
// bit-identical everywhere.
//
// With --json the run emits one JSON object (BENCH_cpu.json in the CI
// bench-smoke job) seeding the exact-CPU perf trajectory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
  std::vector<std::uint32_t> threads = {1, 2, 4, 8};
  std::uint32_t repeat = 3;
  bool json = false;
  bool quick = false;
};

std::vector<std::uint32_t> parse_threads(const char* list) {
  std::vector<std::uint32_t> out;
  const char* p = list;
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p || v <= 0 || v > 1024) {
      std::fprintf(stderr, "bad --threads list '%s' (want e.g. 1,2,4)\n", list);
      std::exit(2);
    }
    out.push_back(static_cast<std::uint32_t>(v));
    p = *end == ',' ? end + 1 : end;
  }
  if (out.empty()) {
    std::fprintf(stderr, "--threads list is empty\n");
    std::exit(2);
  }
  return out;
}

Options parse(int argc, char** argv) {
  return bench::parse_flags(
      argc, argv, "--scale= --seed= --threads=1,2,4 --repeat= --quick --json",
      [](const cli::Args& args) {
        Options opt;
        opt.quick = args.flag("quick");
        opt.scale = args.f64("scale", opt.scale);
        opt.repeat = std::max(1u, args.u32("repeat", opt.repeat));
        if (opt.quick) {
          opt.scale = std::min(opt.scale, 0.1);
          opt.repeat = std::min(opt.repeat, 2u);
        }
        opt.seed = args.u64("seed", opt.seed);
        if (args.flag("threads")) {
          opt.threads = parse_threads(args.str("threads").c_str());
        }
        opt.json = args.flag("json");
        return opt;
      });
}

/// The hub-heavy BA+hubs stand-in (same recipe as bench_kernel_instr): BA
/// tail, three mega-hubs, permuted ids so hubs land at adversarial spots.
graph::EdgeList make_graph(double scale, std::uint64_t seed) {
  graph::EdgeList g = graph::gen::barabasi_albert(
      static_cast<NodeId>(20000 * scale) + 2000, 5, seed + 1);
  graph::gen::add_hubs(g, 3, g.num_nodes() / 4, seed + 2);
  graph::gen::permute_ids(g, seed + 4);
  graph::preprocess(g, seed + 3);
  return g;
}

struct Cell {
  const char* backend;
  std::uint32_t threads;
  double build_s = 1e300;  ///< min structure-build (CSR / DODG) seconds
  double count_s = 1e300;  ///< min counting-kernel seconds
  double estimate = 0.0;
};

/// One fresh-engine run; folds the minima into `cell`.
void run_once(const graph::EdgeList& g, Cell& cell, std::uint64_t seed) {
  engine::EngineConfig cfg;
  cfg.seed = seed;
  cfg.host_threads = cell.threads;
  const engine::CountReport r =
      engine::make_engine(cell.backend, cfg)->count(g);
  cell.build_s = std::min(cell.build_s, r.times.ingest_s);
  cell.count_s = std::min(cell.count_s, r.times.count_s);
  cell.estimate = r.estimate;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // Size grid: quarter scale and full scale (quick keeps only the full
  // --quick-clamped size, which is already small).
  std::vector<double> sizes;
  if (!opt.quick && opt.scale > 0.05) sizes.push_back(opt.scale * 0.25);
  sizes.push_back(opt.scale);

  struct SizeRun {
    double scale;
    std::size_t edges;
    NodeId nodes;
    std::vector<Cell> cells;  // cpu/cpu-fast alternating per thread count
  };
  std::vector<SizeRun> runs;

  for (const double scale : sizes) {
    const graph::EdgeList g = make_graph(scale, opt.seed);
    SizeRun run{scale, g.num_edges(), g.num_nodes(), {}};
    for (const std::uint32_t t : opt.threads) {
      run.cells.push_back({"cpu", t});
      run.cells.push_back({"cpu-fast", t});
    }
    // Interleave repeats across every cell so transient machine noise is
    // spread evenly instead of landing on whichever backend ran last.
    for (std::uint32_t rep = 0; rep < opt.repeat; ++rep) {
      for (Cell& cell : run.cells) run_once(g, cell, opt.seed);
    }
    runs.push_back(std::move(run));
  }

  bool estimates_identical = true;
  for (const SizeRun& run : runs) {
    for (const Cell& cell : run.cells) {
      estimates_identical &= cell.estimate == run.cells[0].estimate;
    }
  }

  // Headline: single-thread count-phase speedup on the largest size.
  const SizeRun& big = runs.back();
  double headline = 0.0;
  for (std::size_t i = 0; i + 1 < big.cells.size(); i += 2) {
    if (big.cells[i].threads == 1 && big.cells[i + 1].count_s > 0.0) {
      headline = big.cells[i].count_s / big.cells[i + 1].count_s;
    }
  }
  const double gate = 2.5;
  const bool pass = estimates_identical && (headline == 0.0 || headline >= gate);

  if (opt.json) {
    std::printf("{\"bench\":\"cpu_scaling\",\"seed\":%llu,\"repeat\":%u,"
                "\"sizes\":[",
                static_cast<unsigned long long>(opt.seed), opt.repeat);
    for (std::size_t s = 0; s < runs.size(); ++s) {
      const SizeRun& run = runs[s];
      std::printf("%s{\"scale\":%.3g,\"edges\":%zu,\"nodes\":%u,\"cells\":[",
                  s == 0 ? "" : ",", run.scale, run.edges, run.nodes);
      for (std::size_t i = 0; i < run.cells.size(); ++i) {
        const Cell& c = run.cells[i];
        std::printf("%s{\"backend\":\"%s\",\"threads\":%u,\"build_s\":%.9g,"
                    "\"count_s\":%.9g,\"edges_per_s\":%.6g,\"estimate\":%.17g}",
                    i == 0 ? "" : ",", c.backend, c.threads, c.build_s,
                    c.count_s,
                    c.count_s > 0.0 ? static_cast<double>(run.edges) / c.count_s
                                    : 0.0,
                    c.estimate);
      }
      std::printf("]}");
    }
    std::printf("],\"single_thread_count_speedup\":%.4g,"
                "\"estimates_identical\":%s}\n",
                headline, estimates_identical ? "true" : "false");
    return pass ? 0 : 1;
  }

  std::printf("==============================================================\n");
  std::printf("Exact CPU backend scaling on the hub-heavy BA+hubs graph\n");
  std::printf("(scale=%.2f seed=%llu repeat=%u, min over interleaved runs)\n",
              opt.scale, static_cast<unsigned long long>(opt.seed), opt.repeat);
  std::printf("==============================================================\n");
  for (const SizeRun& run : runs) {
    std::printf("\n-- %zu edges / %u nodes (scale %.3g) --\n", run.edges,
                run.nodes, run.scale);
    std::printf("  %-9s %8s %10s %10s %10s %12s %9s\n", "backend", "threads",
                "build(ms)", "count(ms)", "total(ms)", "edges/s", "vs cpu");
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
      const Cell& c = run.cells[i];
      const double eps =
          c.count_s > 0.0 ? static_cast<double>(run.edges) / c.count_s : 0.0;
      // Odd cells are cpu-fast; the even cell before them is cpu at the
      // same thread count.
      const double speedup =
          i % 2 == 1 && c.count_s > 0.0 ? run.cells[i - 1].count_s / c.count_s
                                        : 1.0;
      std::printf("  %-9s %8u %10.2f %10.2f %10.2f %12.3g %8.2fx\n", c.backend,
                  c.threads, c.build_s * 1e3, c.count_s * 1e3,
                  (c.build_s + c.count_s) * 1e3, eps, speedup);
    }
  }

  std::printf("\nShape check: estimates bit-identical across every cell: %s; "
              "single-thread cpu-fast count-phase speedup %.2fx (gate %.1fx): "
              "%s\n",
              estimates_identical ? "HOLDS" : "VIOLATED", headline, gate,
              headline == 0.0 || headline >= gate ? "HOLDS" : "VIOLATED");
  return pass ? 0 : 1;
}
