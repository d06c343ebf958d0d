// Regenerates Figure 6: speedup of the PIM and GPU implementations over the
// CPU baseline when counting exact triangles on *static* graphs, measured
// from the moment the graph is in memory (the CPU's COO->CSR conversion is
// excluded, exactly as in the paper).
//
// Method (see DESIGN.md): the stand-in graph runs at --scale; the CPU
// backend's intersection-step profile and the PIM backend's simulated count
// time are then projected linearly to the published |E| of each dataset,
// and the CPU/GPU platform models (DRAM-regime rates of a dual Xeon 4215
// and an A100) convert work to seconds.  Both backends run through the
// engine registry; the comparison glue is the same for any future backend.
//
// Paper claims: GPU > CPU > PIM on every graph except Human-Jung, where the
// PIM system wins outright (huge triangle count, low max degree).
#include <algorithm>
#include <string>

#include "baseline/device_model.hpp"
#include "bench_util.hpp"
#include "engine/registry.hpp"

int main(int argc, char** argv) {
  using namespace pimtc;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Figure 6: PIM & GPU speedup over CPU, static exact counting",
      "GPU fastest everywhere; CPU beats PIM except on Human-Jung where "
      "PIM wins",
      opt);

  const baseline::PlatformModel cpu_model = baseline::xeon_4215_model();
  const baseline::PlatformModel gpu_model = baseline::a100_model();

  std::printf("%-14s %10s %10s %10s %10s | %9s %9s %9s  (speedup over CPU)\n",
              "graph", "CPU (s)", "CPUfast(s)", "GPU (s)", "PIM (s)", "GPU x",
              "PIM x", "CPUfast x");

  bool gpu_always_fastest = true;
  bool pim_wins_hj = false;
  bool pim_loses_skewed = true;
  bool fast_matches_cpu = true;
  bool fast_never_slower = true;

  for (const auto g : graph::kAllPaperGraphs) {
    const graph::EdgeList list = bench::load_graph(g, opt);
    const auto& info = graph::paper_graph_info(g);
    const double ratio = static_cast<double>(info.paper_edges) /
                         static_cast<double>(list.num_edges());

    // CPU work profile at our scale, projected to paper |E|.
    const engine::CountReport cpu = engine::make_engine("cpu")->count(list);
    const double steps_paper =
        static_cast<double>(cpu.work.intersection_steps) * ratio;
    const double cpu_s =
        cpu_model.fixed_overhead_s + steps_paper / cpu_model.steps_per_s;
    const double gpu_s =
        gpu_model.fixed_overhead_s + steps_paper / gpu_model.steps_per_s;

    // cpu-fast: same projection through the same platform model, applied to
    // its own (much smaller) intersection-op profile — the column isolates
    // the algorithmic work reduction of the DODG + bitmap-probe kernel from
    // raw wall-clock (which bench_cpu_scaling measures directly).
    const engine::CountReport fast = engine::make_engine("cpu-fast")->count(list);
    const double fast_steps_paper =
        static_cast<double>(fast.work.intersection_steps) * ratio;
    const double fast_s =
        cpu_model.fixed_overhead_s + fast_steps_paper / cpu_model.steps_per_s;
    if (fast.estimate != cpu.estimate) fast_matches_cpu = false;

    // PIM: best of MG-off and MG-on (the paper uses each graph's best MG
    // parameters in the cross-platform comparison).
    double pim_count_s = 1e300;
    for (const bool mg : {false, true}) {
      engine::EngineConfig cfg;
      cfg.num_colors = opt.colors;
      cfg.seed = opt.seed;
      cfg.misra_gries_enabled = mg;
      cfg.mg_capacity = 1024;
      cfg.mg_top = 32;
      const engine::CountReport r = engine::make_engine("pim", cfg)->count(list);
      pim_count_s = std::min(pim_count_s, r.times.count_s);
    }
    const double pim_s = pim_count_s * ratio;

    const double gpu_speedup = cpu_s / gpu_s;
    const double pim_speedup = cpu_s / pim_s;
    const double fast_speedup = cpu_s / fast_s;
    std::printf("%-14s %10.2f %10.2f %10.2f %10.2f | %9.2f %9.2f %9.2f\n",
                std::string(info.name).c_str(), cpu_s, fast_s, gpu_s, pim_s,
                gpu_speedup, pim_speedup, fast_speedup);
    if (fast_speedup < 1.0) fast_never_slower = false;

    if (gpu_speedup <= 1.0) gpu_always_fastest = false;
    if (g == graph::PaperGraph::kHumanJung && pim_speedup > 1.0) {
      pim_wins_hj = true;
    }
    // Graphs whose degree structure survives the scale-down: the paper's
    // "PIM loses" rows that we can reproduce.  Orkut and Kron24 carry
    // max/avg degree ratios that are unrepresentable at reduced |E| (the
    // ratio is bounded by the node count), which removes the hub pain that
    // defeats PIM at paper scale — annotated, not checked.
    const bool skew_preserved = g == graph::PaperGraph::kV1r ||
                                g == graph::PaperGraph::kLiveJournal ||
                                g == graph::PaperGraph::kKronecker23 ||
                                g == graph::PaperGraph::kWikipediaEdit;
    if (skew_preserved && pim_speedup >= 1.0) pim_loses_skewed = false;
  }

  std::printf("\nShape check: GPU fastest on every graph: %s; PIM wins on "
              "Human-Jung: %s; CPU beats PIM on the structure-preserving "
              "graphs (V1r, LiveJournal, Kron23, WikipediaEdit): %s\n"
              "Note: Orkut/Kron24 hub ratios are not representable at this "
              "scale, so their rows sit nearer parity than in the paper "
              "(README.md, \"Scale gap\").\n",
              gpu_always_fastest ? "HOLDS" : "VIOLATED",
              pim_wins_hj ? "HOLDS" : "VIOLATED",
              pim_loses_skewed ? "HOLDS" : "VIOLATED");
  std::printf("cpu-fast: estimates bit-identical to cpu on every graph: %s; "
              "modeled time never above cpu: %s\n",
              fast_matches_cpu ? "HOLDS" : "VIOLATED",
              fast_never_slower ? "HOLDS" : "VIOLATED");
  return fast_matches_cpu ? 0 : 1;
}
