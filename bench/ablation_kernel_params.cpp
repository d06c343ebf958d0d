// Ablation over the DPU kernel's execution parameters: tasklet count and
// WRAM stream-buffer size.
//
// The paper fixes 16 tasklets per core (enough to saturate the 11-stage
// issue pipeline) and streams MRAM through small WRAM buffers.  This bench
// quantifies both choices on a single DPU loaded with a whole graph:
//  * tasklets: time should improve until the pipeline saturates (~11), then
//    flatten,
//  * buffer size: bigger buffers amortize the fixed DMA setup cost until the
//    per-byte term dominates.
#include <vector>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "pim/dpu.hpp"
#include "tc/kernel.hpp"
#include "tc/layout.hpp"

int main(int argc, char** argv) {
  using namespace pimtc;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Ablation: DPU kernel parameters (tasklets, WRAM buffer size)",
      "throughput saturates near 11 resident tasklets; small DMA buffers "
      "pay setup overhead per burst",
      opt);

  graph::EdgeList g = graph::gen::rmat(
      15, static_cast<EdgeCount>(60e3 * opt.scale * 2),
      graph::gen::RmatParams{0.45, 0.22, 0.22, 0.11}, opt.seed);
  graph::preprocess(g, opt.seed);
  std::printf("workload: R-MAT, %zu edges on ONE simulated DPU\n\n",
              g.num_edges());

  pim::PimSystemConfig sys_cfg;
  sys_cfg.mram_bytes = 16ull << 20;

  const auto run_once = [&](std::uint32_t tasklets,
                            std::uint32_t buffer_edges) {
    pim::Dpu dpu(sys_cfg, 0);
    tc::DpuMeta meta;
    meta.sample_size = g.num_edges();
    meta.edges_seen = g.num_edges();
    meta.sample_capacity = g.num_edges() + 1;
    dpu.mram().write_t(tc::MramLayout::kMetaOffset, meta);
    dpu.mram().write(tc::MramLayout::sample_offset(), g.edges().data(),
                     g.num_edges() * sizeof(Edge));
    tc::KernelParams params;
    params.tasklets = tasklets;
    params.buffer_edges = buffer_edges;
    tc::run_count_kernel(dpu, params);
    return dpu.seconds() * 1e3;
  };

  std::printf("tasklet sweep (buffer = 64 edges):\n");
  std::printf("  %9s %12s %10s\n", "tasklets", "kernel (ms)", "speedup");
  std::vector<std::uint32_t> tasklet_grid = {1, 2, 4, 8, 11, 16, 24};
  if (opt.quick) tasklet_grid = {1, 11, 16};
  double base_ms = 0.0;
  double t11 = 0.0;
  double t24 = 0.0;
  for (const std::uint32_t t : tasklet_grid) {
    const double ms = run_once(t, 64);
    if (base_ms == 0.0) base_ms = ms;
    if (t == 11) t11 = ms;
    if (t == 24) t24 = ms;
    std::printf("  %9u %12.2f %9.2fx\n", t, ms, base_ms / ms);
  }

  // Buffer sizes above 64 edges (the bound at 16 tasklets) are clamped by
  // the kernel so that five simultaneous per-tasklet buffers plus the
  // static WRAM tables still fit the 64 KB scratchpad.
  std::printf("\nbuffer-size sweep (16 tasklets):\n");
  std::printf("  %9s %12s\n", "edges/buf", "kernel (ms)");
  std::vector<std::uint32_t> buffer_grid = {4, 8, 16, 32, 48, 62};
  if (opt.quick) buffer_grid = {8, 62};
  double first = 0.0;
  double last = 0.0;
  double best = 1e300;
  for (const std::uint32_t b : buffer_grid) {
    const double ms = run_once(16, b);
    if (first == 0.0) first = ms;
    last = ms;
    best = std::min(best, ms);
    std::printf("  %9u %12.2f\n", b, ms);
  }

  // Buffer size trades per-transfer overhead amortization (hurts tiny
  // buffers) against wasted fetch beyond short regions (hurts big ones):
  // the sweet spot is interior.
  const bool interior_optimum = best < first * 0.98 && best < last * 0.98;
  std::printf("\nShape check: pipeline saturation (24 tasklets within 15%% "
              "of 11): %s; buffer size has an interior optimum: %s\n",
              (t11 == 0.0 || t24 == 0.0 || t24 > t11 * 0.85) ? "HOLDS"
                                                             : "VIOLATED",
              interior_optimum ? "HOLDS" : "WEAK");
  return 0;
}
