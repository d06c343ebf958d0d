// Ablation for the Section 3.1 load-balance analysis: with C colors, cores
// owning a single-color triplet receive N edges in expectation, two-color
// cores 3N, three-color cores 6N — and as C grows, the 6N cores dominate
// the population (binomial growth), keeping the machine load-balanced.
//
// This bench measures the actual per-core edge loads (t_d) on a real edge
// stream and compares the per-kind means against the 1 : 3 : 6 prediction.
#include <vector>

#include "bench_util.hpp"
#include "common/math_util.hpp"
#include "tc/host.hpp"

int main(int argc, char** argv) {
  using namespace pimtc;
  bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Ablation (Section 3.1): per-core edge load by triplet kind",
      "single/two/three-color cores receive loads in ratio 1 : 3 : 6; "
      "three-color cores dominate the population as C grows",
      opt);

  const graph::EdgeList list =
      bench::load_graph(graph::PaperGraph::kKronecker23, opt);

  std::vector<std::uint32_t> color_counts = {4, 8, 13, 23};
  if (opt.quick) color_counts = {4, 13};

  for (const std::uint32_t c : color_counts) {
    engine::EngineConfig cfg;
    cfg.num_colors = c;
    cfg.seed = opt.seed;
    tc::PimTriangleCounter counter(cfg);
    counter.add_edges(list.edges());

    const auto seen = counter.per_dpu_edges_seen();
    const auto& table = counter.triplets();

    double sum[4] = {0, 0, 0, 0};
    std::uint64_t count[4] = {0, 0, 0, 0};
    std::uint64_t max_load = 0;
    std::uint64_t min_load = ~0ull;
    for (std::uint32_t d = 0; d < table.num_triplets(); ++d) {
      const auto kind = table.triplet(d).kind();
      sum[kind] += static_cast<double>(seen[d]);
      ++count[kind];
      max_load = std::max(max_load, seen[d]);
      min_load = std::min(min_load, seen[d]);
    }
    const double n1 = sum[1] / static_cast<double>(count[1]);
    const double n2 = sum[2] / static_cast<double>(count[2]);
    const double n3 = sum[3] / static_cast<double>(count[3]);

    std::printf("\nC=%u (%llu cores: %llu mono, %llu two-color, %llu "
                "three-color)\n",
                c, static_cast<unsigned long long>(num_triplets(c)),
                static_cast<unsigned long long>(count[1]),
                static_cast<unsigned long long>(count[2]),
                static_cast<unsigned long long>(count[3]));
    std::printf("  mean load: mono %.0f | two-color %.0f (%.2fx) | "
                "three-color %.0f (%.2fx)   [predicted 1x / 3x / 6x]\n",
                n1, n2, n2 / n1, n3, n3 / n1);
    std::printf("  spread: min %llu, max %llu, max/min %.2f\n",
                static_cast<unsigned long long>(min_load),
                static_cast<unsigned long long>(max_load),
                static_cast<double>(max_load) /
                    static_cast<double>(std::max<std::uint64_t>(1, min_load)));

    const bool ratios_hold =
        n2 / n1 > 2.5 && n2 / n1 < 3.5 && n3 / n1 > 5.0 && n3 / n1 < 7.0;
    std::printf("  shape: 1:3:6 ratio %s\n", ratios_hold ? "HOLDS" : "WEAK");
  }
  return 0;
}
