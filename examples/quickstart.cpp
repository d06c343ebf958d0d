// Quickstart: count triangles in a COO graph on the simulated UPMEM system.
//
//   $ ./quickstart [path/to/graph.txt]
//
// Without an argument a small synthetic social graph is generated.  The
// example walks the full public API: preprocess -> make_engine -> count ->
// inspect the unified report, and cross-checks against the CPU backend
// through the same engine interface.
#include <cstdio>

#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/preprocess.hpp"

int main(int argc, char** argv) {
  using namespace pimtc;

  // 1. Load or generate a COO edge list.
  graph::EdgeList g;
  if (argc > 1) {
    std::printf("Loading %s ...\n", argv[1]);
    g = graph::read_coo(argv[1]);
  } else {
    std::printf("Generating a synthetic social graph (R-MAT + closure) ...\n");
    g = graph::gen::rmat(14, 100'000,
                         graph::gen::RmatParams{0.45, 0.22, 0.22, 0.11}, 7);
    graph::gen::close_triads(g, 0.5, 4, 8);
  }

  // 2. Preprocess exactly like the paper: dedup, drop self loops, shuffle.
  const graph::PreprocessStats pre = graph::preprocess(g, /*seed=*/42);
  std::printf("Graph: %zu edges, %u nodes (%zu loops, %zu dups removed)\n",
              g.num_edges(), g.num_nodes(), pre.removed_self_loops,
              pre.removed_duplicates);

  // 3. Configure the engine: 8 colors -> binom(10,3) = 120 PIM cores,
  //    exact mode (each core runs the paper's 16 tasklets).  Any registered
  //    backend accepts the same config — that is the whole point of the
  //    engine layer.
  engine::EngineConfig config;
  config.num_colors = 8;

  // 4. Count on the PIM backend.
  auto pim = engine::make_engine("pim", config);
  const engine::CountReport result = pim->count(g);
  std::printf("\nPIM result: %llu triangles (%s)\n",
              static_cast<unsigned long long>(result.rounded()),
              result.exact ? "exact" : "approximate");
  std::printf("  PIM cores used:      %u\n", result.num_units);
  std::printf("  edges replicated:    %llu (= C x |E|)\n",
              static_cast<unsigned long long>(result.edges_replicated));
  std::printf("  per-core load:       %llu .. %llu edges\n",
              static_cast<unsigned long long>(result.min_unit_edges),
              static_cast<unsigned long long>(result.max_unit_edges));
  std::printf("  simulated times:     setup %.2f ms | ingest %.2f ms | count %.2f ms\n",
              result.times.setup_s * 1e3, result.times.ingest_s * 1e3,
              result.times.count_s * 1e3);

  // 5. Cross-check with the CPU backend through the same interface.
  auto cpu = engine::make_engine("cpu", config);
  const engine::CountReport check = cpu->count(g);
  std::printf("\nCPU baseline: %llu triangles (convert %.2f ms + count %.2f ms)\n",
              static_cast<unsigned long long>(check.rounded()),
              check.times.ingest_s * 1e3, check.times.count_s * 1e3);
  std::printf("%s\n", check.rounded() == result.rounded()
                          ? "Counts agree."
                          : "COUNTS DISAGREE — this is a bug.");
  return check.rounded() == result.rounded() ? 0 : 1;
}
