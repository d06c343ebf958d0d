// Regenerates Figure 3: PIM counting throughput (edges per millisecond) per
// graph, graphs ordered by maximum node degree (lowest first), Misra-Gries
// OFF.
//
// Paper claim: the first four graphs (max degree in the tens of thousands —
// here: the scaled equivalents) sustain far higher throughput than the last
// three (max degree in the hundreds of thousands or millions), because the
// edge-iterator's merge work explodes with hub size.
#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "graph/stats.hpp"
#include "tc/host.hpp"

int main(int argc, char** argv) {
  using namespace pimtc;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Figure 3: throughput (edges/ms) vs graph, ordered by max degree",
      "low-max-degree graphs sustain much higher throughput than "
      "hub-heavy ones (Misra-Gries disabled)",
      opt);

  struct Row {
    std::string name;
    std::uint64_t max_degree;
    std::size_t edges;
    double ingest_ms;
    double count_ms;
    double throughput;
    double wire_pad;   // wire/payload of the rank-parallel pushes
    double imbalance;  // max/mean per-core load (count gated by the max)
  };
  std::vector<Row> rows;

  for (const auto g : graph::kAllPaperGraphs) {
    const graph::EdgeList list = bench::load_graph(g, opt);
    const graph::DegreeStats deg = graph::degree_stats(list);

    engine::EngineConfig cfg;
    cfg.num_colors = opt.colors;
    cfg.seed = opt.seed;
    tc::PimTriangleCounter counter(cfg);
    const engine::CountReport r = counter.count(list);

    Row row;
    row.name = graph::paper_graph_info(g).name;
    row.max_degree = deg.max_degree;
    row.edges = list.num_edges();
    row.ingest_ms = r.times.ingest_s * 1e3;
    row.count_ms = r.times.count_s * 1e3;
    row.throughput = static_cast<double>(list.num_edges()) / row.count_ms;
    row.wire_pad = r.transfers.push_padding();
    row.imbalance = r.load_imbalance;
    rows.push_back(row);
  }

  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.max_degree < b.max_degree;
  });

  std::printf("%-14s %10s %10s %12s %12s %14s %8s %10s\n", "graph", "maxdeg",
              "|E|", "ingest (ms)", "count (ms)", "edges/ms", "pad x",
              "imbalance");
  for (const Row& row : rows) {
    std::printf("%-14s %10llu %10zu %12.2f %12.2f %14.1f %8.2f %9.2fx\n",
                row.name.c_str(),
                static_cast<unsigned long long>(row.max_degree), row.edges,
                row.ingest_ms, row.count_ms, row.throughput, row.wire_pad,
                row.imbalance);
  }

  // Shape: (a) throughput is (near-)monotone decreasing in max degree;
  // (b) the low-max-degree group clearly outruns the hub-heavy group.  The
  // paper's gap is ~10x because its absolute hub sizes are 400x ours; the
  // per-DPU hub-region walk that causes it grows linearly with |E| at fixed
  // core count, so the gap magnitude is scale-dependent while the ordering
  // is not (see README.md, "Scale gap").
  double low = 0.0;
  double high = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    (i < 4 ? low : high) += rows[i].throughput;
  }
  low /= 4.0;
  high /= 3.0;
  int inversions = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].throughput > rows[i - 1].throughput * 1.10) ++inversions;
  }
  std::printf("\nShape check: throughput ordering follows max degree "
              "(%d/6 inversions > 10%%): %s; low-degree group %.1f vs "
              "hub-heavy %.1f edges/ms (%.2fx gap, grows with scale): %s\n",
              inversions, inversions <= 1 ? "HOLDS" : "VIOLATED", low, high,
              low / high, low > 1.3 * high ? "HOLDS" : "WEAK");
  return 0;
}
