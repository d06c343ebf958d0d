// Out-of-core ingest throughput bench: edges/s of the chunked streaming
// reader (graph/stream_reader.hpp + engine/ingest.hpp) per on-disk format —
// text COO vs `.pbin` buffered vs `.pbin` mmap — on a hub-heavy BA+hubs
// graph 10-100x the figure benches' size.
//
// Each cell drains the file through the full double-buffered ingest
// pipeline (producer parse task + consumer filter stage, null sink) and
// reports wall-clock edges/s (min over --repeat runs).  The headline and
// exit gate is `.pbin`-streamed vs text on the largest size: the binary
// format must ingest >= 3x faster (the tracked local figure is >= 10x; the
// gate absorbs shared-runner noise).  A parity cell additionally streams
// the `.pbin` into a cpu-fast engine chunk-at-a-time and requires the
// estimate to be bit-identical to the one-shot read_coo + count() path.
//
// With --json the run emits one JSON object (BENCH_ingest.json in the CI
// bench-smoke job) seeding the ingest perf trajectory.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/ingest.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stream_reader.hpp"

namespace {

using namespace pimtc;
namespace fs = std::filesystem;

struct Options {
  double scale = 1.0;
  std::uint64_t seed = 42;
  std::size_t chunk_edges = std::size_t{1} << 18;
  std::uint32_t repeat = 3;
  bool json = false;
  bool quick = false;
  bool keep = false;  ///< leave the generated files on disk
};

Options parse(int argc, char** argv) {
  return bench::parse_flags(
      argc, argv,
      "--scale= --seed= --chunk-edges= --repeat= --quick --keep --json",
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
        opt.chunk_edges = args.u64("chunk-edges", opt.chunk_edges);
        if (opt.chunk_edges == 0) {
          throw std::invalid_argument("--chunk-edges must be >= 1");
        }
        opt.json = args.flag("json");
        opt.keep = args.flag("keep");
        return opt;
      });
}

/// The fig-bench BA+hubs recipe scaled ~20x: ~2M edges at --scale=1.
graph::EdgeList make_graph(double scale, std::uint64_t seed) {
  graph::EdgeList g = graph::gen::barabasi_albert(
      static_cast<NodeId>(400000 * scale) + 2000, 5, seed + 1);
  graph::gen::add_hubs(g, 3, g.num_nodes() / 4, seed + 2);
  graph::gen::permute_ids(g, seed + 4);
  return g;
}

struct Cell {
  const char* label;
  fs::path path;
  bool use_mmap;
  double seconds = 1e300;  ///< min wall-clock over repeats
  bool mapped = false;     ///< the reader actually served from an mmap
  std::uint64_t bytes = 0;
  EdgeCount edges_read = 0;
};

/// One timed drain of `cell` through the full ingest pipeline (null sink).
void run_once(Cell& cell, std::size_t chunk_edges) {
  graph::ReaderOptions ropt;
  ropt.chunk_edges = chunk_edges;
  ropt.use_mmap = cell.use_mmap;
  const auto t0 = std::chrono::steady_clock::now();
  graph::ChunkedEdgeReader reader(cell.path, ropt);
  const engine::IngestStats stats =
      engine::ingest_stream(reader, [](std::span<const Edge>) {});
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  cell.seconds = std::min(cell.seconds, dt.count());
  cell.mapped = stats.mapped;
  cell.edges_read = stats.edges_read;
}

double edges_per_s(const Cell& c) {
  return c.seconds > 0.0 ? static_cast<double>(c.edges_read) / c.seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  const fs::path dir =
      fs::temp_directory_path() /
      ("pimtc_bench_ingest_" + std::to_string(opt.seed));
  fs::create_directories(dir);

  const graph::EdgeList g = make_graph(opt.scale, opt.seed);

  // Write the same edge list in both formats, with declared counts so the
  // headers are exact (no padding).
  graph::WriterOptions wopt;
  wopt.declared_edges = g.num_edges();
  wopt.declared_nodes = g.num_nodes();
  std::vector<Cell> cells = {
      {"text", dir / "g.txt", true},
      {"pbin-buffered", dir / "g.pbin", false},
      {"pbin-mmap", dir / "g.pbin", true},
  };
  for (const fs::path& p : {cells[0].path, cells[1].path}) {
    auto w = graph::make_edge_writer(p, wopt);
    w->append(g.edges());
    w->finish();
  }
  for (Cell& c : cells) c.bytes = fs::file_size(c.path);

  // Interleave repeats so transient machine noise spreads across formats.
  for (std::uint32_t rep = 0; rep < opt.repeat; ++rep) {
    for (Cell& c : cells) run_once(c, opt.chunk_edges);
  }

  bool counts_identical = true;
  for (const Cell& c : cells) {
    counts_identical &= c.edges_read == g.num_edges();
  }

  // Parity: stream the .pbin into a cpu-fast session chunk-at-a-time and
  // compare against the one-shot in-memory count — must be bit-identical.
  engine::EngineConfig cfg;
  cfg.seed = opt.seed;
  const double oneshot = engine::make_engine("cpu-fast", cfg)->count(g).estimate;
  auto streamed_engine = engine::make_engine("cpu-fast", cfg);
  engine::ingest_file(*streamed_engine, dir / "g.pbin",
                      {.chunk_edges = opt.chunk_edges});
  const double streamed = streamed_engine->recount().estimate;
  const bool parity = streamed == oneshot;

  // Headline: mmap-streamed .pbin vs text, same pipeline either side.
  const double text_eps = edges_per_s(cells[0]);
  const double pbin_eps = edges_per_s(cells[2]);
  const double headline = text_eps > 0.0 ? pbin_eps / text_eps : 0.0;
  const double gate = 3.0;
  const bool pass = parity && counts_identical && headline >= gate;

  if (!opt.keep) {
    std::error_code ec;
    fs::remove_all(dir, ec);  // best-effort cleanup
  }

  if (opt.json) {
    std::printf("{\"bench\":\"ingest\",\"seed\":%llu,\"scale\":%.3g,"
                "\"repeat\":%u,\"chunk_edges\":%zu,\"edges\":%llu,"
                "\"nodes\":%u,\"formats\":[",
                static_cast<unsigned long long>(opt.seed), opt.scale,
                opt.repeat, opt.chunk_edges,
                static_cast<unsigned long long>(g.num_edges()), g.num_nodes());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::printf("%s{\"format\":\"%s\",\"bytes\":%llu,\"mapped\":%s,"
                  "\"seconds\":%.9g,\"edges_per_s\":%.6g}",
                  i == 0 ? "" : ",", c.label,
                  static_cast<unsigned long long>(c.bytes),
                  c.mapped ? "true" : "false", c.seconds, edges_per_s(c));
    }
    std::printf("],\"pbin_vs_text_speedup\":%.4g,\"parity\":%s,"
                "\"counts_identical\":%s}\n",
                headline, parity ? "true" : "false",
                counts_identical ? "true" : "false");
    return pass ? 0 : 1;
  }

  std::printf("==============================================================\n");
  std::printf("Out-of-core ingest throughput (chunked streaming reader)\n");
  std::printf("graph: BA+hubs, %llu edges, %u nodes; chunk=%zu edges; "
              "min over %u repeats\n",
              static_cast<unsigned long long>(g.num_edges()), g.num_nodes(),
              opt.chunk_edges, opt.repeat);
  std::printf("==============================================================\n");
  std::printf("%-14s %12s %8s %10s %12s\n", "format", "bytes", "mapped",
              "seconds", "edges/s");
  for (const Cell& c : cells) {
    std::printf("%-14s %12llu %8s %10.4f %12.3g\n", c.label,
                static_cast<unsigned long long>(c.bytes),
                c.mapped ? "yes" : "no", c.seconds, edges_per_s(c));
  }
  std::printf("--------------------------------------------------------------\n");
  std::printf("pbin-mmap vs text speedup: %.2fx (gate >= %.1fx)\n", headline,
              gate);
  std::printf("streamed-vs-oneshot parity (cpu-fast): %s\n",
              parity ? "ok" : "MISMATCH");
  std::printf("edge counts identical across formats: %s\n",
              counts_identical ? "yes" : "NO");
  std::printf("%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
