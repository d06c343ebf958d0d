// Shared plumbing for the benchmark binaries (one per paper table/figure).
//
// Every bench accepts:
//   --scale=<float>   edge-budget multiplier for the stand-in graphs
//                     (default 0.5; 1.0 ~ a quarter-million edges per graph)
//   --colors=<int>    vertex colors C (default 23, the paper's setting:
//                     binom(25,3) = 2300 PIM cores)
//   --quick           trims sweep grids for CI-style runs
//
// Output convention: a header block naming the paper artifact being
// regenerated, then a fixed-width table with one row per paper row/series
// point, then a "shape check" line summarizing whether the qualitative
// claim of the figure holds in this run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "../tools/cli_args.hpp"
#include "common/prng.hpp"
#include "engine/config.hpp"
#include "graph/coo.hpp"
#include "graph/paper_graphs.hpp"
#include "graph/preprocess.hpp"

namespace pimtc::bench {

/// Strict flag parsing shared by every bench binary: `read` pulls the
/// options out of the cli::Args bag (tools/cli_args.hpp), whose numeric
/// accessors reject malformed values.  A bad value, a positional argument or
/// a flag `supported` does not list prints one error line and exits 2.
template <typename Read>
auto parse_flags(int argc, char** argv, std::string_view supported,
                 Read read) {
  try {
    const cli::Args args(argc, argv, 1);
    args.require_known(supported);
    return read(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s (supported: %.*s)\n", e.what(),
                 static_cast<int>(supported.size()), supported.data());
    std::exit(2);
  }
}

/// --colors=<int> (0 = auto), checked by EngineConfig::validate() on the
/// default machine, so a C no engine accepts (e.g. 1) exits 2 in
/// parse_flags instead of aborting when the counter is built.
inline std::uint32_t colors_flag(const cli::Args& args,
                                 std::uint32_t fallback) {
  engine::EngineConfig check;
  check.num_colors = args.u32("colors", fallback);
  check.validate();
  return check.num_colors;
}

struct BenchOptions {
  double scale = 0.5;
  std::uint32_t colors = 23;
  bool quick = false;
  std::uint64_t seed = 42;
};

inline BenchOptions parse_options(int argc, char** argv) {
  return parse_flags(argc, argv, "--scale= --colors= --seed= --quick",
                     [](const cli::Args& args) {
                       BenchOptions opt;
                       opt.scale = args.f64("scale", opt.scale);
                       opt.colors = colors_flag(args, opt.colors);
                       opt.seed = args.u64("seed", opt.seed);
                       opt.quick = args.flag("quick");
                       return opt;
                     });
}

/// Builds the preprocessed (dedup + shuffle) stand-in for one paper graph.
inline graph::EdgeList load_graph(graph::PaperGraph g, const BenchOptions& opt) {
  graph::EdgeList list = graph::make_paper_graph(g, opt.scale, opt.seed);
  graph::preprocess(list, derive_seed(opt.seed, 0x9e37));
  return list;
}

inline void print_header(const char* artifact, const char* claim,
                         const BenchOptions& opt) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact);
  std::printf("Paper claim: %s\n", claim);
  std::printf("Config: scale=%.2f colors=%u seed=%llu%s\n", opt.scale,
              opt.colors, static_cast<unsigned long long>(opt.seed),
              opt.quick ? " (quick)" : "");
  std::printf("==============================================================\n");
}

/// 1e6-style human formatting for counts.
inline std::string human(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

}  // namespace pimtc::bench
