#include "graph/paper_graphs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/prng.hpp"
#include "graph/generators.hpp"

namespace pimtc::graph {
namespace {

constexpr PaperGraphInfo kInfos[] = {
    {"Kronecker 23", 129'335'985, 4'609'311, 4'675'811'428, 257'484, 56.12,
     0.0209},
    {"Kronecker 24", 260'383'358, 8'870'393, 10'285'674'980, 407'017, 58.71,
     0.0173},
    {"V1r", 232'705'452, 214'005'017, 49, 8, 2.17, 4.784e-7},
    {"LiveJournal", 42'851'237, 4'847'571, 285'730'264, 20'333, 17.68, 0.1179},
    {"Orkut", 117'185'083, 3'072'441, 627'584'181, 33'313, 76.28, 0.0413},
    {"Human-Jung", 267'844'669, 784'262, 41'727'013'307, 21'743, 683.05,
     0.2944},
    {"WikipediaEdit", 255'688'945, 42'541'517, 881'439'081, 3'026'864, 12.02,
     7.827e-5},
};

/// Picks the R-MAT scale (node-count bits) whose node count best matches
/// edges/avg_degree at the requested edge budget.
std::uint32_t rmat_scale_for(EdgeCount edges, double avg_degree) {
  const double target_nodes = 2.0 * static_cast<double>(edges) / avg_degree;
  std::uint32_t scale = 1;
  while ((1ull << (scale + 1)) <= static_cast<EdgeCount>(target_nodes) &&
         scale < 26) {
    ++scale;
  }
  return scale + 1;
}

}  // namespace

const PaperGraphInfo& paper_graph_info(PaperGraph g) noexcept {
  return kInfos[static_cast<std::size_t>(g)];
}

EdgeList make_paper_graph(PaperGraph g, double scale, std::uint64_t seed) {
  if (scale <= 0.0) throw std::invalid_argument("make_paper_graph: scale > 0");
  const auto scaled = [scale](double base) {
    return static_cast<EdgeCount>(std::max(1.0, base * scale));
  };

  switch (g) {
    case PaperGraph::kKronecker23: {
      // Graph500 initiator; heavy skew gives the ~quarter-million max degree
      // signature (scaled: max degree in the thousands).
      const EdgeCount edges = scaled(260e3);
      return gen::rmat(rmat_scale_for(edges, 16.0), edges,
                       gen::RmatParams{0.57, 0.19, 0.19, 0.05},
                       derive_seed(seed, 1));
    }
    case PaperGraph::kKronecker24: {
      // One scale step up, ~2x the edges, like Kron24 vs Kron23.
      const EdgeCount edges = scaled(520e3);
      return gen::rmat(rmat_scale_for(edges, 16.0), edges,
                       gen::RmatParams{0.57, 0.19, 0.19, 0.05},
                       derive_seed(seed, 2));
    }
    case PaperGraph::kV1r: {
      // Road network: avg degree 2.17, max degree 8, 49 triangles total.
      // ER at avg degree 2.17 contributes ~2 triangles; plant the rest.
      const auto nodes = static_cast<NodeId>(scaled(220e3));
      // ~49 planted triangles at scale 1.0, as in the published graph.
      const auto planted = static_cast<std::uint32_t>(
          std::max(4.0, 48.0 * scale));
      return gen::road_like(nodes, 2.17, planted, derive_seed(seed, 3));
    }
    case PaperGraph::kLiveJournal: {
      // Social graph: moderate skew, clustering ~0.12.  Milder R-MAT plus a
      // triadic-closure pass for the clustering signature.
      const EdgeCount edges = scaled(180e3);
      EdgeList list = gen::rmat(rmat_scale_for(edges, 17.7), edges,
                                gen::RmatParams{0.45, 0.22, 0.22, 0.11},
                                derive_seed(seed, 4));
      gen::close_triads(list, 0.5, 4, derive_seed(seed, 40));
      return list;
    }
    case PaperGraph::kOrkut: {
      // Denser social graph (avg degree 76) with a larger max degree than
      // LiveJournal.  Note the published max/avg ratio (437x) cannot exist
      // at reduced |E| — max degree is bounded by the node count — so the
      // Orkut stand-in under-represents the hub pain the PIM kernel feels
      // at paper scale; see README.md, "Scale gap".
      const EdgeCount edges = scaled(300e3);
      EdgeList list = gen::rmat(rmat_scale_for(edges, 76.0), edges,
                                gen::RmatParams{0.50, 0.21, 0.21, 0.08},
                                derive_seed(seed, 5));
      gen::close_triads(list, 0.4, 3, derive_seed(seed, 50));
      return list;
    }
    case PaperGraph::kHumanJung: {
      // Brain connectome: *extreme density* is the defining signature —
      // average degree 683 vs Orkut's 76 — with high clustering (0.29) and
      // a max degree only ~32x the average.  At reduced |E| the absolute
      // average degree cannot reach 683 (it is bounded by the node count),
      // so we preserve the density *ratio*: ~2.5-3x denser than the Orkut
      // stand-in.  Dense communities of 256 nodes with p_in solved from the
      // edge budget, plus a small rich-club of moderate hubs.
      const EdgeCount edges = scaled(280e3);
      const auto nodes = static_cast<NodeId>(
          std::max<EdgeCount>(512, edges / 100));  // avg degree ~200
      const NodeId block = 256;
      const double blocks = static_cast<double>(nodes) / block;
      const double pairs_per_block =
          static_cast<double>(block) * (block - 1) / 2.0;
      const double p_in = std::min(
          0.95, 0.92 * static_cast<double>(edges) / (blocks * pairs_per_block));
      EdgeList list = gen::community(nodes, block, p_in,
                                     /*inter_edges=*/edges / 25,
                                     derive_seed(seed, 6));
      gen::add_hubs(list, 4, static_cast<NodeId>(nodes / 3),
                    derive_seed(seed, 60));
      return list;
    }
    case PaperGraph::kWikipediaEdit: {
      // Hyperlink/edit graph: avg degree 12, one outlier hub at ~7% of |V|,
      // near-zero clustering.  BA base (power-law tail) plus explicit
      // super-hubs that dominate every other graph's max degree.
      const EdgeCount edges = scaled(250e3);
      const auto nodes = static_cast<NodeId>(static_cast<double>(edges) / 5.0);
      EdgeList list =
          gen::barabasi_albert(nodes, 4, derive_seed(seed, 7));
      gen::add_hubs(list, 2, static_cast<NodeId>(nodes / 2),
                    derive_seed(seed, 70));
      gen::add_hubs(list, 3, static_cast<NodeId>(nodes / 8),
                    derive_seed(seed, 71));
      // Hubs must sit at arbitrary ids (BA puts its hubs first, add_hubs
      // last) — the Misra-Gries experiment depends on that realism.
      gen::permute_ids(list, derive_seed(seed, 72));
      return list;
    }
  }
  throw std::invalid_argument("make_paper_graph: unknown graph");
}

}  // namespace pimtc::graph
