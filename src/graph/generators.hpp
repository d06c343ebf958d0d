// Synthetic graph generators.
//
// The paper evaluates on seven public graphs (Table 1) that are too large for
// this environment and partly not redistributable, so `paper_graphs.hpp`
// builds structure-matched stand-ins from the primitives in this header.
// The primitives are also the workload generators for tests and ablations.
//
// All generators return *simple* graphs (no self loops, no duplicate
// undirected edges) with a deterministic edge set per seed.  Edge order is
// generator-defined; callers that need the paper's methodology apply
// graph::preprocess (which shuffles) afterwards.
#pragma once

#include <cstdint>

#include "graph/coo.hpp"

namespace pimtc::graph::gen {

/// Kronecker / R-MAT initiator probabilities.  Graph500 uses
/// (0.57, 0.19, 0.19, 0.05).
struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
};

/// R-MAT graph over 2^scale nodes with ~target_edges distinct edges
/// (duplicates are re-drawn, so the output size is exact unless the space is
/// exhausted).  This is the stand-in family for the Graph500 Kronecker
/// datasets and, with milder parameters, for social networks.
[[nodiscard]] EdgeList rmat(std::uint32_t scale, EdgeCount target_edges,
                            const RmatParams& params, std::uint64_t seed);

/// Erdos-Renyi G(n, m): exactly m distinct edges chosen uniformly.
[[nodiscard]] EdgeList erdos_renyi(NodeId n, EdgeCount m, std::uint64_t seed);

/// Barabasi-Albert preferential attachment: each new node attaches to
/// `m_per_node` distinct existing nodes with probability proportional to
/// degree.  Yields a power-law tail (hub-heavy).
[[nodiscard]] EdgeList barabasi_albert(NodeId n, std::uint32_t m_per_node,
                                       std::uint64_t seed);

/// Planted-partition community graph: blocks of `block_size` nodes, each
/// internal pair connected with probability p_in, plus `inter_edges` random
/// cross-block edges.  High global clustering, bounded max degree — the
/// Human-Jung (brain connectome) stand-in base.
[[nodiscard]] EdgeList community(NodeId n, NodeId block_size, double p_in,
                                 EdgeCount inter_edges, std::uint64_t seed);

/// Road-network-like graph: ER with average degree `avg_degree` (very sparse)
/// plus `planted_triangles` vertex-disjoint triangles on dedicated nodes.
/// Matches V1r's signature: degree ~2, max degree <= ~10, a handful of
/// triangles in hundreds of thousands of edges.
[[nodiscard]] EdgeList road_like(NodeId n, double avg_degree,
                                 std::uint32_t planted_triangles,
                                 std::uint64_t seed);

/// Adds `num_hubs` hub nodes, each connected to `hub_degree` distinct random
/// existing nodes.  Used to reproduce WikipediaEdit's 3M-degree outlier and
/// Human-Jung's rich-club nodes.  Hubs get fresh ids above the current node
/// bound so planted structure stays intact.
void add_hubs(EdgeList& list, std::uint32_t num_hubs, NodeId hub_degree,
              std::uint64_t seed);

/// Applies a uniform random permutation to all node ids.  Generators place
/// hubs at structurally determined positions (R-MAT: low ids; add_hubs: top
/// ids); real datasets do not, and the edge-iterator's cost profile depends
/// on where hubs sort — permuting makes stand-ins realistic.
void permute_ids(EdgeList& list, std::uint64_t seed);

/// Triadic-closure post-pass: for every node, closes each wedge (pair of its
/// neighbours) with probability q, up to `max_new_per_node` new edges per
/// node.  Raises the clustering coefficient of skewed generators toward
/// social-network levels without reshaping the degree tail much.
void close_triads(EdgeList& list, double q, std::uint32_t max_new_per_node,
                  std::uint64_t seed);

// ---- Deterministic small graphs (unit-test fixtures) ----------------------

/// Complete graph K_n: exactly binom(n,3) triangles.
[[nodiscard]] EdgeList complete(NodeId n);

/// Cycle C_n: 0 triangles for n > 3, 1 for n == 3.
[[nodiscard]] EdgeList cycle(NodeId n);

/// Path P_n: 0 triangles.
[[nodiscard]] EdgeList path(NodeId n);

/// Star S_n (one center, n-1 leaves): 0 triangles.
[[nodiscard]] EdgeList star(NodeId n);

/// Wheel W_n (cycle of n-1 + center): n-1 triangles for n >= 4.
[[nodiscard]] EdgeList wheel(NodeId n);

}  // namespace pimtc::graph::gen
