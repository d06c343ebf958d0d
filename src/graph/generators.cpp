#include "graph/generators.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/prng.hpp"
#include "common/types.hpp"
#include "graph/preprocess.hpp"

namespace pimtc::graph::gen {

EdgeList rmat(std::uint32_t scale, EdgeCount target_edges,
              const RmatParams& params, std::uint64_t seed) {
  if (scale == 0 || scale > 31) {
    throw std::invalid_argument("rmat: scale must be in [1, 31]");
  }
  const NodeId n = NodeId{1} << scale;
  const EdgeCount max_edges =
      static_cast<EdgeCount>(n) * (n - 1) / 2;
  if (target_edges > max_edges / 2) {
    throw std::invalid_argument("rmat: target_edges too dense for scale");
  }

  const double ab = params.a + params.b;
  const double abc = ab + params.c;

  Xoshiro256ss rng(seed);
  EdgeFilter seen(target_edges);
  std::vector<Edge> edges;
  edges.reserve(target_edges);

  // Re-draw duplicates until target_edges distinct edges were produced.  The
  // expected number of redraws is modest at the densities we use (<= 2x).
  while (edges.size() < target_edges) {
    NodeId u = 0;
    NodeId v = 0;
    for (std::uint32_t bit = 0; bit < scale; ++bit) {
      const double r = rng.next_double();
      const std::uint32_t ubit = (r >= ab) ? 1u : 0u;
      const std::uint32_t vbit = (r >= params.a && r < ab) || (r >= abc) ? 1u : 0u;
      u = (u << 1) | ubit;
      v = (v << 1) | vbit;
    }
    if (seen.keep(Edge{u, v})) edges.push_back(Edge{u, v});
  }
  return EdgeList(std::move(edges));
}

EdgeList erdos_renyi(NodeId n, EdgeCount m, std::uint64_t seed) {
  if (n < 2) throw std::invalid_argument("erdos_renyi: need n >= 2");
  const EdgeCount max_edges = static_cast<EdgeCount>(n) * (n - 1) / 2;
  if (m > max_edges) {
    throw std::invalid_argument("erdos_renyi: m exceeds binom(n,2)");
  }
  Xoshiro256ss rng(seed);
  EdgeFilter seen(m);
  std::vector<Edge> edges;
  edges.reserve(m);
  while (edges.size() < m) {
    const NodeId u = static_cast<NodeId>(rng.next_below(n));
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (seen.keep(Edge{u, v})) edges.push_back(Edge{u, v});
  }
  return EdgeList(std::move(edges));
}

EdgeList barabasi_albert(NodeId n, std::uint32_t m_per_node,
                         std::uint64_t seed) {
  if (m_per_node == 0) throw std::invalid_argument("ba: m_per_node >= 1");
  if (n <= m_per_node) throw std::invalid_argument("ba: need n > m_per_node");

  Xoshiro256ss rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * m_per_node);
  // Batagelj-Brandes: sampling a uniform element of `endpoints` is sampling
  // proportional to degree.
  std::vector<NodeId> endpoints;
  endpoints.reserve(edges.capacity() * 2);

  // Seed clique over the first m_per_node + 1 nodes.
  for (NodeId u = 0; u <= m_per_node; ++u) {
    for (NodeId v = u + 1; v <= m_per_node; ++v) {
      edges.push_back(Edge{u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }

  std::vector<NodeId> picks;
  for (NodeId u = m_per_node + 1; u < n; ++u) {
    picks.clear();
    // Draw m distinct targets by rejection; the endpoint list is large so
    // collisions are rare.
    while (picks.size() < m_per_node) {
      const NodeId cand = endpoints[rng.next_below(endpoints.size())];
      if (std::find(picks.begin(), picks.end(), cand) == picks.end()) {
        picks.push_back(cand);
      }
    }
    for (const NodeId v : picks) {
      edges.push_back(Edge{u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  return EdgeList(std::move(edges));
}

EdgeList community(NodeId n, NodeId block_size, double p_in,
                   EdgeCount inter_edges, std::uint64_t seed) {
  if (block_size < 2 || block_size > n) {
    throw std::invalid_argument("community: bad block_size");
  }
  Xoshiro256ss rng(seed);
  std::vector<Edge> edges;
  EdgeFilter seen(static_cast<std::size_t>(n) * block_size / 4);

  // Dense intra-block pairs.
  for (NodeId base = 0; base < n; base += block_size) {
    const NodeId end = std::min<NodeId>(base + block_size, n);
    for (NodeId u = base; u < end; ++u) {
      for (NodeId v = u + 1; v < end; ++v) {
        if (rng.next_bernoulli(p_in) && seen.keep(Edge{u, v})) {
          edges.push_back(Edge{u, v});
        }
      }
    }
  }

  // Sparse inter-block edges.
  EdgeCount placed = 0;
  while (placed < inter_edges) {
    const NodeId u = static_cast<NodeId>(rng.next_below(n));
    const NodeId v = static_cast<NodeId>(rng.next_below(n));
    if (u / block_size == v / block_size) continue;
    if (seen.keep(Edge{u, v})) {
      edges.push_back(Edge{u, v});
      ++placed;
    }
  }
  return EdgeList(std::move(edges));
}

EdgeList road_like(NodeId n, double avg_degree, std::uint32_t planted_triangles,
                   std::uint64_t seed) {
  if (avg_degree <= 0.0) throw std::invalid_argument("road_like: avg_degree > 0");
  // Reserve 3 dedicated nodes per planted triangle at the top of the id
  // space so the ER part cannot merge them into larger cliques.
  const NodeId planted_nodes = planted_triangles * 3;
  if (planted_nodes >= n) {
    throw std::invalid_argument("road_like: too many planted triangles");
  }
  const NodeId er_nodes = n - planted_nodes;
  const auto er_edges =
      static_cast<EdgeCount>(avg_degree * static_cast<double>(er_nodes) / 2.0);

  EdgeList list = erdos_renyi(er_nodes, er_edges, seed);
  for (std::uint32_t t = 0; t < planted_triangles; ++t) {
    const NodeId a = er_nodes + 3 * t;
    list.push_back(Edge{a, static_cast<NodeId>(a + 1)});
    list.push_back(Edge{static_cast<NodeId>(a + 1), static_cast<NodeId>(a + 2)});
    list.push_back(Edge{a, static_cast<NodeId>(a + 2)});
  }
  return list;
}

void add_hubs(EdgeList& list, std::uint32_t num_hubs, NodeId hub_degree,
              std::uint64_t seed) {
  const NodeId base = list.num_nodes();
  if (hub_degree > base) {
    throw std::invalid_argument("add_hubs: hub_degree exceeds node count");
  }
  Xoshiro256ss rng(seed);
  for (std::uint32_t h = 0; h < num_hubs; ++h) {
    const NodeId hub = base + h;
    std::unordered_set<NodeId> targets;
    targets.reserve(hub_degree * 2);
    while (targets.size() < hub_degree) {
      targets.insert(static_cast<NodeId>(rng.next_below(base)));
    }
    for (const NodeId v : targets) list.push_back(Edge{hub, v});
  }
}

void permute_ids(EdgeList& list, std::uint64_t seed) {
  const NodeId n = list.num_nodes();
  std::vector<NodeId> perm(n);
  for (NodeId u = 0; u < n; ++u) perm[u] = u;
  Xoshiro256ss rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  for (Edge& e : list.mutable_edges()) {
    e.u = perm[e.u];
    e.v = perm[e.v];
  }
}

void close_triads(EdgeList& list, double q, std::uint32_t max_new_per_node,
                  std::uint64_t seed) {
  if (q <= 0.0 || max_new_per_node == 0) return;
  Xoshiro256ss rng(seed);

  // Build symmetric adjacency once; new edges do not cascade (single pass).
  const NodeId n = list.num_nodes();
  std::vector<std::vector<NodeId>> adj(n);
  for (const Edge& e : list.edges()) {
    if (e.is_loop()) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }

  EdgeFilter seen(list.num_edges());
  for (const Edge& e : list.edges()) seen.keep(e);

  for (NodeId u = 0; u < n; ++u) {
    const auto& nb = adj[u];
    if (nb.size() < 2) continue;
    std::uint32_t added = 0;
    // Sample wedges instead of enumerating all O(deg^2) pairs: a few tries
    // per node keeps the pass linear even at hub nodes.
    const std::size_t tries = std::min<std::size_t>(nb.size(), 16);
    for (std::size_t i = 0; i < tries && added < max_new_per_node; ++i) {
      if (!rng.next_bernoulli(q)) continue;
      const NodeId x = nb[rng.next_below(nb.size())];
      const NodeId y = nb[rng.next_below(nb.size())];
      if (x == y) continue;
      if (seen.keep(Edge{x, y})) {
        list.push_back(Edge{x, y});
        ++added;
      }
    }
  }
}

EdgeList complete(NodeId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back(Edge{u, v});
  }
  return EdgeList(std::move(edges));
}

EdgeList cycle(NodeId n) {
  std::vector<Edge> edges;
  if (n < 3) return EdgeList(std::move(edges));
  edges.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    edges.push_back(Edge{u, static_cast<NodeId>((u + 1) % n)});
  }
  return EdgeList(std::move(edges));
}

EdgeList path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) {
    edges.push_back(Edge{u, static_cast<NodeId>(u + 1)});
  }
  return EdgeList(std::move(edges));
}

EdgeList star(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back(Edge{0, v});
  return EdgeList(std::move(edges));
}

EdgeList wheel(NodeId n) {
  if (n < 4) return complete(n);
  std::vector<Edge> edges;
  const NodeId rim = n - 1;  // nodes 1..n-1 form the cycle, node 0 the hub
  for (NodeId i = 0; i < rim; ++i) {
    const NodeId u = 1 + i;
    const NodeId v = 1 + (i + 1) % rim;
    edges.push_back(Edge{u, v});
    edges.push_back(Edge{0, u});
  }
  return EdgeList(std::move(edges));
}

}  // namespace pimtc::graph::gen
