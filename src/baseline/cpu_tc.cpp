#include "baseline/cpu_tc.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/timer.hpp"

namespace pimtc::baseline {

CpuTriangleCounter::CpuTriangleCounter(ThreadPool* pool)
    : pool_(pool ? pool : &ThreadPool::global()) {}

CpuCountResult CpuTriangleCounter::count(const graph::EdgeList& coo) const {
  CpuCountResult result;
  result.profile.edges = coo.num_edges();
  result.profile.nodes = coo.num_nodes();

  // ---- stage 1: COO -> degree-ordered oriented CSR -------------------------
  WallTimer convert_timer;
  const NodeId n = coo.num_nodes();

  // Degree pass over the raw COO.
  std::vector<std::uint32_t> degree(n, 0);
  for (const Edge& e : coo) {
    if (e.is_loop()) continue;
    ++degree[e.u];
    ++degree[e.v];
  }

  // Orientation: from the endpoint with (degree, id) lexicographically
  // smaller toward the larger — the classic total order that makes the
  // forward algorithm run in O(m^{3/2}) on any graph.
  const auto precedes = [&degree](NodeId a, NodeId b) {
    return degree[a] != degree[b] ? degree[a] < degree[b] : a < b;
  };

  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : coo) {
    if (e.is_loop()) continue;
    ++offsets[(precedes(e.u, e.v) ? e.u : e.v) + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> targets(offsets.back());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : coo) {
    if (e.is_loop()) continue;
    const NodeId src = precedes(e.u, e.v) ? e.u : e.v;
    const NodeId dst = src == e.u ? e.v : e.u;
    targets[cursor[src]++] = dst;
  }

  // Sort adjacency lists (parallel over vertices).
  pool_->parallel_for(n, [&](std::size_t u) {
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[u]),
              targets.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]),
              [&precedes](NodeId a, NodeId b) { return precedes(a, b); });
  });
  result.measured_convert_s = convert_timer.elapsed_s();

  // Conversion work: degree pass + count pass + scatter pass (3 touches per
  // edge) plus the comparison volume of the adjacency sorts.
  std::uint64_t sort_ops = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto d = static_cast<std::uint64_t>(offsets[u + 1] - offsets[u]);
    if (d > 1) {
      sort_ops += d * (64 - static_cast<std::uint64_t>(
                                std::countl_zero(d - 1)));
    }
  }
  result.profile.conversion_ops = 3 * result.profile.edges + sort_ops;

  // ---- stage 2: forward counting -------------------------------------------
  WallTimer count_timer;
  const std::size_t num_workers = pool_->size();
  std::vector<TriangleCount> partial(num_workers, 0);
  std::vector<std::uint64_t> steps(num_workers, 0);

  pool_->parallel_chunks(n, [&](std::size_t w, std::size_t lo, std::size_t hi) {
    TriangleCount local = 0;
    std::uint64_t local_steps = 0;
    for (std::size_t u = lo; u < hi; ++u) {
      const std::size_t ub = offsets[u];
      const std::size_t ue = offsets[u + 1];
      for (std::size_t i = ub; i < ue; ++i) {
        const NodeId v = targets[i];
        // Merge N+(u) and N+(v) under the orientation order.
        std::size_t a = ub;
        std::size_t b = offsets[v];
        const std::size_t ae = ue;
        const std::size_t be = offsets[v + 1];
        while (a < ae && b < be) {
          ++local_steps;
          const NodeId x = targets[a];
          const NodeId y = targets[b];
          if (x == y) {
            ++local;
            ++a;
            ++b;
          } else if (precedes(x, y)) {
            ++a;
          } else {
            ++b;
          }
        }
      }
    }
    partial[w] += local;
    steps[w] += local_steps;
  });

  for (std::size_t w = 0; w < num_workers; ++w) {
    result.triangles += partial[w];
    result.profile.intersection_steps += steps[w];
  }
  result.measured_count_s = count_timer.elapsed_s();
  result.profile.triangles = result.triangles;
  return result;
}

}  // namespace pimtc::baseline
