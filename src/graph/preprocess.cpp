#include "graph/preprocess.hpp"

#include <algorithm>
#include <vector>

#include "common/prng.hpp"
#include "common/types.hpp"

namespace pimtc::graph {

PreprocessStats remove_loops_and_duplicates(EdgeList& list) {
  EdgeFilter filter(list.num_edges());
  std::vector<Edge>& edges = list.mutable_edges();
  std::size_t write = 0;
  for (const Edge& e : edges) {
    if (filter.keep(e)) edges[write++] = e;
  }
  PreprocessStats stats;
  stats.input_edges = edges.size();
  stats.removed_self_loops = filter.loops();
  stats.removed_duplicates = filter.duplicates();
  stats.output_edges = write;
  edges.resize(write);
  list.rescan_num_nodes();
  return stats;
}

void shuffle_edges(EdgeList& list, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Edge>& edges = list.mutable_edges();
  for (std::size_t i = edges.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(edges[i - 1], edges[j]);
  }
}

PreprocessStats preprocess(EdgeList& list, std::uint64_t seed) {
  PreprocessStats stats = remove_loops_and_duplicates(list);
  shuffle_edges(list, seed);
  return stats;
}

}  // namespace pimtc::graph
