// Input preprocessing, mirroring the paper's methodology (Section 4.1):
// "The graphs were preprocessed by: removing duplicate edges and self-loops
//  ...; shuffling the resulting graph using the command line utility shuf."
//
// EdgeFilter is the one loop-and-duplicate filter: preprocess, streamed
// engine ingest (engine::ingest_stream) and the graph generators all make
// that decision through it.  Duplicate detection treats (u,v) and (v,u) as
// the same undirected edge and keeps the first copy, so filtering is
// order-preserving.  The shuffle is a seeded Fisher-Yates so experiments
// are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "common/types.hpp"
#include "graph/coo.hpp"

namespace pimtc::graph {

/// Drops self loops and repeated undirected edges from an edge stream.
/// Memory is O(distinct edges kept).
class EdgeFilter {
 public:
  /// `expected_edges` only sizes the table up front.
  explicit EdgeFilter(std::size_t expected_edges = 0) {
    seen_.reserve(expected_edges * 2);
  }

  /// False for a self loop and for a copy, in either orientation, of an
  /// edge kept before; otherwise remembers `e` and returns true.
  bool keep(Edge e) {
    if (e.is_loop()) {
      ++loops_;
      return false;
    }
    if (!seen_.insert(e.canonical()).second) {
      ++duplicates_;
      return false;
    }
    return true;
  }

  /// Whether `e`, in either orientation, was kept before.
  [[nodiscard]] bool contains(Edge e) const {
    return seen_.contains(e.canonical());
  }

  [[nodiscard]] std::size_t loops() const noexcept { return loops_; }
  [[nodiscard]] std::size_t duplicates() const noexcept { return duplicates_; }

 private:
  std::unordered_set<Edge> seen_;
  std::size_t loops_ = 0;
  std::size_t duplicates_ = 0;
};

struct PreprocessStats {
  std::size_t input_edges = 0;
  std::size_t removed_self_loops = 0;
  std::size_t removed_duplicates = 0;
  std::size_t output_edges = 0;
};

/// Removes self loops and duplicate undirected edges in place.  The surviving
/// copy of each edge keeps its original orientation (the PIM kernel
/// canonicalizes on insert; the COO stream stays "as read").
PreprocessStats remove_loops_and_duplicates(EdgeList& list);

/// Seeded uniform shuffle of the edge order (stand-in for `shuf`).
void shuffle_edges(EdgeList& list, std::uint64_t seed);

/// Full pipeline: dedup + de-loop + shuffle.
PreprocessStats preprocess(EdgeList& list, std::uint64_t seed);

}  // namespace pimtc::graph
