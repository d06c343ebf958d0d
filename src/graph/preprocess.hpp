// Input preprocessing, mirroring the paper's methodology (Section 4.1):
// "The graphs were preprocessed by: removing duplicate edges and self-loops
//  ...; shuffling the resulting graph using the command line utility shuf."
//
// EdgeFilter is the one loop-and-duplicate filter: preprocess, streamed
// engine ingest (engine::ingest_stream) and the graph generators all make
// that decision through it.  Duplicate detection treats (u,v) and (v,u) as
// the same undirected edge and keeps the first copy, so filtering is
// order-preserving.  The seen set is a flat open-addressing table of
// canonical 64-bit edge keys, one probe sequence per edge and no per-edge
// allocation: it is the single structure on the ingest path whose memory
// grows with the number of distinct edges.  The shuffle is a seeded
// Fisher-Yates so experiments are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "graph/coo.hpp"

namespace pimtc::graph {

/// Drops self loops and repeated undirected edges from an edge stream.
/// Memory is O(distinct edges kept): 8 bytes per slot, at most half the
/// slots full.
class EdgeFilter {
 public:
  /// `expected_edges` only sizes the table up front; it doubles whenever it
  /// reaches half load, so a default-constructed filter grows from empty.
  explicit EdgeFilter(std::size_t expected_edges = 0) {
    std::size_t slots = kMinSlots;
    while (slots < 2 * expected_edges) slots *= 2;
    slots_.assign(slots, kEmpty);
  }

  /// False for a self loop and for a copy, in either orientation, of an
  /// edge kept before; otherwise remembers `e` and returns true.
  bool keep(Edge e) {
    if (e.is_loop()) {
      ++loops_;
      return false;
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint64_t key = edge_key(e.canonical());
    std::uint64_t& slot = slots_[probe(key)];
    if (slot == key) {
      ++duplicates_;
      return false;
    }
    slot = key;
    ++size_;
    return true;
  }

  /// Whether `e`, in either orientation, was kept before.
  [[nodiscard]] bool contains(Edge e) const {
    if (e.is_loop()) return false;
    const std::uint64_t key = edge_key(e.canonical());
    return slots_[probe(key)] == key;
  }

  [[nodiscard]] std::size_t loops() const noexcept { return loops_; }
  [[nodiscard]] std::size_t duplicates() const noexcept { return duplicates_; }

 private:
  /// Key 0 is the loop (0,0), which is never stored, so it marks a free
  /// slot.
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kMinSlots = 16;

  /// Index of `key`'s slot, or of the free slot where it would go: linear
  /// probing from mix64(key).
  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
    while (slots_[i] != kEmpty && slots_[i] != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> old(slots_.size() * 2, kEmpty);
    old.swap(slots_);  // slots_ is now the doubled, empty table
    for (const std::uint64_t key : old) {
      if (key != kEmpty) slots_[probe(key)] = key;
    }
  }

  std::vector<std::uint64_t> slots_;  ///< size is a power of two
  std::size_t size_ = 0;
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
