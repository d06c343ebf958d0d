// EdgePartitioner: colors an edge's endpoints and yields the PIM cores the
// edge must be replicated to.  Stateless per edge, cheap to copy into every
// host thread of the batch builder.
#pragma once

#include <span>

#include "common/hash.hpp"
#include "coloring/triplets.hpp"

namespace pimtc::color {

class EdgePartitioner {
 public:
  EdgePartitioner(const ColorHash& hash, const TripletTable& table) noexcept
      : hash_(hash), table_(&table) {}

  /// The `num_colors` PIM cores that receive this edge.
  [[nodiscard]] std::span<const std::uint32_t> targets(Edge e) const noexcept {
    return table_->targets(hash_(e.u), hash_(e.v));
  }

  [[nodiscard]] const TripletTable& table() const noexcept { return *table_; }
  [[nodiscard]] const ColorHash& hash() const noexcept { return hash_; }

 private:
  ColorHash hash_;
  const TripletTable* table_;
};

}  // namespace pimtc::color
