#include "engine/engine.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "pim/fault.hpp"
#include "tc/layout.hpp"

namespace pimtc::engine {

CountReport TriangleCountEngine::count(const graph::EdgeList& graph) {
  add_edges(graph.edges());
  return recount();
}

void TriangleCountEngine::apply(std::span<const EdgeUpdate> updates) {
  std::vector<Edge> inserts;
  inserts.reserve(updates.size());
  for (const EdgeUpdate& u : updates) {
    if (!u.is_insert) {
      throw std::invalid_argument(
          std::string(name()) +
          " backend does not support edge deletions under this "
          "configuration");
    }
    inserts.push_back(u.edge);
  }
  add_edges(inserts);
}

void TriangleCountEngine::remove_edges(std::span<const Edge> batch) {
  std::vector<EdgeUpdate> updates;
  updates.reserve(batch.size());
  for (const Edge e : batch) updates.push_back(delete_of(e));
  apply(updates);
}

void EngineConfig::validate() const {
  // 0 = auto selection; the resolved C must still satisfy the >= 2 rule.
  const std::uint32_t colors =
      num_colors == 0 ? color::PartitionPlan::auto_colors(pim.max_dpus)
                      : num_colors;
  if (colors < 2) {
    throw std::invalid_argument(
        "EngineConfig: num_colors must be >= 2 (C == 1 degenerates to one "
        "monochromatic core)");
  }
  const std::uint64_t dpus = num_triplets(colors);
  if (dpus > pim.max_dpus) {
    throw std::invalid_argument(
        "EngineConfig: " + std::to_string(colors) + " colors need " +
        std::to_string(dpus) + " PIM cores but the system has " +
        std::to_string(pim.max_dpus));
  }
  if (!(uniform_p > 0.0 && uniform_p <= 1.0)) {  // also rejects NaN
    throw std::invalid_argument("EngineConfig: uniform_p must be in (0, 1]");
  }
  if (misra_gries_enabled && (mg_capacity == 0 || mg_top == 0)) {
    throw std::invalid_argument(
        "EngineConfig: Misra-Gries needs mg_capacity >= 1 and mg_top >= 1");
  }
  if (misra_gries_enabled && mg_top > mg_capacity) {
    throw std::invalid_argument(
        "EngineConfig: mg_top (" + std::to_string(mg_top) +
        ") exceeds mg_capacity (" + std::to_string(mg_capacity) +
        "): cannot remap more nodes than Misra-Gries tracks");
  }
  if (degree_ordered_remap && !misra_gries_enabled) {
    throw std::invalid_argument(
        "EngineConfig: degree_ordered_remap requires misra_gries_enabled "
        "(the ordering comes from the Misra-Gries degree estimates)");
  }
  if (pim.dpus_per_rank == 0) {
    throw std::invalid_argument(
        "EngineConfig: pim.dpus_per_rank must be >= 1");
  }
  if (pim.dpus_per_rank > pim.max_dpus) {
    throw std::invalid_argument(
        "EngineConfig: pim.dpus_per_rank (" +
        std::to_string(pim.dpus_per_rank) + ") exceeds pim.max_dpus (" +
        std::to_string(pim.max_dpus) + ")");
  }
  const std::uint64_t max_cap = tc::MramLayout::max_capacity(pim.mram_bytes);
  if (max_cap == 0) {
    throw std::invalid_argument(
        "EngineConfig: MRAM bank too small to hold any sample");
  }
  // Reject malformed fault specs up front, with parse's own diagnostics
  // (std::invalid_argument naming the offending key).
  if (!fault_spec.empty()) (void)pim::FaultSpec::parse(fault_spec);
}

}  // namespace pimtc::engine
