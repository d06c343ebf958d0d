// String-keyed backend factory for TriangleCountEngine.
//
// The backends, a fixed table:
//   "pim"              simulated UPMEM pipeline (the paper's system)
//   "cpu"              CSR-converting CPU baseline; streaming recounts
//                      rebuild from the accumulated COO (the Figure 7
//                      comparator)
//   "cpu-incremental"  exact CPU engine with an adjacency structure updated
//                      in place; recount cost follows the new edges only
//   "cpu-fast"         exact DODG oracle (cpufast/)
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"

namespace pimtc::engine {

/// Constructs the backend named `name`, which validates `config`.  Throws
/// std::invalid_argument for an unknown name (the message lists the
/// registered backends) or an invalid config.
[[nodiscard]] std::unique_ptr<TriangleCountEngine> make_engine(
    std::string_view name, const EngineConfig& config = {});

/// Sorted names of every registered backend.
[[nodiscard]] std::vector<std::string> registered_backends();

}  // namespace pimtc::engine
