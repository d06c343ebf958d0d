// String-keyed backend registry / factory for TriangleCountEngine.
//
// Built-in backends:
//   "pim"              simulated UPMEM pipeline (the paper's system)
//   "cpu"              CSR-converting CPU baseline; streaming recounts
//                      rebuild from the accumulated COO (the Figure 7
//                      comparator)
//   "cpu-incremental"  exact CPU engine with an adjacency structure updated
//                      in place; recount cost follows the new edges only
//
// Additional backends (sharded PIM, async multi-rank, GPU models, ...)
// register themselves with register_backend() and become reachable from the
// CLI's --backend flag and every bench without further driver changes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"

namespace pimtc::engine {

using EngineFactory =
    std::function<std::unique_ptr<TriangleCountEngine>(const EngineConfig&)>;

/// Constructs the backend registered under `name`, which validates
/// `config`.  Throws std::invalid_argument for an unknown name (the message
/// lists the registered backends) or an invalid config.
[[nodiscard]] std::unique_ptr<TriangleCountEngine> make_engine(
    std::string_view name, const EngineConfig& config = {});

/// Registers a backend factory.  Throws std::invalid_argument if `name` is
/// already taken (the built-ins are pre-registered).
void register_backend(std::string name, EngineFactory factory);

/// Sorted names of every registered backend.
[[nodiscard]] std::vector<std::string> registered_backends();

}  // namespace pimtc::engine
