#include "engine/registry.hpp"

#include <stdexcept>

#include "cpufast/cpu_fast_engine.hpp"
#include "engine/cpu_engine.hpp"
#include "tc/host.hpp"

namespace pimtc::engine {

namespace {

template <typename Engine>
std::unique_ptr<TriangleCountEngine> make(const EngineConfig& cfg) {
  return std::make_unique<Engine>(cfg);
}

struct Backend {
  std::string_view name;
  std::unique_ptr<TriangleCountEngine> (*make)(const EngineConfig&);
};

// Sorted by name: registered_backends() and the unknown-name message list
// the table in order.
constexpr Backend kBackends[] = {
    {"cpu", make<CpuEngine>},
    {"cpu-fast", make<cpufast::CpuFastEngine>},
    {"cpu-incremental", make<IncrementalCpuEngine>},
    {"pim", make<tc::PimTriangleCounter>},
};

}  // namespace

std::unique_ptr<TriangleCountEngine> make_engine(std::string_view name,
                                                 const EngineConfig& config) {
  for (const Backend& b : kBackends) {
    if (b.name == name) return b.make(config);
  }
  std::string known;
  for (const Backend& b : kBackends) {
    if (!known.empty()) known += ", ";
    known += b.name;
  }
  throw std::invalid_argument("unknown backend '" + std::string(name) +
                              "' (registered: " + known + ")");
}

std::vector<std::string> registered_backends() {
  std::vector<std::string> names;
  for (const Backend& b : kBackends) names.emplace_back(b.name);
  return names;
}

}  // namespace pimtc::engine
