#include "cpufast/cpu_fast_engine.hpp"

#include <vector>

#include "common/timer.hpp"
#include "cpufast/count.hpp"
#include "cpufast/dodg.hpp"
#include "tc/intersect.hpp"

namespace pimtc::cpufast {

CpuFastEngine::CpuFastEngine(const engine::EngineConfig& config)
    : TriangleCountEngine(config),
      pool_(config.host_threads == 0
                ? nullptr
                : std::make_unique<ThreadPool>(config.host_threads)) {}

void CpuFastEngine::add_edges(std::span<const Edge> batch) {
  edges_streamed_ += batch.size();
  if (tracking_) {
    for (const Edge& raw : batch) {
      if (raw.is_loop()) continue;
      live_.insert(edge_key(raw.canonical()));  // duplicate insert: no-op
    }
  } else {
    accumulated_.append(batch);
  }
  if (!batch.empty()) dirty_ = true;
}

void CpuFastEngine::materialize_edge_set() {
  WallTimer timer;
  live_.reserve(accumulated_.num_edges());
  for (const Edge& raw : accumulated_.edges()) {
    if (raw.is_loop()) continue;
    live_.insert(edge_key(raw.canonical()));
  }
  tracking_ = true;
  times_.ingest_s += timer.elapsed_s();
}

void CpuFastEngine::apply(std::span<const EdgeUpdate> updates) {
  for (const EdgeUpdate& u : updates) {
    if (u.is_insert) {
      add_edges({&u.edge, 1});
      continue;
    }
    ++edges_streamed_;
    if (u.edge.is_loop()) continue;
    if (!tracking_) materialize_edge_set();
    if (live_.erase(edge_key(u.edge.canonical())) != 0) {
      ++edges_deleted_;
    } else {
      ++delete_misses_;  // never inserted (or already deleted): counted no-op
    }
  }
  if (!updates.empty()) dirty_ = true;
}

engine::CountReport CpuFastEngine::recount() {
  if (!dirty_ && has_report_) return cached_;

  // In tracking mode the set is authoritative; flatten it for the build.
  // Iteration order is irrelevant: degrees, ranks and the sorted/deduped
  // rows are functions of the edge *set*, so the DODG — and every counter
  // derived from it — is identical whatever order the edges arrive in.
  std::vector<Edge> scratch;
  std::span<const Edge> edges;
  if (tracking_) {
    scratch.reserve(live_.size());
    for (const std::uint64_t key : live_) scratch.push_back(edge_from_key(key));
    edges = scratch;
  } else {
    edges = accumulated_.edges();
  }

  BuildTimes build_times;
  const Dodg g = Dodg::build(edges, pool(), &build_times);
  const CountStats cs = count_triangles(g, pool());
  times_.ingest_s += build_times.total_s();
  times_.count_s += cs.count_s;

  engine::CountReport report;
  report.backend = name();
  report.estimate = static_cast<double>(cs.triangles);
  report.exact = true;
  report.raw_total = cs.triangles;
  report.times = times_;
  report.simulated_times = false;
  report.work.edges = g.num_arcs();
  report.work.nodes = g.num_nodes();
  // Degree + orientation-count + scatter passes over the raw COO, plus the
  // row sort/compaction over the oriented arcs.
  report.work.conversion_ops = 3 * edges.size() + 2 * g.num_arcs();
  report.work.intersection_steps = cs.bitmap_probes;
  report.work.triangles = cs.triangles;
  report.num_units = static_cast<std::uint32_t>(pool().size());
  report.host_threads = report.num_units;
  report.edges_streamed = edges_streamed_;
  report.edges_kept = g.num_arcs();  // live deduped undirected edges
  report.edges_deleted = edges_deleted_;
  report.sample_evictions = edges_deleted_;  // exact engine: every hit evicts
  report.delete_misses = delete_misses_;
  // One strategy, the bitmap probe; the configured policy name is echoed.
  report.kernel.intersect = tc::to_string(config_.intersect);
  report.kernel.bitmap_isects = cs.bitmap_isects;
  report.kernel.bitmap_probes = cs.bitmap_probes;
  report.kernel.chunks_claimed = cs.chunks_claimed;
  report.kernel.instructions = cs.bitmap_probes;
  report.kernel.count_instructions = cs.bitmap_probes;

  cached_ = report;
  has_report_ = true;
  dirty_ = false;
  return report;
}

void CpuFastEngine::reset_timers() {
  times_ = {};
  // The memoized report must keep describing the state as of its recount —
  // with zeroed accumulated times, like any post-reset report would.
  if (has_report_) cached_.times = {};
}

}  // namespace pimtc::cpufast
