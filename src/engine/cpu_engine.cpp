#include "engine/cpu_engine.hpp"

#include <algorithm>

#include "common/timer.hpp"

namespace pimtc::engine {

// ---- CpuEngine --------------------------------------------------------------

CpuEngine::CpuEngine(const EngineConfig& config)
    : TriangleCountEngine(config),
      pool_(config.host_threads == 0 ? nullptr
                                     : std::make_unique<ThreadPool>(
                                           config.host_threads)),
      counter_(pool_.get()) {}

void CpuEngine::add_edges(std::span<const Edge> batch) {
  accumulated_.append(batch);
  if (!batch.empty()) dirty_ = true;
}

CountReport CpuEngine::recount() {
  if (!dirty_ && has_report_) return cached_;
  const baseline::CpuCountResult c = counter_.count(accumulated_);
  times_.ingest_s += c.measured_convert_s;
  times_.count_s += c.measured_count_s;

  CountReport report;
  report.backend = name();
  report.estimate = static_cast<double>(c.triangles);
  report.exact = true;
  report.raw_total = c.triangles;
  report.times = times_;
  report.simulated_times = false;
  report.work.edges = c.profile.edges;
  report.work.nodes = c.profile.nodes;
  report.work.conversion_ops = c.profile.conversion_ops;
  report.work.intersection_steps = c.profile.intersection_steps;
  report.work.triangles = c.profile.triangles;
  report.num_units = static_cast<std::uint32_t>(
      pool_ ? pool_->size() : ThreadPool::global().size());
  report.host_threads = report.num_units;
  report.edges_streamed = accumulated_.num_edges();
  report.edges_kept = accumulated_.num_edges();
  cached_ = report;
  has_report_ = true;
  dirty_ = false;
  return report;
}

void CpuEngine::reset_timers() {
  times_ = {};
  // Keep the memoized report consistent with the reset: a live recount
  // right after reset_timers() would also report zeroed accumulated times.
  if (has_report_) cached_.times = {};
}

// ---- IncrementalCpuEngine ---------------------------------------------------

IncrementalCpuEngine::IncrementalCpuEngine(const EngineConfig& config)
    : TriangleCountEngine(config) {}

void IncrementalCpuEngine::insert_one(Edge raw) {
  ++edges_streamed_;
  if (raw.is_loop()) return;
  const Edge e = raw.canonical();
  if (!edge_set_.insert(edge_key(e)).second) return;  // duplicate

  if (e.v >= adj_.size()) adj_.resize(e.v + 1);

  // Close triangles against everything inserted before this edge: every
  // triangle is counted exactly once, when its last edge arrives.
  const std::vector<NodeId>& au = adj_[e.u];
  const std::vector<NodeId>& av = adj_[e.v];
  const bool scan_u = au.size() <= av.size();
  const std::vector<NodeId>& scan = scan_u ? au : av;
  const NodeId other = scan_u ? e.v : e.u;
  for (const NodeId w : scan) {
    ++probes_;
    if (edge_set_.contains(edge_key(Edge{w, other}.canonical()))) ++total_;
  }

  adj_[e.u].push_back(e.v);
  adj_[e.v].push_back(e.u);
  ++edges_stored_;
}

void IncrementalCpuEngine::delete_one(Edge raw) {
  ++edges_streamed_;
  if (raw.is_loop()) return;
  const Edge e = raw.canonical();
  const auto it = edge_set_.find(edge_key(e));
  if (it == edge_set_.end()) {
    ++delete_misses_;  // never inserted (or already deleted): detected no-op
    return;
  }

  // Subtract the triangles this edge currently closes — the exact inverse
  // of the insertion rule, so insert-then-delete of any batch restores the
  // running total exactly.
  const std::vector<NodeId>& au = adj_[e.u];
  const std::vector<NodeId>& av = adj_[e.v];
  const bool scan_u = au.size() <= av.size();
  const std::vector<NodeId>& scan = scan_u ? au : av;
  const NodeId other = scan_u ? e.v : e.u;
  for (const NodeId w : scan) {
    ++probes_;
    if (w == other) continue;  // the edge itself, not a common neighbor
    if (edge_set_.contains(edge_key(Edge{w, other}.canonical()))) --total_;
  }

  edge_set_.erase(it);
  const auto unlink = [](std::vector<NodeId>& list, NodeId node) {
    for (NodeId& x : list) {
      if (x == node) {
        x = list.back();
        list.pop_back();
        return;
      }
    }
  };
  unlink(adj_[e.u], e.v);
  unlink(adj_[e.v], e.u);
  --edges_stored_;
  ++edges_deleted_;
}

void IncrementalCpuEngine::add_edges(std::span<const Edge> batch) {
  WallTimer timer;
  for (const Edge& raw : batch) insert_one(raw);
  times_.count_s += timer.elapsed_s();
}

void IncrementalCpuEngine::apply(std::span<const EdgeUpdate> updates) {
  WallTimer timer;
  for (const EdgeUpdate& u : updates) {
    if (u.is_insert) {
      insert_one(u.edge);
    } else {
      delete_one(u.edge);
    }
  }
  times_.count_s += timer.elapsed_s();
}

CountReport IncrementalCpuEngine::recount() {
  CountReport report;
  report.backend = name();
  report.estimate = static_cast<double>(total_);
  report.exact = true;
  report.raw_total = total_;
  report.times = times_;
  report.simulated_times = false;
  report.work.edges = edges_stored_;
  report.work.nodes = adj_.size();
  report.work.conversion_ops = 2 * edges_stored_;  // adjacency appends
  report.work.intersection_steps = probes_;
  report.work.triangles = total_;
  report.num_units = 1;
  report.host_threads = 1;  // the adjacency engine is inherently serial
  report.edges_streamed = edges_streamed_;
  report.edges_kept = edges_stored_;
  report.edges_deleted = edges_deleted_;
  report.sample_evictions = edges_deleted_;  // exact engine: every hit evicts
  report.delete_misses = delete_misses_;
  report.used_incremental = true;
  return report;
}

}  // namespace pimtc::engine
