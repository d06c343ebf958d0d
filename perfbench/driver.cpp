// Benchmark driver: runs one workload through the library's public API.
//
//   perfbench_driver gen --workload=W --seed=N --dir=D
//       writes W's input graphs (text COO) into D; run.py calls this in a
//       process of its own, so generation shows in no timing or memory figure
//   perfbench_driver run --workload=W --seed=N --seconds=S --trace=0|1 --dir=D
//       runs W on those inputs and prints one JSON object of raw
//       measurements on stdout; run.py turns them into metrics
//
// Every call into a library layer goes through timed(), which records the
// call's wall time under its name ("tc.recount", ...) and, while tracing is
// on, a span: name, layer, start, end, parent span and the id of the unit of
// work (count, batch) it belongs to.  Traced runs switch tracing on for every
// other unit of work, so the gap between the traced and untraced units is
// the tracing overhead.  Exactness is checked against an exact oracle in
// every workload; each mismatch, rejected batch, backwards epoch or
// exception is one failed operation.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/prng.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/preprocess.hpp"
#include "serve/session_manager.hpp"

namespace {

using namespace pimtc;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ---- workload constants -----------------------------------------------------

constexpr std::uint32_t kHostThreads = 4;  // the whole machine budget (nproc)

// A run does a fixed amount of work, sized from --seconds by the wall time
// one unit of it takes on a 4-core x86 host, so every commit measured with
// the same --seconds does the same work.

// static-*: the paper's Fig. 6 setting, a ~1.15M-edge BA+hubs graph.
constexpr EdgeCount kStaticGenEdges = 1'000'000;
constexpr double kExactCountS = 3.3;
constexpr double kSampledCountS = 1.6;
// static-sampled runs at least 10 counts, so its nearest-rank p90 is not
// the slowest count.  Ten exact counts would not fit the time budget of a
// run, so static-exact's p90 is the slowest of its 6 (README.md).
constexpr std::size_t kExactMinCounts = 6;
constexpr std::size_t kSampledMinCounts = 10;
// static-sampled: DOULION p, reservoir capacity per core, Misra-Gries top-t,
// and the relative error the estimate must stay within.
constexpr double kSampledP = 0.5;
constexpr std::uint64_t kSampledCapacity = 4096;
constexpr std::uint32_t kSampledMgTop = 32;
constexpr double kSampledTolerance = 0.10;

// stream-insert: Fig. 7 closed loop on a ~460k-edge preload.
constexpr EdgeCount kStreamGenEdges = 400'000;
constexpr std::uint32_t kStreamColors = 23;
constexpr std::size_t kStreamBatch = 1024;
constexpr double kStreamBatchS = 0.12;
constexpr std::size_t kStreamMinBatches = 100;
constexpr std::size_t kStreamMaxBatches = 400;  // the generated stream's size
constexpr int kStreamSetups = 3;

// serve-churn: open loop over 4 sessions of ~40k-edge community graphs.
constexpr std::uint32_t kServeSessions = 4;
constexpr EdgeCount kServeGenEdges = 50'000;
constexpr std::uint32_t kServeColors = 8;
constexpr std::size_t kServeBatch = 256;
constexpr std::size_t kServeDeletes = 26;  // 10% of each batch
// Offered load in batches/s: half the capacity measured on a busy 4-core
// x86 host, a third of it on a quiet one (README.md, "Calibrating
// serve-churn").
constexpr double kServeRatePerS = 4.0;
constexpr std::size_t kServeMinBatches = 100;
constexpr std::size_t kServeWorkers = 2;
constexpr int kServeSetups = 3;
constexpr auto kPollInterval = std::chrono::milliseconds(1);

/// Units of work a run of `seconds` does, at `unit_s` each.
std::size_t units_for(double seconds, double unit_s, std::size_t min_units) {
  return std::max(min_units,
                  static_cast<std::size_t>(std::ceil(seconds / unit_s)));
}

// ---- recorder: per-call wall times and spans --------------------------------

double now_s() {
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = "";
  const char* layer = "";
  double start_s = 0.0;
  double end_s = -1.0;
  int parent = -1;
  long long unit = -1;
  int tid = 0;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next++;
  return index;
}

thread_local int t_open_span = -1;
thread_local bool t_tracing = false;  // per thread: serve threads differ

class Recorder {
 public:
  /// Switches span recording on or off for the calling thread.
  static void set_tracing(bool on) { t_tracing = on; }

  /// Opens a span (when tracing) and returns its index, or -1.
  int open(const char* name, const char* layer, long long unit) {
    if (!t_tracing) return -1;
    const std::lock_guard lock(mutex_);
    spans_.push_back(
        Span{name, layer, now_s(), -1.0, t_open_span, unit, thread_index()});
    return t_open_span = static_cast<int>(spans_.size() - 1);
  }

  void close(int span, const char* name, double seconds) {
    const std::lock_guard lock(mutex_);
    samples_[name].push_back(seconds);
    if (span < 0) return;
    spans_[span].end_s = now_s();
    t_open_span = spans_[span].parent;
  }

  void sample(const std::string& name, double value) {
    const std::lock_guard lock(mutex_);
    samples_[name].push_back(value);
  }

  [[nodiscard]] std::string samples_json() const;
  [[nodiscard]] std::string spans_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<Span> spans_;
};

Recorder rec;

/// Runs `f` as one timed call named `name` into `layer`.
template <class F>
auto timed(const char* name, const char* layer, long long unit, F&& f) {
  struct Close {
    const char* name;
    int span;
    Clock::time_point start = Clock::now();
    ~Close() {
      rec.close(span, name,
                std::chrono::duration<double>(Clock::now() - start).count());
    }
  } close{name, rec.open(name, layer, unit)};
  return f();
}

// ---- JSON output ------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// JSON array of already-serialized values.
std::string join(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += items[i];
  }
  return out + "]";
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

/// A JSON object built field by field.
class Obj {
 public:
  Obj& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key) + ":" + json;
    return *this;
  }
  Obj& n(std::string_view key, double v) { return raw(key, num(v)); }
  Obj& s(std::string_view key, std::string_view v) {
    return raw(key, quote(v));
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string Recorder::samples_json() const {
  const std::lock_guard lock(mutex_);
  Obj o;
  for (const auto& [name, values] : samples_) o.raw(name, array(values));
  return o.str();
}

std::string Recorder::spans_json() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> rows;
  rows.reserve(spans_.size());
  for (const Span& s : spans_) {
    rows.push_back(join({quote(s.name), quote(s.layer), num(s.start_s),
                         num(s.end_s), std::to_string(s.parent),
                         std::to_string(s.unit), std::to_string(s.tid)}));
  }
  return join(rows);
}

/// The CountReport fields the benchmark reads.  Everything except the
/// measured `host_s` is a pure function of graph, config and seed; run.py
/// checks that repeats agree on them exactly.
std::string report_json(const engine::CountReport& r) {
  const auto& t = r.transfers;
  const auto& k = r.kernel;
  return Obj()
      .n("estimate", r.estimate)
      .n("exact", r.exact)
      .n("modeled_setup_s", r.times.setup_s)
      .n("modeled_ingest_s", r.times.ingest_s)
      .n("modeled_count_s", r.times.count_s)
      .n("host_s", r.times.host_s)
      .n("kernel_instr", static_cast<double>(k.instructions))
      .n("count_instr", static_cast<double>(k.count_instructions))
      .n("merge_isects", static_cast<double>(k.merge_isects))
      .n("gallop_isects", static_cast<double>(k.gallop_isects))
      .n("gallop_probes", static_cast<double>(k.gallop_probes))
      .n("pushes", static_cast<double>(t.push_transfers))
      .n("push_payload_bytes", static_cast<double>(t.push_payload_bytes))
      .n("push_wire_bytes", static_cast<double>(t.push_wire_bytes))
      .n("pulls", static_cast<double>(t.pull_transfers))
      .n("pull_wire_bytes", static_cast<double>(t.pull_wire_bytes))
      .n("edges_streamed", static_cast<double>(r.edges_streamed))
      .n("edges_kept", static_cast<double>(r.edges_kept))
      .n("edges_replicated", static_cast<double>(r.edges_replicated))
      .n("reservoir_overflows", static_cast<double>(r.reservoir_overflows))
      .n("load_imbalance", r.load_imbalance)
      .n("num_units", r.num_units)
      .n("used_incremental", r.used_incremental)
      .n("dirty_full_recounts", r.dirty_full_recounts)
      .n("sample_evictions", static_cast<double>(r.sample_evictions))
      .n("delete_misses", static_cast<double>(r.delete_misses))
      .str();
}

double modeled_s(const engine::CountReport& r) {
  return r.times.setup_s + r.times.ingest_s + r.times.count_s;
}

// ---- outcome ledger ---------------------------------------------------------

struct Ledger {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  /// One checked operation; records `what` as a failure unless `ok`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

std::string fmt_count(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

/// The raw result of one workload run, printed as JSON for run.py.
struct Result {
  Ledger ledger;
  std::vector<double> latency_s;     ///< per unit of work (static, stream)
  std::vector<int> unit_traced;      ///< per unit: tracing was on
  double items = 0;                  ///< edges / updates processed
  double busy_s = 0;                 ///< wall seconds they took (not serve)
  double modeled = 0;                ///< modeled device seconds of the unit
  std::string unit_report = "{}";    ///< CountReport the pim.* metrics use
  std::map<std::string, std::vector<std::string>> det;  ///< repeat groups
  Obj extra;                         ///< workload-specific raw values
};

// ---- inputs -----------------------------------------------------------------

graph::EdgeList ba_hubs(EdgeCount edges, std::uint64_t seed) {
  graph::EdgeList g =
      graph::gen::barabasi_albert(static_cast<NodeId>(edges / 5), 5, seed);
  graph::gen::add_hubs(g, 3, static_cast<NodeId>(edges / 20), seed + 1);
  return g;
}

graph::EdgeList community(EdgeCount edges, std::uint64_t seed) {
  return graph::gen::community(static_cast<NodeId>(edges / 25), 64, 0.6,
                               edges / 20, seed);
}

fs::path serve_input(const fs::path& dir, std::uint32_t i) {
  return dir / ("session" + std::to_string(i) + ".txt");
}

void generate(const std::string& workload, std::uint64_t seed,
              const fs::path& dir) {
  fs::create_directories(dir);
  if (workload == "static-exact" || workload == "static-sampled") {
    graph::write_coo_text(ba_hubs(kStaticGenEdges, derive_seed(seed, 1)),
                          dir / "graph.txt");
  } else if (workload == "stream-insert") {
    // The preload plus the insert stream: run() splits the shuffled edges.
    const EdgeCount stream = kStreamMaxBatches * kStreamBatch;
    graph::write_coo_text(
        ba_hubs(kStreamGenEdges + stream * 100 / 115, derive_seed(seed, 1)),
        dir / "graph.txt");
  } else if (workload == "serve-churn") {
    for (std::uint32_t i = 0; i < kServeSessions; ++i) {
      graph::write_coo_text(
          community(kServeGenEdges, derive_seed(seed, 10 + i)),
          serve_input(dir, i));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
}

/// read_coo + preprocess, each timed as a graph-layer call.
graph::EdgeList load(const fs::path& path, std::uint64_t seed, long long unit) {
  graph::EdgeList g =
      timed("graph.read", "graph", unit, [&] { return graph::read_coo(path); });
  timed("graph.preprocess", "graph", unit,
        [&] { return graph::preprocess(g, seed); });
  return g;
}

/// Exact triangle count of `edges` with the cpu-fast oracle.
double oracle_count(std::span<const Edge> edges) {
  return timed("cpufast.count", "cpufast", -1, [&] {
    engine::EngineConfig cfg;
    cfg.host_threads = kHostThreads;
    auto eng = engine::make_engine("cpu-fast", cfg);
    eng->add_edges(edges);
    return eng->recount().estimate;
  });
}

/// The engine's own seed (coloring hash, samplers) keeps its default: the
/// workload seed varies only the inputs the program receives.
engine::EngineConfig pim_config() {
  engine::EngineConfig cfg;
  cfg.host_threads = kHostThreads;
  // The overlap the pipelined ingest hides is measured host time, which
  // would make the modeled ingest time vary run to run.
  cfg.pipelined_ingest = false;
  return cfg;
}

std::unique_ptr<engine::TriangleCountEngine> make_pim(
    const engine::EngineConfig& cfg, long long unit) {
  return timed("engine.make", "engine", unit,
               [&] { return engine::make_engine("pim", cfg); });
}

// ---- static-exact / static-sampled ------------------------------------------

Result run_static(bool sampled, std::uint64_t seed, double seconds,
                  bool traced, const fs::path& dir) {
  Result res;
  engine::EngineConfig cfg = pim_config();
  cfg.num_colors = 0;  // auto: C = 23, 2300 cores
  if (sampled) {
    cfg.uniform_p = kSampledP;
    cfg.sample_capacity_edges = kSampledCapacity;
    cfg.misra_gries_enabled = true;
    cfg.mg_top = kSampledMgTop;
  }

  // The oracle's read also brings the input file into the page cache.
  graph::EdgeList g0 = graph::read_coo(dir / "graph.txt");
  graph::preprocess(g0, seed);
  const double exact = oracle_count(g0.edges());
  g0 = {};

  double error = 0.0;
  const auto counts = static_cast<long long>(
      sampled ? units_for(seconds, kSampledCountS, kSampledMinCounts)
              : units_for(seconds, kExactCountS, kExactMinCounts));
  for (long long i = 0; i < counts; ++i) {
    rec.set_tracing(traced && i % 2 == 0);
    const double t_setup = now_s();
    auto eng = make_pim(cfg, i);
    rec.sample("setup", now_s() - t_setup);

    const double t0 = now_s();
    graph::EdgeList g;
    const engine::CountReport r = timed("bench.count", "bench", i, [&] {
      g = load(dir / "graph.txt", seed, i);
      timed("tc.add_edges", "tc", i, [&] { eng->add_edges(g.edges()); });
      return timed("tc.recount", "tc", i, [&] { return eng->recount(); });
    });
    const double latency = now_s() - t0;
    rec.set_tracing(traced);
    res.latency_s.push_back(latency);
    res.unit_traced.push_back(traced && i % 2 == 0);
    res.items += static_cast<double>(g.num_edges());
    res.busy_s += latency;
    res.det["count"].push_back(report_json(r));
    res.modeled = modeled_s(r);
    res.unit_report = report_json(r);

    error = std::abs(r.estimate - exact) / exact;
    if (sampled) {
      res.ledger.check(std::isfinite(r.estimate) && error <= kSampledTolerance,
                       "count " + std::to_string(i) + ": relative error " +
                           num(error) + " exceeds " + num(kSampledTolerance));
    } else {
      res.ledger.check(r.exact && r.estimate == exact,
                       "count " + std::to_string(i) + ": estimate " +
                           fmt_count(r.estimate) + " != oracle " +
                           fmt_count(exact));
    }
  }
  res.extra.n("error_rel", error)
      .n("incremental_frac", 0.0)
      .n("dirty_full_recounts", 0.0);
  return res;
}

// ---- stream-insert ----------------------------------------------------------

Result run_stream(std::uint64_t seed, double seconds, bool traced,
                  const fs::path& dir) {
  Result res;
  engine::EngineConfig cfg = pim_config();
  cfg.num_colors = kStreamColors;
  cfg.incremental = true;

  const graph::EdgeList g = load(dir / "graph.txt", seed, -1);
  const std::span<const Edge> all = g.edges();
  const std::size_t preload_n = all.size() - kStreamMaxBatches * kStreamBatch;
  const std::span<const Edge> preload = all.first(preload_n);
  const double preload_exact = oracle_count(preload);

  // Set-up: engine + preload + first (full) recount, repeated; the last
  // engine serves the timed loop.
  std::unique_ptr<engine::TriangleCountEngine> eng;
  for (int s = 0; s < kStreamSetups; ++s) {
    eng.reset();
    const double t0 = now_s();
    eng = make_pim(cfg, -1);
    timed("tc.add_edges", "tc", -1, [&] { eng->add_edges(preload); });
    const engine::CountReport r =
        timed("tc.recount", "tc", -1, [&] { return eng->recount(); });
    rec.sample("setup", now_s() - t0);
    res.det["setup"].push_back(report_json(r));
    res.ledger.check(r.exact && r.estimate == preload_exact,
                     "setup " + std::to_string(s) + ": estimate " +
                         fmt_count(r.estimate) + " != oracle " +
                         fmt_count(preload_exact));
  }
  eng->reset_timers();

  std::vector<double> estimates;
  std::size_t incremental = 0;
  std::uint64_t dirty = 0;
  const double start = now_s();
  const std::size_t batches = std::min(
      kStreamMaxBatches, units_for(seconds, kStreamBatchS, kStreamMinBatches));
  for (std::size_t b = 0; b < batches; ++b) {
    const bool on = traced && b % 2 == 0;
    rec.set_tracing(on);
    const auto batch = all.subspan(preload_n + b * kStreamBatch, kStreamBatch);
    const auto unit = static_cast<long long>(b);
    const double t0 = now_s();
    const engine::CountReport r = timed("bench.batch", "bench", unit, [&] {
      timed("tc.apply", "tc", unit, [&] { eng->add_edges(batch); });
      return timed("tc.recount", "tc", unit, [&] { return eng->recount(); });
    });
    const double latency = now_s() - t0;
    rec.set_tracing(traced);
    res.latency_s.push_back(latency);
    res.unit_traced.push_back(on);
    res.items += static_cast<double>(batch.size());
    estimates.push_back(r.estimate);
    incremental += r.used_incremental ? 1 : 0;
    dirty += r.dirty_full_recounts;
    res.ledger.check(r.exact, "batch " + std::to_string(b) + ": not exact");
    if (b + 1 == batches) {
      res.modeled = modeled_s(r);
      res.unit_report = report_json(r);
    }
  }
  res.busy_s = now_s() - start;

  // Oracle: a serial cpu-incremental replay of the same inserts checks
  // every batch; its cost follows the batch, not the graph.
  engine::EngineConfig ocfg;
  ocfg.host_threads = 1;
  auto oracle = engine::make_engine("cpu-incremental", ocfg);
  oracle->add_edges(preload);
  for (std::size_t b = 0; b < estimates.size(); ++b) {
    oracle->add_edges(all.subspan(preload_n + b * kStreamBatch, kStreamBatch));
    const double exact = oracle->recount().estimate;
    res.ledger.check(estimates[b] == exact,
                     "batch " + std::to_string(b) + ": estimate " +
                         fmt_count(estimates[b]) + " != oracle " +
                         fmt_count(exact));
  }
  const auto n = static_cast<double>(estimates.size());
  res.extra.n("error_rel", 0.0)
      .n("incremental_frac", static_cast<double>(incremental) / n)
      .n("dirty_full_recounts", static_cast<double>(dirty) / n);
  return res;
}

// ---- serve-churn ------------------------------------------------------------

/// A session's live edge set, for drawing deletions of live edges and
/// inserts of absent ones.
class LiveEdges {
 public:
  explicit LiveEdges(std::span<const Edge> edges, NodeId nodes)
      : nodes_(nodes) {
    for (const Edge& e : edges) add(e.canonical());
  }

  std::vector<EdgeUpdate> next_batch(Xoshiro256ss& rng) {
    std::vector<EdgeUpdate> batch;
    std::unordered_set<std::uint64_t> touched;
    for (std::size_t i = 0; i < kServeDeletes; ++i) {
      const Edge e = edges_[rng.next_below(edges_.size())];
      remove(e);
      touched.insert(edge_key(e));
      batch.push_back(delete_of(e));
    }
    std::vector<Edge> inserts;
    while (batch.size() < kServeBatch) {
      const auto u = static_cast<NodeId>(rng.next_below(nodes_));
      const auto v = static_cast<NodeId>(rng.next_below(nodes_));
      const Edge e = Edge{u, v}.canonical();
      if (u == v || index_.contains(edge_key(e)) ||
          !touched.insert(edge_key(e)).second) {
        continue;
      }
      inserts.push_back(e);
      batch.push_back(insert_of(e));
    }
    for (const Edge& e : inserts) add(e);
    return batch;
  }

 private:
  void add(Edge e) {
    index_.emplace(edge_key(e), edges_.size());
    edges_.push_back(e);
  }
  void remove(Edge e) {
    const auto it = index_.find(edge_key(e));
    const std::size_t i = it->second;
    index_.erase(it);
    if (i + 1 != edges_.size()) {
      edges_[i] = edges_.back();
      index_[edge_key(edges_[i])] = i;
    }
    edges_.pop_back();
  }

  NodeId nodes_;
  std::vector<Edge> edges_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

struct Tenant {
  std::string name;
  graph::EdgeList base;
  double base_exact = 0;
  std::vector<std::size_t> batches;  ///< indices into the schedule
};

/// One scheduled batch of the open loop.
struct Scheduled {
  std::uint32_t tenant = 0;
  std::vector<EdgeUpdate> updates;
  std::uint64_t visible_at_streamed = 0;  ///< edges_streamed that covers it
  double due_s = 0, sent_s = 0, submit_s = 0, visible_s = -1;
  bool accepted = false;
  bool traced = false;
};

serve::ServeConfig serve_config() {
  serve::ServeConfig scfg;
  scfg.workers = kServeWorkers;
  scfg.session_host_threads = 1;
  scfg.recount_every_batches = 1;
  return scfg;
}

Result run_serve(std::uint64_t seed, double seconds, bool traced,
                 const fs::path& dir) {
  Result res;
  engine::EngineConfig cfg = pim_config();
  cfg.num_colors = kServeColors;
  cfg.incremental = true;
  cfg.host_threads = 1;

  std::vector<Tenant> tenants(kServeSessions);
  for (std::uint32_t i = 0; i < kServeSessions; ++i) {
    tenants[i].name = "s" + std::to_string(i);
    tenants[i].base = load(serve_input(dir, i), derive_seed(seed, 20 + i), -1);
    tenants[i].base_exact = oracle_count(tenants[i].base.edges());
  }

  // The open-loop schedule, generated up front: batches round-robin over
  // the sessions at kServeRatePerS, each 10% deletions of live edges.
  const std::size_t total =
      std::max(kServeMinBatches,
               static_cast<std::size_t>(std::ceil(kServeRatePerS * seconds)));
  std::vector<Scheduled> schedule(total);
  {
    std::vector<LiveEdges> live;
    std::vector<std::uint64_t> streamed;
    for (const Tenant& t : tenants) {
      live.emplace_back(t.base.edges(), t.base.num_nodes());
      streamed.push_back(t.base.num_edges());
    }
    Xoshiro256ss rng(derive_seed(seed, 3));
    for (std::size_t i = 0; i < total; ++i) {
      Scheduled& s = schedule[i];
      s.tenant = static_cast<std::uint32_t>(i % kServeSessions);
      s.updates = live[s.tenant].next_batch(rng);
      streamed[s.tenant] += s.updates.size();
      s.visible_at_streamed = streamed[s.tenant];
      s.due_s = static_cast<double>(i) / kServeRatePerS;
      s.traced = traced && i % 2 == 0;
      tenants[s.tenant].batches.push_back(i);
    }
  }

  // Set-up: manager + open + preload + first recount, repeated; the last
  // manager serves the timed window.
  std::unique_ptr<serve::SessionManager> mgr;
  std::vector<double> setup_modeled(kServeSessions);
  std::vector<std::uint64_t> setup_epoch(kServeSessions);
  for (int rep = 0; rep < kServeSetups; ++rep) {
    mgr.reset();
    const double t0 = now_s();
    mgr = std::make_unique<serve::SessionManager>(serve_config());
    std::vector<std::string> reports;
    for (Tenant& t : tenants) {
      timed("serve.open", "serve", -1, [&] { mgr->open(t.name, "pim", cfg); });
      std::vector<EdgeUpdate> preload;
      for (const Edge& e : t.base.edges()) preload.push_back(insert_of(e));
      timed("serve.submit", "serve", -1,
            [&] { return mgr->submit(t.name, preload); });
    }
    for (std::uint32_t i = 0; i < kServeSessions; ++i) {
      const serve::QueryResult q = timed("serve.flush", "serve", -1, [&] {
        return mgr->flush(tenants[i].name);
      });
      setup_modeled[i] = modeled_s(q.report);
      setup_epoch[i] = q.epoch;
      reports.push_back(report_json(q.report));
      res.ledger.check(q.estimate == tenants[i].base_exact,
                       "setup: session " + tenants[i].name + " estimate " +
                           fmt_count(q.estimate) + " != oracle " +
                           fmt_count(tenants[i].base_exact));
    }
    rec.sample("setup", now_s() - t0);
    res.det["setup"].push_back(join(reports));
  }

  // Timed window: one generator thread on the schedule, one poller.  A
  // batch is visible once a published snapshot has streamed its updates.
  // An exception in either thread is rethrown here after both joined.
  std::exception_ptr poll_error, gen_error;
  // Per session: estimate of each snapshot seen, by updates streamed.
  std::vector<std::map<std::uint64_t, double>> seen(kServeSessions);
  std::vector<std::uint64_t> last_epoch(kServeSessions, 0);
  std::uint64_t queue_depth_max = 0;
  std::uint64_t epoch_regressions = 0;
  const double start = now_s();
  const auto poll = [&](const std::stop_token& stop) {
    std::vector<std::size_t> next(kServeSessions, 0);  // first invisible batch
    while (!stop.stop_requested()) {
      for (std::uint32_t i = 0; i < kServeSessions; ++i) {
        Tenant& t = tenants[i];
        // Spans of a query belong to the batch it waits for.
        const long long unit =
            next[i] < t.batches.size()
                ? static_cast<long long>(t.batches[next[i]])
                : -1;
        const bool on =
            unit >= 0 && schedule[static_cast<std::size_t>(unit)].traced;
        if (on) rec.set_tracing(true);
        const serve::QueryResult q = timed("serve.query", "serve", unit,
                                           [&] { return mgr->query(t.name); });
        if (on) rec.set_tracing(false);
        const double now = now_s() - start;
        queue_depth_max =
            std::max(queue_depth_max, q.stats.queue_depth_batches);
        if (q.epoch < last_epoch[i]) ++epoch_regressions;
        if (q.epoch > last_epoch[i]) {
          last_epoch[i] = q.epoch;
          seen[i][q.report.edges_streamed] = q.estimate;
        }
        while (next[i] < t.batches.size()) {
          Scheduled& s = schedule[t.batches[next[i]]];
          if (q.report.edges_streamed < s.visible_at_streamed) break;
          s.visible_s = now;
          ++next[i];
        }
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  };
  const auto generate_load = [&] {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      Scheduled& s = schedule[i];
      std::this_thread::sleep_until(
          Clock::now() + std::chrono::duration<double>(
                             std::max(0.0, s.due_s - (now_s() - start))));
      if (s.traced) rec.set_tracing(true);
      s.sent_s = now_s() - start;
      const serve::SubmitResult r =
          timed("serve.submit", "serve", static_cast<long long>(i), [&] {
            return mgr->submit(tenants[s.tenant].name, s.updates);
          });
      s.submit_s = now_s() - start - s.sent_s;
      if (s.traced) rec.set_tracing(false);
      s.accepted = r == serve::SubmitResult::kAccepted;
    }
  };
  std::jthread poller([&](const std::stop_token& stop) {
    try {
      poll(stop);
    } catch (...) {
      poll_error = std::current_exception();
    }
  });
  std::jthread generator([&] {
    try {
      generate_load();
    } catch (...) {
      gen_error = std::current_exception();
    }
  });
  generator.join();
  std::vector<serve::QueryResult> finals;
  for (const Tenant& t : tenants) {
    finals.push_back(timed("serve.flush", "serve", -1,
                           [&] { return mgr->flush(t.name); }));
  }
  // Let the poller observe the final epochs before stopping it.
  std::this_thread::sleep_for(4 * kPollInterval);
  poller.request_stop();
  poller.join();
  for (const std::exception_ptr& e : {gen_error, poll_error}) {
    if (e) std::rethrow_exception(e);
  }

  std::vector<double> session, due, sent, submit, visible;
  for (const Scheduled& s : schedule) {
    res.ledger.check(s.accepted, "batch rejected");
    session.push_back(s.tenant);
    due.push_back(s.due_s);
    sent.push_back(s.sent_s);
    submit.push_back(s.submit_s);
    visible.push_back(s.visible_s);
    res.unit_traced.push_back(s.traced);
    res.items += static_cast<double>(s.updates.size());
  }
  res.ledger.check(epoch_regressions == 0,
                   std::to_string(epoch_regressions) + " epoch regressions");
  res.extra.raw("session", array(session))
      .raw("due_s", array(due))
      .raw("sent_s", array(sent))
      .raw("submit_s", array(submit))
      .raw("visible_s", array(visible));

  // Oracles, per session: a serial cpu-incremental replay checks every
  // published epoch the poller saw and the final count; session 0 is also
  // replayed serially on pim, which times the tc calls the server made.
  double modeled = 0;
  double batches = 0;
  double incremental = 0;
  for (std::uint32_t i = 0; i < kServeSessions; ++i) {
    const Tenant& t = tenants[i];
    modeled += modeled_s(finals[i].report) - setup_modeled[i];
    batches += static_cast<double>(t.batches.size());
    engine::EngineConfig ocfg;
    ocfg.host_threads = 1;
    auto oracle = engine::make_engine("cpu-incremental", ocfg);
    oracle->add_edges(t.base.edges());
    std::unique_ptr<engine::TriangleCountEngine> replay;
    if (i == 0) {
      replay = make_pim(mgr->resolve_engine_config(cfg), -1);
      timed("tc.add_edges", "tc", -1,
            [&] { replay->add_edges(t.base.edges()); });
      timed("tc.recount", "tc", -1, [&] { return replay->recount(); });
      replay->reset_timers();
    }
    std::uint64_t streamed = t.base.num_edges();
    std::uint32_t dirty = 0;
    engine::CountReport last;
    for (const std::size_t idx : t.batches) {
      const Scheduled& s = schedule[idx];
      const auto unit = static_cast<long long>(idx);
      streamed += s.updates.size();
      oracle->apply(s.updates);
      const double exact = oracle->recount().estimate;
      if (replay) {
        rec.set_tracing(s.traced);
        timed("tc.apply", "tc", unit, [&] { replay->apply(s.updates); });
        last = timed("tc.recount", "tc", unit,
                     [&] { return replay->recount(); });
        rec.set_tracing(traced);
        dirty += last.dirty_full_recounts;
        incremental += last.used_incremental ? 1 : 0;
        res.ledger.check(last.estimate == exact,
                         "replay batch " + std::to_string(idx) + ": estimate " +
                             fmt_count(last.estimate) + " != oracle " +
                             fmt_count(exact));
      }
      const auto it = seen[i].find(streamed);
      if (it != seen[i].end()) {
        res.ledger.check(it->second == exact,
                         "session " + t.name + " epoch at " +
                             std::to_string(streamed) + " updates: estimate " +
                             fmt_count(it->second) + " != oracle " +
                             fmt_count(exact));
      }
    }
    const double exact = oracle->recount().estimate;
    res.ledger.check(finals[i].estimate == exact,
                     "session " + t.name + " final estimate " +
                         fmt_count(finals[i].estimate) + " != oracle " +
                         fmt_count(exact));
    if (replay) {
      const auto n = static_cast<double>(t.batches.size());
      res.unit_report = report_json(last);
      res.extra.n("dirty_full_recounts", static_cast<double>(dirty) / n)
          .n("incremental_frac", incremental / n);
    }
  }
  std::uint64_t published = 0;
  for (std::uint32_t i = 0; i < kServeSessions; ++i) {
    published += finals[i].stats.epoch - setup_epoch[i];
  }
  res.modeled = modeled;
  res.extra.n("error_rel", 0.0)
      .n("queue_depth_max", static_cast<double>(queue_depth_max))
      .n("published_epochs", static_cast<double>(published))
      .n("batches", batches);
  return res;
}

// ---- main -------------------------------------------------------------------

std::string arg(int argc, char** argv, std::string_view key) {
  const std::string prefix = "--" + std::string(key) + "=";
  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.starts_with(prefix)) return std::string(a.substr(prefix.size()));
  }
  throw std::invalid_argument("missing --" + std::string(key) + "=");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const std::string workload = arg(argc, argv, "workload");
  const std::uint64_t seed = std::stoull(arg(argc, argv, "seed"));
  const fs::path dir = arg(argc, argv, "dir");
  if (mode == "gen") {
    generate(workload, seed, dir);
    return 0;
  }
  if (mode != "run") throw std::invalid_argument("mode must be gen or run");
  const double seconds = std::stod(arg(argc, argv, "seconds"));
  const bool traced = arg(argc, argv, "trace") == "1";

  Result res;
  // Traced runs trace everything except the untraced half of the units.
  rec.set_tracing(traced);
  try {
    if (workload == "static-exact" || workload == "static-sampled") {
      res = run_static(workload == "static-sampled", seed, seconds, traced,
                       dir);
    } else if (workload == "stream-insert") {
      res = run_stream(seed, seconds, traced, dir);
    } else if (workload == "serve-churn") {
      res = run_serve(seed, seconds, traced, dir);
    } else {
      throw std::invalid_argument("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    res.ledger.check(false, std::string("exception: ") + e.what());
  }

  Obj det;
  for (const auto& [group, repeats] : res.det) det.raw(group, join(repeats));
  std::vector<std::string> failures;
  for (const std::string& f : res.ledger.failures) failures.push_back(quote(f));
  std::vector<double> traced_units(res.unit_traced.begin(),
                                   res.unit_traced.end());
  std::printf("%s\n",
              Obj()
                  .s("workload", workload)
                  .n("attempted", static_cast<double>(res.ledger.attempted))
                  .raw("failures", join(failures))
                  .raw("samples", rec.samples_json())
                  .raw("latency_s", array(res.latency_s))
                  .raw("unit_traced", array(traced_units))
                  .n("items", res.items)
                  .n("busy_s", res.busy_s)
                  .n("modeled_s", res.modeled)
                  .n("peak_rss_mb", peak_rss_mb())
                  .raw("report", res.unit_report)
                  .raw("det", det.str())
                  .raw("extra", res.extra.str())
                  .raw("spans", rec.spans_json())
                  .str()
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
