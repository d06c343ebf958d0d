// Regenerates Figure 7: cumulative time to process 10 dynamic updates of
// the WikipediaEdit graph (the PIM implementation's *worst* static case),
// counting exact triangles after every update.
//
// The CPU baseline must rebuild its CSR from the full accumulated COO on
// every update; the GPU and PIM implementations update their internal
// representations directly and "quickly begin counting the triangles formed
// by the newly updated set of edges" (Section 4.6) — here: the incremental
// recount mode, which merges the batch into each core's persistent sorted
// arc array and counts only new-edge triangles.  All comparators are
// streaming sessions of the same engine interface from the registry.
//
// Projection: per-update *simulated* PIM time (transfers + device cycles;
// locally measured 2-core host time excluded) and the CPU work profile are
// scaled linearly to the published |E|; host-side batch building is modeled
// at the paper host's memory bandwidth.  See DESIGN.md and README.md,
// "Scale gap".
//
// Paper claim: cumulative CPU time grows far faster than PIM and GPU; PIM
// beats the CPU on dynamic COO streams despite losing statically.
#include "baseline/device_model.hpp"
#include "bench_util.hpp"
#include "engine/registry.hpp"

int main(int argc, char** argv) {
  using namespace pimtc;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Figure 7: cumulative time over 10 dynamic updates (WikipediaEdit)",
      "CPU pays a full CSR rebuild per update and falls behind; PIM and "
      "GPU ingest COO directly and win cumulatively",
      opt);

  const graph::EdgeList full =
      bench::load_graph(graph::PaperGraph::kWikipediaEdit, opt);
  const auto& info =
      graph::paper_graph_info(graph::PaperGraph::kWikipediaEdit);
  const double ratio = static_cast<double>(info.paper_edges) /
                       static_cast<double>(full.num_edges());

  const baseline::PlatformModel cpu_model = baseline::xeon_4215_model();
  const baseline::PlatformModel gpu_model = baseline::a100_model();

  constexpr int kUpdates = 10;
  const std::size_t step = full.num_edges() / kUpdates;
  const auto edges = full.edges();

  engine::EngineConfig cfg;
  cfg.num_colors = opt.colors;
  cfg.seed = opt.seed;
  cfg.misra_gries_enabled = true;
  cfg.mg_capacity = 1024;
  cfg.mg_top = 32;
  cfg.incremental = true;  // the COO-native dynamic path
  // Bounded per-DPU staging: large updates flush in multiple bulk scatters,
  // and the pipelined ingest overlaps staging round k+1 with the modeled
  // receive of round k (the paper's double-buffered 32-thread host loop).
  cfg.staging_capacity_edges = 1024;
  auto pim = engine::make_engine("pim", cfg);
  engine::EngineConfig naive_cfg = cfg;
  naive_cfg.incremental = false;  // re-sort + full recount every update
  auto pim_naive = engine::make_engine("pim", naive_cfg);
  auto cpu = engine::make_engine("cpu", cfg);

  double pim_cum = 0.0;
  double naive_cum = 0.0;
  double cpu_cum = 0.0;
  double gpu_cum = 0.0;
  double pim_first = 0.0;
  double pim_last = 0.0;
  double cpu_first = 0.0;
  double cpu_last = 0.0;
  // Rank-aware ingest diagnostics accumulated over the updates.
  std::uint64_t push_transfers = 0;
  std::uint64_t push_payload = 0;
  std::uint64_t push_wire = 0;
  double overlap_saved_s = 0.0;
  std::uint32_t ranks = 0;

  std::printf("%7s %12s | %10s %10s %10s %12s | cumulative s @ paper scale\n",
              "update", "edges", "CPU", "GPU", "PIM inc.", "PIM naive");

  for (int u = 0; u < kUpdates; ++u) {
    const std::size_t lo = u * step;
    const std::size_t hi = (u == kUpdates - 1) ? edges.size() : lo + step;
    const auto batch = edges.subspan(lo, hi - lo);
    const auto batch_bytes =
        static_cast<std::uint64_t>(batch.size() * sizeof(Edge) * ratio);

    // PIM: transfer the new batch only, recount incrementally.
    pim->reset_timers();
    pim->add_edges(batch);
    const engine::CountReport r = pim->recount();
    // Simulated device+transfer seconds, scaled to paper |E|; the paper
    // host's batch building is a streaming pass over C x batch bytes.
    const double host_model_s =
        static_cast<double>(batch_bytes) * opt.colors / 25e9;
    const double pim_update =
        (r.times.ingest_s + r.times.count_s) * ratio + host_model_s;
    pim_cum += pim_update;
    if (u == 0) pim_first = pim_update;
    if (u == kUpdates - 1) pim_last = pim_update;
    push_transfers += r.transfers.push_transfers;
    push_payload += r.transfers.push_payload_bytes;
    push_wire += r.transfers.push_wire_bytes;
    overlap_saved_s += r.transfers.overlap_saved_s;
    ranks = r.num_ranks;

    // PIM without the incremental mode (the naive dynamic baseline).
    pim_naive->reset_timers();
    pim_naive->add_edges(batch);
    const engine::CountReport rn = pim_naive->recount();
    naive_cum += (rn.times.ingest_s + rn.times.count_s) * ratio +
                 host_model_s;

    // CPU / GPU: platform models over the accumulated graph's profile.
    cpu->add_edges(batch);
    const engine::CountReport c = cpu->recount();
    engine::WorkProfile scaled = c.work;
    scaled.conversion_ops =
        static_cast<std::uint64_t>(scaled.conversion_ops * ratio);
    scaled.intersection_steps =
        static_cast<std::uint64_t>(scaled.intersection_steps * ratio);
    const double cpu_update = cpu_model.dynamic_seconds(scaled, batch_bytes);
    cpu_cum += cpu_update;
    gpu_cum += gpu_model.dynamic_seconds(scaled, batch_bytes);
    if (u == 0) cpu_first = cpu_update;
    if (u == kUpdates - 1) cpu_last = cpu_update;

    std::printf("%7d %12.0f | %10.2f %10.2f %10.2f %12.2f%s%s\n", u + 1,
                static_cast<double>(hi) * ratio, cpu_cum, gpu_cum, pim_cum,
                naive_cum,
                r.used_incremental ? "" : "  [full recount]",
                r.rounded() == c.rounded() ? "" : "  <-- COUNT MISMATCH");
  }

  std::printf("\nSpeedup over CPU (cumulative): GPU %.2fx, PIM %.2fx; "
              "incremental over naive PIM: %.2fx\n",
              cpu_cum / gpu_cum, cpu_cum / pim_cum, naive_cum / pim_cum);
  std::printf("Rank-aware ingest: %u ranks, %llu bulk pushes (%.1f per "
              "update), %s payload -> %s wire (x%.2f pad), overlap hidden "
              "%.3f ms\n",
              ranks, static_cast<unsigned long long>(push_transfers),
              static_cast<double>(push_transfers) / kUpdates,
              bench::human(static_cast<double>(push_payload)).c_str(),
              bench::human(static_cast<double>(push_wire)).c_str(),
              push_payload > 0 ? static_cast<double>(push_wire) /
                                     static_cast<double>(push_payload)
                               : 1.0,
              overlap_saved_s * 1e3);

  // Mechanism analysis: per-update cost slopes.  The CPU rebuilds and
  // recounts everything, so its per-update cost grows with the accumulated
  // graph; the incremental PIM pays a flatter cost.  When the CPU slope is
  // steeper, a crossover exists; report where.
  const double cpu_slope = (cpu_last - cpu_first) / (kUpdates - 1);
  const double pim_slope = (pim_last - pim_first) / (kUpdates - 1);
  std::printf("Per-update cost: CPU %.2fs -> %.2fs (slope %.3fs/update), "
              "PIM %.2fs -> %.2fs (slope %.3fs/update)\n",
              cpu_first, cpu_last, cpu_slope, pim_first, pim_last, pim_slope);
  if (pim_cum < cpu_cum) {
    std::printf("Shape check: PIM beats CPU within 10 updates: HOLDS\n");
  } else if (cpu_slope > pim_slope) {
    const double per_update_cross =
        (pim_first - cpu_first) / (cpu_slope - pim_slope);
    std::printf(
        "Shape check: PIM beats CPU within 10 updates: NOT at this scale "
        "(projected per-update crossover near update %.0f).\n"
        "The stand-in's hub holds %.0f%% of |E| vs the paper's 1.2%%, which "
        "concentrates per-update work on the hub-colored cores "
        "(README.md, \"Scale gap\").\n",
        per_update_cross + 1.0, 100.0 * 12500.0 * opt.scale * 2 /
                                    (250e3 * opt.scale * 2));
  } else {
    std::printf("Shape check: VIOLATED (no crossover in sight)\n");
  }
  std::printf("Mechanism checks: incremental >> naive PIM recounting: %s; "
              "GPU beats CPU: %s\n",
              naive_cum > 1.5 * pim_cum ? "HOLDS" : "WEAK",
              gpu_cum < cpu_cum ? "HOLDS" : "VIOLATED");

  // ---- mixed-stream churn phase (fully-dynamic serving shape) --------------
  // The insertion-only experiment above is the paper's; real serving
  // workloads churn both ways.  Continue the same PIM session with 5 delete
  // batches removing 20% of the edges, recounting after each.  Deletions
  // evict resident samples via random pairing and dirty the touched
  // triplets, which alone pay a full kernel pass — the report prints how
  // selective that invalidation is.  The exact fully-dynamic CPU engine
  // replays the identical ± stream as the parity oracle.
  std::printf("\nMixed-stream churn: deleting 20%% of |E| in 5 batches\n");
  auto oracle = engine::make_engine("cpu-incremental", cfg);
  oracle->add_edges(edges);

  const std::size_t churn_total = full.num_edges() / 5;
  const std::size_t churn_step = churn_total / 5;
  double churn_cum = 0.0;
  std::uint32_t dirty_cores = 0;
  std::uint32_t churn_units = 0;
  bool churn_parity = true;
  std::printf("%7s %12s | %10s %12s %8s\n", "delete", "edges left",
              "PIM s", "evictions", "dirty");
  for (int u = 0; u < 5; ++u) {
    const std::size_t lo = u * churn_step;
    const std::size_t hi = (u == 4) ? churn_total : lo + churn_step;
    std::vector<EdgeUpdate> batch;
    batch.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) batch.push_back(delete_of(edges[i]));

    pim->reset_timers();
    pim->apply(batch);
    const engine::CountReport r = pim->recount();
    churn_cum += (r.times.ingest_s + r.times.count_s) * ratio;
    dirty_cores += r.dirty_full_recounts;
    churn_units = r.num_units;

    oracle->apply(batch);
    const engine::CountReport o = oracle->recount();
    if (r.rounded() != o.rounded()) churn_parity = false;
    std::printf("%7d %12.0f | %10.2f %12llu %8u%s\n", u + 1,
                static_cast<double>(full.num_edges() - hi) * ratio,
                churn_cum,
                static_cast<unsigned long long>(r.sample_evictions),
                r.dirty_full_recounts,
                r.rounded() == o.rounded() ? "" : "  <-- COUNT MISMATCH");
  }
  std::printf("Churn checks: PIM matches the exact fully-dynamic oracle on "
              "every recount: %s; deletion-forced full passes: %u of %u "
              "core-recounts (batches this large touch most triplets — "
              "small deletions invalidate selectively, see the dirty-triplet "
              "tests)\n",
              churn_parity ? "HOLDS" : "VIOLATED", dirty_cores,
              5 * churn_units);
  return 0;
}
