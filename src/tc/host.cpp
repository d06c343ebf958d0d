#include "tc/host.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/math_util.hpp"
#include "common/prng.hpp"
#include "common/timer.hpp"
#include "sketch/uniform_sampler.hpp"
#include "tc/kernel.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {
namespace {

/// Wire size of one slot write record (slot index + edge); appends travel
/// as bare edges since their slots are implied by the base slot.
constexpr std::uint64_t kSlotWriteBytes =
    sizeof(std::uint64_t) + sizeof(Edge);

/// The edge an ingested item is routed by.
const Edge& routed_edge(const Edge& e) noexcept { return e; }
const Edge& routed_edge(const EdgeUpdate& u) noexcept { return u.edge; }

/// Flushes one round's sample image onto `dpu` and returns its staged
/// payload bytes: `appends` fill the slots from `base_slot` on, and
/// `writes` (sorted by slot, one per slot) land as one MRAM write per run
/// of consecutive slots.  The DPU-side receive streams the image in,
/// copies each record into place (tasklet-parallel; the host made every
/// decision), stores the append run as one bulk burst and each write run
/// as a scattered DMA store.
std::uint64_t write_image(pim::Dpu& dpu, std::uint64_t base_slot,
                          std::span<const Edge> appends,
                          std::span<const sketch::SlotWrite<Edge>> writes) {
  const std::uint64_t sample_base = MramLayout::sample_offset();
  const std::uint64_t append_bytes = appends.size_bytes();
  if (append_bytes > 0) {
    dpu.mram().write(sample_base + base_slot * sizeof(Edge), appends.data(),
                     static_cast<std::size_t>(append_bytes));
  }
  const std::uint64_t staged_bytes =
      append_bytes + writes.size() * kSlotWriteBytes;
  dpu.charge_dma_bulk(staged_bytes, 2048);  // landing-zone read
  dpu.charge_parallel_instr(
      (appends.size() + writes.size()) * pim::KernelCostModel::edge_copy,
      kTasklets);
  dpu.charge_dma_bulk(append_bytes, 2048);
  thread_local std::vector<Edge> run;
  for (std::size_t i = 0; i < writes.size();) {
    const std::uint64_t first = writes[i].first;
    run.clear();
    while (i < writes.size() && writes[i].first == first + run.size()) {
      run.push_back(writes[i++].second);
    }
    const std::uint64_t bytes = run.size() * sizeof(Edge);
    dpu.mram().write(sample_base + first * sizeof(Edge), run.data(),
                     static_cast<std::size_t>(bytes));
    dpu.serial_dma(bytes);
  }
  return staged_bytes;
}

/// Frees a batch's per-triplet buffers once its flush has written them.
template <typename Item>
void release(std::vector<std::vector<Item>>& parts) {
  for (auto& items : parts) std::vector<Item>().swap(items);
}

/// Auto color selection: num_colors == 0 derives the largest C whose
/// binom(C+2, 3) triplets fit the machine (validate() checked it is >= 2).
std::uint32_t resolve_colors(const engine::EngineConfig& config) {
  return config.num_colors != 0
             ? config.num_colors
             : color::PartitionPlan::auto_colors(config.pim.max_dpus);
}

}  // namespace

PimTriangleCounter::PimTriangleCounter(const engine::EngineConfig& config)
    : TriangleCountEngine(config),
      // host_threads == 0 shares the process-global pool instead of
      // spawning a private hardware-wide pool per counter: N concurrent
      // engine sessions (src/serve/) would otherwise oversubscribe the
      // machine N-fold.  A pinned thread count still gets a dedicated pool.
      pool_(config.host_threads == 0
                ? nullptr
                : std::make_unique<ThreadPool>(config.host_threads)),
      plan_(resolve_colors(config), config.placement),
      hash_(plan_.num_colors(), derive_seed(config.seed, 0xc01u)),
      global_mg_(std::max<std::uint32_t>(1, config.mg_capacity)) {
  config_.num_colors = plan_.num_colors();
  const pim::PimSystemConfig& machine = config_.pim;
  // An empty fault spec is the perfect machine, the default plan: no spare
  // banks and no host mirrors to pay for.
  const pim::FaultPlan faults =
      config_.fault_spec.empty()
          ? pim::FaultPlan()
          : pim::FaultPlan(pim::FaultSpec::parse(config_.fault_spec));
  const pim::FaultSpec& fspec = faults.spec();
  // Always-on mirrors make any bank restorable with zero device reads; both
  // ingest paths maintain them once valid, so the mirror is exact at every
  // point of the stream.
  mirrors_valid_ = faults.armed() &&
                   fspec.recovery == pim::FaultSpec::Recovery::kRematerialize;
  if (mirrors_valid_ && fspec.launch_permanent > 0.0) {
    // Spare banks are migration targets for dead-bank re-materialization,
    // clamped to what the machine has beyond the triplet count.  They are
    // provisioned only when launch-permanent > 0, the one rate that kills a
    // bank: idle spares widen every per-rank padded transfer, and the golden
    // `recovered` config (retries, repairs and scrubs, no dead bank) pins
    // the wire bytes and modeled times of a plan without them.
    const std::uint32_t triplets = plan_.num_triplets();
    const std::uint64_t headroom =
        machine.max_dpus > triplets ? machine.max_dpus - triplets : 0;
    plan_.add_spare_banks(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(fspec.spare_banks, headroom)));
  }
  const std::uint32_t dpus = plan_.num_dpus();

  const std::uint64_t max_cap = MramLayout::max_capacity(machine.mram_bytes);
  capacity_ = config_.sample_capacity_edges == 0
                  ? max_cap
                  : std::min(config_.sample_capacity_edges, max_cap);

  system_ =
      std::make_unique<pim::PimSystem>(machine, dpus, pool_.get(), faults);
  const std::uint32_t triplets = plan_.num_triplets();
  reservoirs_.reserve(triplets);
  for (std::uint32_t t = 0; t < triplets; ++t) {
    // Seeded by triplet index, not bank index: the estimator's RNG stream
    // must not depend on where the plan places a triplet.
    reservoirs_.emplace_back(capacity_, derive_seed(config_.seed, 0xd00 + t));
  }

  // Ingestion state, sized once.  Estimator-side state is per triplet;
  // transfer-side scratch is per bank.  The partition buffers hold one
  // batch at a time (partition() sizes them, the flush releases them).
  edge_parts_.resize(triplets);
  update_parts_.resize(triplets);
  chunk_offsets_.resize(pool().size() * triplets);
  mirrors_.resize(triplets);
  slot_writes_.resize(triplets);
  triplet_dirty_.assign(triplets, 0);
  triplet_lost_.assign(triplets, 0);
  batch_totals_.resize(triplets);
  flush_bytes_.resize(dpus);
  cycles_before_.resize(dpus);
}

template <typename Item, typename ForEachKept>
void PimTriangleCounter::partition(std::size_t n,
                                   std::vector<std::vector<Item>>& parts,
                                   const ForEachKept& for_each_kept) {
  const std::uint32_t num_triplets = plan_.num_triplets();
  const color::EdgePartitioner partitioner(hash_, plan_.table());
  // One row of chunk_offsets_ per chunk.  From inside a pool worker
  // parallel_chunks runs a single chunk, so the rows are zeroed here rather
  // than by the chunks: a row a batch does not use must read 0.
  std::fill(chunk_offsets_.begin(), chunk_offsets_.end(), 0);
  pool().parallel_chunks(
      n, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        std::uint64_t* count = &chunk_offsets_[c * num_triplets];
        for_each_kept(c, lo, hi, false, [&](const Item& item) {
          for (const std::uint32_t t : partitioner.targets(routed_edge(item))) {
            ++count[t];
          }
        });
      });

  // Exclusive prefix over the chunks: each chunk's first slot in every
  // triplet's buffer, and each buffer's exact size.
  const std::size_t num_chunks = chunk_offsets_.size() / num_triplets;
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      total += std::exchange(chunk_offsets_[c * num_triplets + t], total);
    }
    batch_totals_[t] = total;
  }
  // Sizing value-initializes every buffer, so it runs on the pool.
  pool().parallel_for(num_triplets, [&](std::size_t t) {
    parts[t].resize(static_cast<std::size_t>(batch_totals_[t]));
  });

  pool().parallel_chunks(
      n, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        std::uint64_t* cursor = &chunk_offsets_[c * num_triplets];
        for_each_kept(c, lo, hi, true, [&](const Item& item) {
          for (const std::uint32_t t : partitioner.targets(routed_edge(item))) {
            parts[t][static_cast<std::size_t>(cursor[t]++)] = item;
          }
        });
      });
}

void PimTriangleCounter::add_edges(std::span<const Edge> batch) {
  WallTimer host_timer;
  const std::size_t num_chunks = pool().size();
  const std::uint64_t batch_id = batch_counter_++;

  std::vector<sketch::MisraGries> local_mg;
  std::vector<std::uint64_t> local_kept(num_chunks, 0);
  local_mg.reserve(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    local_mg.emplace_back(std::max<std::uint32_t>(1, config_.mg_capacity));
  }

  partition(batch.size(), edge_parts_,
            [&](std::size_t c, std::size_t lo, std::size_t hi, bool fill,
                const auto& emit) {
              // Seeded per chunk, so both passes draw the same coins.
              sketch::UniformSampler sampler(
                  config_.uniform_p,
                  derive_seed(config_.seed, (batch_id << 8) ^ (0xa000 + c)));
              for (std::size_t i = lo; i < hi; ++i) {
                const Edge e = batch[i];
                if (e.is_loop() || !sampler.keep(e)) continue;
                if (fill && config_.misra_gries_enabled) {
                  local_mg[c].update_edge(e);
                }
                emit(e);
              }
              local_kept[c] = sampler.kept();
            });

  edges_streamed_ += batch.size();
  for (const std::uint64_t k : local_kept) edges_kept_ += k;
  if (config_.misra_gries_enabled) {
    for (const auto& mg : local_mg) global_mg_.merge(mg);
  }

  insert_into_samples(host_timer.elapsed_s());

  system_->charge_host(host_timer.elapsed_s(), &PhaseTimes::host_s);
}

void PimTriangleCounter::drain_in_flight(double host_overlap_s) {
  if (in_flight_device_s_ <= 0.0) return;
  const double hidden =
      config_.pipelined_ingest
          ? std::min(in_flight_device_s_, std::max(0.0, host_overlap_s))
          : 0.0;
  if (hidden > 0.0) system_->note_overlap_saved(hidden);
  system_->charge_host(in_flight_device_s_ - hidden,
                       &PhaseTimes::ingest_s);
  in_flight_device_s_ = 0.0;
}

void PimTriangleCounter::flush_in_rounds(
    double host_window_s, const std::function<std::uint64_t()>& replay,
    const StageFn& stage) {
  const std::uint32_t num_triplets = plan_.num_triplets();
  std::uint64_t max_batch = 0;
  for (const std::uint64_t total : batch_totals_) {
    max_batch = std::max(max_batch, total);
    edges_replicated_ += total;
  }
  if (max_batch == 0) {
    // Nothing survived sampling: no scatter, but the host work just done
    // still overlaps any in-flight receive of the previous batch.
    drain_in_flight(host_window_s);
    return;
  }

  // greedy_balance defers its load-aware placement to the first batch with
  // data: nothing is resident yet, so the plan changes without moving a
  // sample.  After that only fault recovery moves a triplet.
  if (plan_.policy() == color::PlacementPolicy::kGreedyBalance &&
      !placement_observed_) {
    placement_observed_ = true;
    const std::vector<std::uint32_t> greedy =
        plan_.balanced_placement(batch_totals_);
    if (greedy != plan_.placement()) {
      if (system_->dead_dpu_count() > 0) {
        throw std::logic_error(
            "PimTriangleCounter: greedy placement after bank failures is "
            "unsupported (recovery owns the placement)");
      }
      plan_.set_placement(greedy);
      // The banks' kernel-owned sorted state stays behind: the next recount
      // is a full pass, which writes every bank a fresh control block.
      sorted_valid_ = false;
    }
  }

  // Host work since the previous settle is the window that hides the
  // previous flush's in-flight device time; round 0's window also covers
  // the work before this call and the replay.
  WallTimer window;
  const std::uint64_t max_items = replay ? replay() : max_batch;
  if (max_items == 0) {
    drain_in_flight(host_window_s + window.elapsed_s());
    return;
  }
  const std::uint64_t round_cap = config_.staging_capacity_edges == 0
                                      ? max_items
                                      : config_.staging_capacity_edges;
  const std::uint64_t rounds = ceil_div(max_items, round_cap);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (round > 0) window.reset();
    for (std::uint32_t d = 0; d < system_->num_dpus(); ++d) {
      cycles_before_[d] = system_->dpu(d).cycles();
    }
    // Banks without an occupant (spares) stage nothing this round.
    std::fill(flush_bytes_.begin(), flush_bytes_.end(), 0);
    const std::uint64_t begin = round * round_cap;
    const std::uint64_t end = begin + std::min(round_cap, max_items - begin);
    pool().parallel_for(num_triplets, [&](std::size_t i) {
      // The plan is an injection, so each triplet touches its own bank.
      const auto t = static_cast<std::uint32_t>(i);
      const std::uint32_t bank = plan_.dpu_of(t);
      flush_bytes_[bank] = stage(t, system_->dpu(bank), begin, end);
    });
    settle_flush_round((round == 0 ? host_window_s : 0.0) +
                       window.elapsed_s());
  }
}

void PimTriangleCounter::insert_into_samples(double host_window_s) {
  flush_in_rounds(
      host_window_s, nullptr,
      [&](std::uint32_t t, pim::Dpu& dpu, std::uint64_t begin,
          std::uint64_t end) {
        sketch::ReservoirPolicy& reservoir = reservoirs_[t];
        sketch::SampleMirror<Edge>& mirror = mirrors_[t];
        std::vector<Edge>& items = edge_parts_[t];
        const auto lo = static_cast<std::size_t>(
            std::min<std::uint64_t>(begin, items.size()));
        const auto hi = static_cast<std::size_t>(
            std::min<std::uint64_t>(end, items.size()));

        // Decide the round host-side and fold it into its own slice of the
        // buffer.  Once the mirrors are valid they track the decisions too,
        // so the host keeps knowing the banks' resident content;
        // insert-only sessions skip that bookkeeping entirely.
        thread_local std::vector<sketch::SlotWrite<Edge>> older;
        const std::uint64_t base_slot = reservoir.stored();
        const std::size_t appends = sketch::fold_offers(
            reservoir, std::span<Edge>(items.data() + lo, hi - lo), older,
            [&](const sketch::ReservoirDecision& d, const Edge& e) {
              if (mirrors_valid_) mirror.apply(d, e);
            });
        return write_image(dpu, base_slot, {items.data() + lo, appends},
                           older);
      });
  release(edge_parts_);
}

void PimTriangleCounter::settle_flush_round(double host_window_s) {
  drain_in_flight(host_window_s);

  // Model this round's device time: one rank-parallel scatter of the
  // per-DPU staged images, then the DPU-side receive (slowest core gates).
  const double xfer_s = system_->charge_scatter(
      flush_bytes_, config_.pipelined_ingest
                        ? nullptr
                        : &PhaseTimes::ingest_s);
  double max_delta = 0.0;
  for (std::uint32_t d = 0; d < system_->num_dpus(); ++d) {
    max_delta =
        std::max(max_delta, system_->dpu(d).cycles() - cycles_before_[d]);
  }
  const double receive_s = config_.pim.cycles_to_seconds(max_delta);
  if (config_.pipelined_ingest) {
    in_flight_device_s_ = xfer_s + receive_s;
  } else {
    system_->charge_host(receive_s, &PhaseTimes::ingest_s);
  }
}

void PimTriangleCounter::materialize_mirrors() {
  if (mirrors_valid_) return;
  // The previous batch's modeled receive must land before its sample can
  // be read back.
  drain_in_flight(0.0);

  const std::uint32_t num_triplets = plan_.num_triplets();
  std::vector<std::vector<Edge>> resident(num_triplets);
  std::vector<pim::GatherSpan> gathers(system_->num_dpus());
  bool any = false;
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    const std::uint64_t n = reservoirs_[t].stored();
    if (n == 0) continue;
    any = true;
    resident[t].resize(static_cast<std::size_t>(n));
    gathers[plan_.dpu_of(t)] = {MramLayout::sample_offset(),
                                resident[t].data(), n * sizeof(Edge)};
  }
  if (any) {
    system_->gather(gathers, &PhaseTimes::ingest_s);
  }
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    mirrors_[t].assign(std::move(resident[t]));
  }
  mirrors_valid_ = true;
}

void PimTriangleCounter::apply(std::span<const EdgeUpdate> batch) {
  if (std::all_of(batch.begin(), batch.end(),
                  [](const EdgeUpdate& u) { return u.is_insert; })) {
    // An all-insert batch is exactly the add_edges case; the base class
    // routes it there, which keeps insert-only streams on the legacy code
    // path verbatim (same RNG draws, same sample images — bit-identical
    // estimates and transfers).
    TriangleCountEngine::apply(batch);
    return;
  }
  if (config_.uniform_p < 1.0) {
    throw std::invalid_argument(
        "PimTriangleCounter::apply: deletions cannot compose with uniform "
        "sampling (uniform_p < 1): the keep coin of the original insertion "
        "is not reconstructible, so a deletion cannot be routed "
        "consistently");
  }

  // First deletion ever: build the occupancy mirrors from the resident
  // bank contents (one modeled rank-parallel gather).
  materialize_mirrors();

  WallTimer host_timer;

  // Partition the ± stream per triplet through the insert path's routine
  // and routing: a deletion reaches exactly the triplets its insertion
  // reached (the color hash is orientation- and sign-blind).
  partition(batch.size(), update_parts_,
            [&](std::size_t, std::size_t lo, std::size_t hi, bool,
                const auto& emit) {
              for (std::size_t i = lo; i < hi; ++i) {
                if (!batch[i].edge.is_loop()) emit(batch[i]);
              }
            });

  // Stream bookkeeping.  Deletions decrement the Misra-Gries degree
  // summaries in place; they cannot ride the mergeable per-thread
  // summaries (a thread-local table cannot decrement a counter tracked
  // only globally), so the mixed path updates the global table serially.
  edges_streamed_ += batch.size();
  for (const EdgeUpdate& u : batch) {
    if (u.edge.is_loop()) continue;
    if (u.is_insert) {
      ++edges_kept_;
    } else {
      ++edges_deleted_;
    }
    if (config_.misra_gries_enabled) {
      if (u.is_insert) {
        global_mg_.update_edge(u.edge);
      } else {
        global_mg_.remove_edge(u.edge);
      }
    }
  }
  apply_updates_to_samples(host_timer.elapsed_s());

  system_->charge_host(host_timer.elapsed_s(), &PhaseTimes::host_s);
}

void PimTriangleCounter::apply_updates_to_samples(double host_window_s) {
  const std::uint32_t num_triplets = plan_.num_triplets();

  // Replay (host only): each triplet's update list in stream order against
  // its policy and mirror, collecting the touched slots.  The mirror's
  // final content is the ground truth the flush writes, so intermediate
  // values never need materializing.
  const auto replay = [&] {
    pool().parallel_for(num_triplets, [&](std::size_t t) {
      sketch::ReservoirPolicy& reservoir = reservoirs_[t];
      sketch::SampleMirror<Edge>& mirror = mirrors_[t];
      thread_local std::vector<std::uint64_t> touched;
      touched.clear();

      bool lost_resident = false;
      for (const EdgeUpdate& u : update_parts_[t]) {
        if (u.is_insert) {
          const sketch::ReservoirDecision d = reservoir.offer();
          mirror.apply(d, u.edge);
          if (d.action != sketch::ReservoirDecision::Action::kDiscard) {
            touched.push_back(d.slot);
          }
        } else {
          // Deletions match either orientation of the stored edge.
          auto slot = mirror.evict(u.edge);
          if (!slot) slot = mirror.evict(u.edge.reversed());
          if (slot) {
            reservoir.remove_resident();
            lost_resident = true;
            touched.push_back(*slot);
          } else {
            (void)reservoir.remove_missing();
          }
        }
      }
      if (lost_resident) triplet_dirty_[t] = 1;

      // The image is the live touched slots, once each, with the mirror's
      // final values; dead slots (at or above the final stored prefix)
      // never reach the device.
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      std::vector<sketch::SlotWrite<Edge>>& writes = slot_writes_[t];
      writes.clear();
      for (const std::uint64_t slot : touched) {
        if (slot >= reservoir.stored()) break;
        writes.emplace_back(slot, mirror.at(slot));
      }
    });
    std::uint64_t max_writes = 0;
    for (const auto& writes : slot_writes_) {
      max_writes = std::max<std::uint64_t>(max_writes, writes.size());
    }
    return max_writes;
  };

  // Flush the slot writes through the insert path's writer, with no append
  // run, in rounds bounded by the same per-DPU staging capacity.
  flush_in_rounds(
      host_window_s, replay,
      [&](std::uint32_t t, pim::Dpu& dpu, std::uint64_t begin,
          std::uint64_t end) {
        const std::span<const sketch::SlotWrite<Edge>> writes =
            slot_writes_[t];
        const std::uint64_t lo = std::min<std::uint64_t>(begin, writes.size());
        const std::uint64_t hi = std::min<std::uint64_t>(end, writes.size());
        return write_image(dpu, 0, {}, writes.subspan(lo, hi - lo));
      });
  release(update_parts_);
}

engine::CountReport PimTriangleCounter::recount() {
  // Sync point: an in-flight batch receive must land before the kernel can
  // run, and the count depends on it — nothing left to hide it under, so
  // any remainder is charged in full.
  drain_in_flight(0.0);
  inject_and_scrub_bitflips();
  // Persistent sorted arcs need append-only samples.  The gate is
  // effective_seen (net size + pending deletions): it is non-decreasing and
  // exceeds the capacity exactly when a reservoir has ever replaced — on
  // insert-only streams it equals seen(), the legacy condition.
  const bool persist = config_.incremental && !any_reservoir_overflowed();
  freeze_remap();
  push_control_blocks(persist);
  engine::CountReport result;
  launch_kernels(persist, result);
  finish_report(gather_results(result), result);
  return result;
}

void PimTriangleCounter::freeze_remap() {
  // High-degree remap table, broadcast to every core and frozen once
  // incremental state exists (the persistent sorted arcs were built under
  // the old mapping).  Heavy-hitter mode remaps the top-t hubs; degree-
  // ordered mode remaps every tracked node, ordered by estimated degree, so
  // region sizes anti-correlate with degree (degree orientation).  top()
  // returns highest-estimate first and remapped_id() descends with rank, so
  // the order of the table *is* the degree order.
  if (!config_.misra_gries_enabled || sorted_valid_) return;
  const std::size_t want =
      config_.degree_ordered_remap
          ? std::min<std::size_t>(config_.mg_capacity, MramLayout::kMaxRemap)
          : std::min<std::size_t>(config_.mg_top, MramLayout::kMaxRemap);
  if (want > 0) frozen_remap_ = global_mg_.top(want);
}

std::uint64_t PimTriangleCounter::write_control_block(std::uint32_t t,
                                                      std::uint32_t bank,
                                                      bool persist,
                                                      bool keep_sorted) {
  pim::MramBank& mram = system_->dpu(bank).mram();
  DpuMeta meta = keep_sorted
                     ? mram.read_t<DpuMeta>(MramLayout::kMetaOffset)
                     : DpuMeta{};
  meta.sample_size = reservoirs_[t].stored();
  meta.edges_seen = reservoirs_[t].seen();
  meta.sample_capacity = capacity_;
  meta.num_remap = static_cast<std::uint32_t>(frozen_remap_.size());
  if (persist) meta.flags |= DpuMeta::kFlagPersistSorted;
  mram.write_t(MramLayout::kMetaOffset, meta);
  if (!frozen_remap_.empty()) {
    mram.write(MramLayout::kRemapOffset, frozen_remap_.data(),
               frozen_remap_.size() * sizeof(NodeId));
  }
  return sizeof(DpuMeta) + frozen_remap_.size() * sizeof(NodeId);
}

void PimTriangleCounter::push_control_blocks(bool persist) {
  // The plan routes each triplet's block to its bank, and the push is one
  // broadcast (uniform spans on occupied, surviving banks: no padding when
  // the placement is bank-dense).  A core keeps its persistent sorted arcs
  // only when they are valid and its triplet is clean; a dirty triplet (its
  // sample lost an edge since the last count) rebuilds them, so only its
  // core pays the full pass while the rest keep their S*.
  std::vector<std::uint64_t> bytes(system_->num_dpus(), 0);
  for (std::uint32_t t = 0; t < plan_.num_triplets(); ++t) {
    if (triplet_lost_[t]) continue;  // nothing resident to count
    const bool keep_sorted = persist && sorted_valid_ && !triplet_dirty_[t];
    bytes[plan_.dpu_of(t)] =
        write_control_block(t, plan_.dpu_of(t), persist, keep_sorted);
  }
  system_->charge_scatter(bytes, &PhaseTimes::count_s);
}

void PimTriangleCounter::launch_kernels(bool persist,
                                        engine::CountReport& result) {
  const std::uint32_t num_dpus = system_->num_dpus();
  // With valid persistent arcs every clean core counts just its new edges;
  // a dirty core (a deletion evicted a resident edge) re-runs the full
  // pipeline, rebuilding its arcs.
  const bool incremental = persist && sorted_valid_;
  result.used_incremental = incremental;
  std::vector<std::uint8_t> full_pass(num_dpus, incremental ? 0 : 1);
  std::vector<std::uint32_t> pending;
  for (std::uint32_t t = 0; t < plan_.num_triplets(); ++t) {
    if (triplet_lost_[t]) continue;
    pending.push_back(plan_.dpu_of(t));
    if (incremental && triplet_dirty_[t]) {
      full_pass[plan_.dpu_of(t)] = 1;
      ++result.dirty_full_recounts;
    }
  }
  std::sort(pending.begin(), pending.end());

  KernelParams params;
  params.intersect = config_.intersect;
  params.region_cache = config_.region_cache;
  const auto kernel = [&params, &full_pass](pim::Dpu& dpu) {
    if (full_pass[dpu.id()]) {
      run_count_kernel(dpu, params);
    } else {
      run_incremental_kernel(dpu, params);
    }
  };
  const auto instructions = [&] {
    std::uint64_t total = 0;
    for (std::uint32_t d = 0; d < num_dpus; ++d) {
      total += system_->dpu(d).total_instructions();
    }
    return total;
  };
  const std::uint64_t instr_before = instructions();

  // Launch until every surviving bank has run.  Transient launch failures
  // fire before the kernel touches device state, so a retry replays the
  // identical input: capped exponential backoff, charged to the modeled
  // count phase.  Dead banks — and transients past the retry budget or
  // under the degrade policy — go through recover_unusable_bank(), which
  // moves the triplet to a spare (a full pass rebuilds its sorted arcs) or
  // drops it.  On the perfect machine this is one launch.
  const pim::FaultSpec& spec = system_->fault_plan().spec();
  pim::FaultStats& ledger = system_->fault_stats();
  std::uint32_t backoff_round = 0;
  std::vector<std::uint32_t> next;
  const auto recover = [&](std::uint32_t bank) {
    const std::uint32_t target = recover_unusable_bank(plan_.triplet_of(bank));
    if (target == color::PartitionPlan::kNoTriplet) return;
    full_pass[target] = 1;
    next.push_back(target);
  };
  while (!pending.empty()) {
    const pim::PimSystem::LaunchReport report =
        system_->launch(pending, kernel, &PhaseTimes::count_s);
    next.clear();
    for (const std::uint32_t bank : report.dead) recover(bank);
    if (!report.transient.empty() &&
        spec.recovery != pim::FaultSpec::Recovery::kDegrade &&
        backoff_round < pim::kMaxLaunchRetries) {
      ++backoff_round;
      const double backoff_s =
          pim::kFirstBackoffS * static_cast<double>(1u << (backoff_round - 1));
      system_->charge_host(backoff_s, &PhaseTimes::count_s);
      ledger.recovery_s += backoff_s;
      ledger.launch_retries += report.transient.size();
      next.insert(next.end(), report.transient.begin(),
                  report.transient.end());
    } else {
      for (const std::uint32_t bank : report.transient) recover(bank);
    }
    std::sort(next.begin(), next.end());
    pending.swap(next);
  }
  result.kernel.instructions = instructions() - instr_before;
  // After this launch every persisted arc array is fresh again: clean cores
  // merged their batch, dirty and first-time cores rebuilt from scratch.
  sorted_valid_ = persist;
  std::fill(triplet_dirty_.begin(), triplet_dirty_.end(), 0);
}

std::vector<DpuMeta> PimTriangleCounter::gather_results(
    engine::CountReport& result) {
  // One rank-parallel pull of every control block that holds a result
  // (spares and lost triplets' banks have nothing to report).
  std::vector<DpuMeta> metas(system_->num_dpus());
  std::vector<pim::GatherSpan> spans(system_->num_dpus());
  for (std::uint32_t t = 0; t < plan_.num_triplets(); ++t) {
    if (triplet_lost_[t]) continue;
    const std::uint32_t d = plan_.dpu_of(t);
    spans[d] = {MramLayout::kMetaOffset, &metas[d], sizeof(DpuMeta)};
  }
  system_->gather(spans, &PhaseTimes::count_s);
  for (const DpuMeta& m : metas) {
    result.kernel.merge_picks += m.merge_picks;
    result.kernel.gallop_probes += m.gallop_probes;
    result.kernel.merge_isects += m.merge_isects;
    result.kernel.gallop_isects += m.gallop_isects;
    result.kernel.chunks_claimed += m.chunks_claimed;
    result.kernel.count_instructions += m.count_instructions;
  }
  return metas;
}

void PimTriangleCounter::finish_report(const std::vector<DpuMeta>& metas,
                                       engine::CountReport& result) {
  const std::uint32_t num_triplets = plan_.num_triplets();
  result.backend = name();
  result.simulated_times = true;
  result.num_units = system_->num_dpus();
  result.num_ranks = system_->num_ranks();
  result.host_threads = static_cast<std::uint32_t>(pool().size());
  result.edges_streamed = edges_streamed_;
  result.edges_kept = edges_kept_;
  result.edges_replicated = edges_replicated_;
  result.edges_deleted = edges_deleted_;
  result.num_colors = config_.num_colors;
  result.placement = color::to_string(plan_.policy());
  result.dpu_utilization = static_cast<double>(system_->num_dpus()) /
                           static_cast<double>(config_.pim.max_dpus);
  result.kernel.intersect = to_string(config_.intersect);

  // ---- statistical corrections (DESIGN.md, "Correction math") -------------
  double total_scaled = 0.0;
  double mono_scaled = 0.0;
  double total_weight = 0.0;      // Σ seen over all triplets
  double surviving_weight = 0.0;  // Σ seen over surviving triplets
  double max_density = 0.0;       // max scaled/seen over survivors
  std::uint32_t lost_triplets = 0;
  std::uint64_t min_seen = ~0ull;
  std::uint64_t max_seen = 0;
  std::vector<std::uint64_t> loads(num_triplets);
  for (std::uint32_t t = 0; t < num_triplets; ++t) {
    const std::uint64_t seen = reservoirs_[t].seen();
    loads[t] = seen;
    min_seen = std::min(min_seen, seen);
    max_seen = std::max(max_seen, seen);
    result.sample_evictions += reservoirs_[t].evictions();
    result.delete_misses += reservoirs_[t].phantom_deletions();

    // Random-pairing correction: the t of the estimator is the current net
    // population plus pending deletions (effective_seen), under which the
    // resident sample is a uniform min(M, t)-subset restricted to live
    // edges — on insert-only streams effective_seen == seen, the legacy
    // factor bit for bit.
    const std::uint64_t eff = reservoirs_[t].effective_seen();
    if (eff > capacity_) ++result.reservoir_overflows;

    const std::uint32_t kind = plan_.table().triplet(t).kind();
    result.kind_edges_seen[kind - 1] += seen;
    ++result.kind_units[kind - 1];

    // Coverage weights are *observed* per-triplet loads: the host knows
    // seen() even for a triplet whose bank is gone, so losing a hub-heavy
    // triplet shrinks coverage proportionally more than losing a light one.
    const double w = static_cast<double>(seen);
    total_weight += w;
    if (triplet_lost_[t]) {
      ++lost_triplets;
      continue;
    }
    surviving_weight += w;

    const std::uint64_t raw = metas[plan_.dpu_of(t)].triangle_count;
    result.raw_total += raw;
    const double q = reservoir_correction(capacity_, eff);
    const double scaled = q > 0.0 ? static_cast<double>(raw) / q : 0.0;
    total_scaled += scaled;
    if (kind == 1) mono_scaled += scaled;
    if (seen > 0) max_density = std::max(max_density, scaled / w);
  }
  result.min_unit_edges =
      (num_triplets == 0 || min_seen == ~0ull) ? 0 : min_seen;
  result.max_unit_edges = max_seen;
  result.load_imbalance = color::PartitionPlan::load_imbalance(loads);

  const double coverage =
      total_weight > 0.0 ? surviving_weight / total_weight : 1.0;
  const double colors = static_cast<double>(config_.num_colors);
  double corrected = total_scaled - (colors - 1.0) * mono_scaled;
  if (lost_triplets > 0) {
    // Degraded mode: extrapolate the surviving triplets' contribution by
    // their seen-edge coverage (DESIGN.md, "Fault model & recovery").
    corrected = coverage > 0.0 ? corrected / coverage : 0.0;
  }
  result.estimate = corrected * uniform_sampling_correction(config_.uniform_p);
  result.exact = config_.uniform_p >= 1.0 &&
                 result.reservoir_overflows == 0 && lost_triplets == 0;
  if (result.exact) {
    // Exact mode produces an integer by construction; kill float fuzz.
    result.estimate = static_cast<double>(result.rounded());
  }
  result.times = system_->times();
  result.transfers = system_->transfer_stats();

  if (system_->fault_plan().armed()) {
    pim::FaultStats f = system_->fault_stats();
    f.injected = true;
    f.degraded = lost_triplets > 0;
    f.coverage = coverage;
    f.dropped_triplets = lost_triplets;
    if (f.degraded) {
      // Widened relative bound on the coverage extrapolation: the missing
      // mass is at most (1-c)/c of the surviving mass times how much denser
      // (triangles per seen edge) the worst surviving triplet is than the
      // mean; the leading 2 is slack for the lost triplets being denser
      // still.  Property-tested on fig-scale hub-heavy graphs.
      const double mean_density =
          surviving_weight > 0.0 ? total_scaled / surviving_weight : 0.0;
      const double dispersion =
          (mean_density > 0.0 && max_density > mean_density)
              ? max_density / mean_density
              : 1.0;
      f.error_bound =
          coverage > 0.0 ? 2.0 * ((1.0 - coverage) / coverage) * dispersion
                         : 1.0;
    }
    result.faults = f;
  }
  if (config_.misra_gries_enabled) {
    for (const NodeId node : global_mg_.top(config_.mg_top)) {
      result.heavy_hitters.push_back({node, global_mg_.estimate(node)});
    }
  }
}

std::uint32_t PimTriangleCounter::recover_unusable_bank(std::uint32_t t) {
  if (system_->fault_plan().spec().recovery ==
          pim::FaultSpec::Recovery::kRematerialize &&
      mirrors_valid_) {
    const std::uint32_t banks = system_->num_dpus();
    for (std::uint32_t b = 0; b < banks; ++b) {
      if (plan_.triplet_of(b) != color::PartitionPlan::kNoTriplet) continue;
      if (system_->dpu_dead(b)) continue;
      std::vector<std::uint32_t> placement = plan_.placement();
      placement[t] = b;
      plan_.set_placement(placement);
      pim::FaultStats& ledger = system_->fault_stats();
      ledger.recovery_s += materialize_bank(t, b);
      ++ledger.rematerializations;
      return b;
    }
  }
  triplet_lost_[t] = 1;
  return color::PartitionPlan::kNoTriplet;
}

double PimTriangleCounter::materialize_bank(std::uint32_t t,
                                            std::uint32_t bank) {
  double seconds = 0.0;
  const sketch::SampleMirror<Edge>& mirror = mirrors_[t];
  const std::uint64_t sample_bytes = mirror.size() * sizeof(Edge);
  if (sample_bytes > 0) {
    std::vector<pim::ScatterSpan> spans(system_->num_dpus());
    spans[bank] = {MramLayout::sample_offset(), mirror.items().data(),
                   sample_bytes};
    seconds += system_->scatter(spans, &PhaseTimes::count_s);
  }
  // Fresh control block: the kernel-owned sorted state of whatever occupied
  // this bank before is meaningless for the restored sample.
  std::vector<std::uint64_t> meta_bytes(system_->num_dpus(), 0);
  meta_bytes[bank] = write_control_block(
      t, bank, config_.incremental && !any_reservoir_overflowed(),
      /*keep_sorted=*/false);
  seconds += system_->charge_scatter(meta_bytes, &PhaseTimes::count_s);
  return seconds;
}

void PimTriangleCounter::inject_and_scrub_bitflips() {
  // The epoch advances every recount, fired or not: the draw stream must
  // not depend on what earlier epochs happened to hit.
  const std::uint64_t epoch = fault_epoch_++;
  const pim::FaultPlan& faults = system_->fault_plan();
  if (faults.spec().mram_bitflip <= 0.0) return;
  pim::FaultStats& ledger = system_->fault_stats();
  for (std::uint32_t t = 0; t < plan_.num_triplets(); ++t) {
    if (triplet_lost_[t]) continue;
    const std::uint64_t stored = reservoirs_[t].stored();
    if (stored == 0) continue;
    const std::uint32_t bank = plan_.dpu_of(t);
    if (system_->dpu_dead(bank)) continue;
    if (!faults.mram_bitflip(epoch, t)) continue;

    const std::uint64_t bytes = stored * sizeof(Edge);
    const std::uint64_t bit = faults.corrupt_bit(epoch, t, bytes * 8);
    auto& mram = system_->dpu(bank).mram();
    const std::uint64_t addr = MramLayout::sample_offset() + bit / 8;
    std::uint8_t byte = 0;
    mram.read(addr, &byte, 1);
    byte = static_cast<std::uint8_t>(byte ^ (1u << (bit % 8)));
    mram.write(addr, &byte, 1);
    ++ledger.mram_bitflips;

    // Scrub detects the flip (modeled checksum sweep of the resident
    // sample), then restores from the host mirror when one exists.
    const double scrub_s = static_cast<double>(bytes) / pim::kChecksumBytesPerS;
    system_->charge_host(scrub_s, &PhaseTimes::count_s);
    ledger.detection_s += scrub_s;
    ledger.checksum_bytes += bytes;
    if (mirrors_valid_) {
      ledger.recovery_s += materialize_bank(t, bank);
      ++ledger.sample_restores;
      // The restored control block reset the kernel-owned sorted state;
      // force the full pipeline on this core.
      triplet_dirty_[t] = 1;
    } else {
      triplet_lost_[t] = 1;
    }
  }
}

void PimTriangleCounter::restore_bank(std::uint32_t triplet) {
  if (triplet >= plan_.num_triplets()) {
    throw std::invalid_argument(
        "PimTriangleCounter::restore_bank: no such triplet");
  }
  if (!mirrors_valid_) {
    throw std::logic_error(
        "PimTriangleCounter::restore_bank: host mirrors not materialized; "
        "call ensure_mirrors() first");
  }
  drain_in_flight(0.0);
  materialize_bank(triplet, plan_.dpu_of(triplet));
  triplet_dirty_[triplet] = 1;
}

bool PimTriangleCounter::any_reservoir_overflowed() const noexcept {
  for (const auto& r : reservoirs_) {
    if (r.effective_seen() > capacity_) return true;
  }
  return false;
}

std::vector<std::uint64_t> PimTriangleCounter::per_dpu_edges_seen() const {
  std::vector<std::uint64_t> seen;
  seen.reserve(reservoirs_.size());
  for (const auto& r : reservoirs_) seen.push_back(r.seen());
  return seen;
}

}  // namespace pimtc::tc
