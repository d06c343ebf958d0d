// Host-side orchestration of the PIM triangle counter — the "pim" engine of
// the registry.  It is configured by engine::EngineConfig (the machine
// model is `config.pim`) and reports through engine::CountReport, like
// every other backend.
//
// Pipeline per batch of COO edges (paper Sections 3.1-3.3):
//   1. host threads stream their chunk of the batch twice (count, then
//      fill): uniform sampling (discard with prob. 1-p, the same coins on
//      both passes), Misra-Gries degree summaries (fill pass only), and
//      per-triplet partitioning into one exact-size buffer per triplet.
//      Each chunk fills its own slice of every buffer, and the chunks are
//      in stream order, so every buffer holds its edges in stream order.
//      The chunks follow the thread count, and the coins are seeded per
//      chunk and Misra-Gries merges per-chunk summaries, so with p < 1 or
//      Misra-Gries the sample (and the estimate) depends on host_threads;
//      an exact count does not,
//   2. the host computes the reservoir decisions for every triplet and
//      folds each round into one image in place, in the round's slice of
//      the buffer (sketch::fold_offers): the appends move to the front as
//      one run from the reservoir's stored() on, a replacement of one of
//      them rewrites it there, and replacements of older slots become slot
//      writes, sorted, one per slot, the last offer winning,
//   3. one writer (write_image) flushes each image, also the ± path's
//      slot writes, with ONE bulk rank-parallel scatter per batch (or per
//      staging-capacity round), padded per rank to the slowest DPU as real
//      dpu_push_xfer transfers are; the DPU-side receive applies the image
//      with bulk DMA instead of per-edge writes.  The partition buffers
//      are released once the flush has written them, so nothing may read
//      a buffer after its flush: the fold has reordered it.
//
// Which physical DPU a triplet's image lands on is the PartitionPlan's
// decision (coloring/partition_plan.hpp): every estimator-visible quantity
// (reservoirs, seeds, corrections) is keyed by *triplet* index, so the
// estimate is bit-identical under any placement — placement only moves the
// modeled transfer padding and launch skew.  The placement is fixed before
// any sample is resident: identity and kind_interleave at construction,
// greedy_balance from the first non-empty batch's loads.  After that only
// fault recovery moves a triplet, to a spare bank, restored from its mirror.
//
// With pipelined ingestion enabled the modeled transfer + receive time of a
// flush is not charged immediately: it is held "in flight" and overlapped
// with the measured host time of the next partitioning/staging phase (the
// double-buffer shape of the paper's 32-thread host loop).  recount() is a
// sync point — the kernel depends on the resident sample, so any in-flight
// remainder is charged there in full.  This is timing-only: estimates are
// bit-identical with pipelining on or off.
//
// `recount()` is a fixed sequence of named stages (the paper's "triangle
// count" phase, Section 4.1):
//   1. sync — settle the in-flight flush — and bit-flip scrub,
//   2. remap freeze (Misra-Gries),
//   3. control-block push,
//   4. kernel launch, with the fault-recovery loop (one launch on the
//      perfect machine),
//   5. result gather,
//   6. correction and report: reservoir factor, monochromatic-triangle
//      overcount, uniform-sampling factor, degraded-coverage extrapolation.
//
// The class is stateful to support the dynamic-graph use case (Figure 7):
// add_edges() may be called repeatedly, and recount() reuses the resident
// samples — only new edges are transferred.  In incremental mode
// (`config.incremental`) recount() processes only the edges added since the
// previous count against a persistent sorted arc array per core (paper
// Section 4.6), falling back to a full pass whenever a reservoir
// overflowed; with Misra-Gries on, the remap table freezes at the first
// count so that state stays consistent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "coloring/partition_plan.hpp"
#include "coloring/partitioner.hpp"
#include "coloring/triplets.hpp"
#include "engine/engine.hpp"
#include "graph/coo.hpp"
#include "pim/system.hpp"
#include "sketch/misra_gries.hpp"
#include "sketch/reservoir.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {

class PimTriangleCounter final : public engine::TriangleCountEngine {
 public:
  /// Throws std::invalid_argument when `config.validate()` does.  Auto color
  /// selection (num_colors == 0) is resolved here, so config().num_colors is
  /// the C in effect.
  explicit PimTriangleCounter(const engine::EngineConfig& config);

  /// Streams one batch of edges into the PIM cores (dynamic updates).
  /// Self loops are dropped; edges are expected deduplicated (see
  /// graph::preprocess).
  void add_edges(std::span<const Edge> batch) override;

  /// Streams one batch of a fully-dynamic (±) update stream.  Insertions
  /// behave exactly like add_edges (an all-insert batch takes that code
  /// path verbatim, so insert-only estimates are bit-identical); deletions
  /// run random pairing on each touched triplet's reservoir: a deletion
  /// that hits the resident sample evicts it (swap-filled from the top and
  /// flushed as slot writes by the insert path's writer), one that misses
  /// only adjusts the pairing counters, and either way later insertions
  /// compensate.  Deleting an edge that was never inserted is
  /// indistinguishable from one the reservoir discarded; the caller owns
  /// that contract (the exact cpu-incremental engine is the oracle for
  /// it).  Throws std::invalid_argument when the batch contains
  /// deletions and uniform_p < 1 — the keep coin of the original insertion
  /// is not reconstructible, so DOULION cannot compose with deletions.
  void apply(std::span<const EdgeUpdate> batch) override;

  /// Runs the counting kernel over the resident samples and returns the
  /// corrected estimate (DESIGN.md "Correction math") with the modeled
  /// phase times, transfer and kernel diagnostics, and the Misra-Gries
  /// top-t summary when enabled.  Idempotent: recounting without new edges
  /// returns the same result.
  engine::CountReport recount() override;

  [[nodiscard]] const char* name() const noexcept override { return "pim"; }

  // ---- fault recovery ------------------------------------------------------
  /// Materializes the host-side sample mirrors now (one modeled gather) —
  /// the precondition of restore_bank().  Sessions with deletions or a
  /// rematerialize fault policy already keep them current.
  void ensure_mirrors() { materialize_mirrors(); }

  /// Re-scatters triplet `triplet`'s host-known sample plus a fresh control
  /// block onto its current bank — the primitive dead-bank re-materialization
  /// and bit-flip scrubbing are built on.  The bank's kernel-owned sorted
  /// state is rebuilt on the next recount; the estimate is bit-identical to
  /// an uninterrupted run.  Requires mirrors (ensure_mirrors()).
  void restore_bank(std::uint32_t triplet);

  /// True when the triplet's contribution was lost to an unrecoverable
  /// fault (degraded estimates reweight around it).
  [[nodiscard]] bool triplet_lost(std::uint32_t triplet) const noexcept {
    return triplet_lost_[triplet] != 0;
  }

  /// Zeroes the accumulated phase times and transfer diagnostics.  An
  /// in-flight pipelined flush belongs to the pre-reset window, so it is
  /// settled first and cannot leak into the next measurement window.
  void reset_timers() override {
    drain_in_flight(0.0);
    system_->reset_times();
  }

  // ---- introspection -------------------------------------------------------
  [[nodiscard]] pim::PimSystem& system() noexcept { return *system_; }
  [[nodiscard]] const pim::PimSystem& system() const noexcept {
    return *system_;
  }
  [[nodiscard]] const color::PartitionPlan& plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] const color::TripletTable& triplets() const noexcept {
    return plan_.table();
  }
  [[nodiscard]] std::uint64_t sample_capacity() const noexcept {
    return capacity_;
  }
  /// Edges ever offered to each PIM core, indexed by *triplet* (the t_d of
  /// the estimator; map through plan().dpu_of() for the physical core).
  [[nodiscard]] std::vector<std::uint64_t> per_dpu_edges_seen() const;

 private:
  /// Stages items [begin, end) of triplet `t`'s flush onto its bank `dpu`
  /// and returns the staged payload bytes.
  using StageFn = std::function<std::uint64_t(
      std::uint32_t t, pim::Dpu& dpu, std::uint64_t begin, std::uint64_t end)>;

  /// Count-then-fill partition of a batch of `n` items into `parts`, one
  /// exact-size buffer per triplet ("each host CPU thread manages an array
  /// of edges per PIM core", Section 3.1, laid out per core).
  /// `for_each_kept(chunk, lo, hi, fill, emit)` passes each item of
  /// [lo, hi) that survives filtering to `emit`, and must pass the same
  /// ones on both passes.  Pass 1 counts each chunk's items per triplet;
  /// an exclusive prefix over the chunks sizes every buffer and gives each
  /// chunk its first slot in it; pass 2 (`fill`) writes them.  Chunks are
  /// contiguous and ascending, so each buffer is in stream order.  Leaves
  /// each buffer's size in batch_totals_.
  template <typename Item, typename ForEachKept>
  void partition(std::size_t n, std::vector<std::vector<Item>>& parts,
                 const ForEachKept& for_each_kept);

  /// The round loop both ingest paths share.  Sums each triplet's share of
  /// the partitioned batch (batch_totals_: the replicated-edge count and
  /// the greedy_balance first-batch placement input), runs `replay` —
  /// host-only staging that returns the most items any triplet flushes;
  /// null flushes the batch items themselves — and then flushes in rounds
  /// of at most staging_capacity_edges items per triplet: `stage` fills
  /// each bank's image, and every round is settled against the host work
  /// since the previous one (round 0 also counts `host_window_s`).
  void flush_in_rounds(double host_window_s,
                       const std::function<std::uint64_t()>& replay,
                       const StageFn& stage);

  /// Computes reservoir decisions for the partitioned batch and flushes them
  /// (flush_in_rounds): each round folds into its own slice of the
  /// partition buffer (sketch::fold_offers), and the writer sends the
  /// append run from there plus the older-slot writes.  `host_window_s`
  /// is measured host time preceding the first flush (the overlap window
  /// for any in-flight device work).
  void insert_into_samples(double host_window_s);

  /// The fully-dynamic analogue: replays each triplet's ± update list in
  /// stream order against its reservoir policy and sample mirror, then
  /// flushes the touched slots with their final values through the same
  /// round loop and writer, as an image with no append run.  Marks
  /// triplets whose resident sample lost an edge as dirty: their
  /// persistent sorted arcs are stale.
  void apply_updates_to_samples(double host_window_s);

  /// Builds the per-triplet sample mirrors from the resident bank contents
  /// via one rank-parallel gather (charged to the ingest phase).  Insert-
  /// only sessions never pay for mirror maintenance; the first deletion
  /// materializes the occupancy map once, and both ingest paths keep it
  /// current afterwards.
  void materialize_mirrors();

  /// Settles one flush round's modeled device time: rank-parallel scatter
  /// of flush_bytes_ plus the DPU receive cycles accumulated since
  /// cycles_before_, pipelined (held in flight) or charged per config.
  /// `host_window_s` is the host work that overlaps the previous round's
  /// in-flight device time.
  void settle_flush_round(double host_window_s);

  /// Charges in-flight device time from the previous flush, hiding up to
  /// `host_overlap_s` of it under host work (pipelined ingest).
  void drain_in_flight(double host_overlap_s);

  // ---- recount() stages, in call order -------------------------------------
  /// Freezes the Misra-Gries remap table until the sorted arcs go stale.
  void freeze_remap();

  /// Writes every surviving triplet's control block and the remap table to
  /// its bank and charges the push.  `persist` asks the kernels to keep
  /// persistent sorted arcs.
  void push_control_blocks(bool persist);

  /// Runs the kernel on every surviving bank — incremental where the sorted
  /// arcs are valid and the triplet clean, full elsewhere — recovering from
  /// launch faults per the fault plan, and records the kernel's
  /// instructions and dirty-core count in `result`.
  void launch_kernels(bool persist, engine::CountReport& result);

  /// Pulls the surviving banks' control blocks in one gather and sums their
  /// intersection tallies into `result`.
  std::vector<DpuMeta> gather_results(engine::CountReport& result);

  /// Applies the statistical corrections to the gathered raw counts and
  /// fills the rest of `result` (DESIGN.md "Correction math").
  void finish_report(const std::vector<DpuMeta>& metas,
                     engine::CountReport& result);

  /// Writes triplet `t`'s control block and the frozen remap table onto
  /// `bank` and returns their wire bytes.  With `keep_sorted` the kernel-
  /// owned fields (cumulative count, sorted arcs) are read back from the
  /// bank; otherwise they start from zero and the next kernel run on the
  /// bank is a full pass.
  std::uint64_t write_control_block(std::uint32_t t, std::uint32_t bank,
                                    bool persist, bool keep_sorted);

  // ---- fault recovery internals -------------------------------------------
  /// Recovery decision for triplet `t` whose bank is unusable: under the
  /// rematerialize policy (with mirrors) patch the placement onto the first
  /// healthy spare bank, restore the sample there and return the new bank;
  /// otherwise mark the triplet lost and return kNoTriplet.
  std::uint32_t recover_unusable_bank(std::uint32_t t);

  /// Pushes triplet `t`'s mirrored sample + a fresh control block (and the
  /// frozen remap table) onto `bank`; returns the modeled seconds charged.
  double materialize_bank(std::uint32_t t, std::uint32_t bank);

  /// Draws this recount's MRAM bit flips, applies them to the resident
  /// samples, charges the scrub scan and restores flipped samples from the
  /// mirrors (or drops the triplet when no mirror exists).
  void inject_and_scrub_bitflips();

  [[nodiscard]] bool any_reservoir_overflowed() const noexcept;

  /// The partitioning/staging pool: dedicated when config.host_threads is
  /// pinned, the shared process-global pool otherwise — so N concurrent
  /// counters (the serving layer's sessions) do not stack N hardware-wide
  /// pools onto one machine.
  [[nodiscard]] ThreadPool& pool() const noexcept {
    return pool_ ? *pool_ : ThreadPool::global();
  }

  std::unique_ptr<ThreadPool> pool_;
  color::PartitionPlan plan_;
  ColorHash hash_;
  std::unique_ptr<pim::PimSystem> system_;
  /// Reservoir state per *triplet*; the plan maps triplets to banks.
  std::vector<sketch::ReservoirPolicy> reservoirs_;
  /// Host-side mirror of each triplet's resident sample (slot <-> edge).
  /// Valid from construction under the rematerialize fault policy, else
  /// materialized by the first deletion (materialize_mirrors); afterwards
  /// maintained from the host's own decisions, so deletions resolve
  /// membership and eviction slots with no device reads.
  std::vector<sketch::SampleMirror<Edge>> mirrors_;
  bool mirrors_valid_ = false;
  sketch::MisraGries global_mg_;
  std::uint64_t capacity_ = 0;

  // ---- ingestion state ------------------------------------------------------
  /// Per-triplet buffers of the batch being ingested, in stream order:
  /// sized exactly by partition() and released after the flush.
  std::vector<std::vector<Edge>> edge_parts_;
  /// Same for ± update batches (the fully-dynamic path).
  std::vector<std::vector<EdgeUpdate>> update_parts_;
  /// partition()'s per-chunk, per-triplet counts, then fill cursors: one
  /// row of num_triplets per pool thread.
  std::vector<std::uint64_t> chunk_offsets_;
  /// Per-triplet image of the current ± batch: the touched slots, sorted,
  /// with the mirror's final values.
  std::vector<std::vector<sketch::SlotWrite<Edge>>> slot_writes_;
  /// Per-triplet "resident sample lost an edge since the last count" flag;
  /// a dirty triplet's persistent sorted arcs are invalid, so the next
  /// recount runs the full kernel on that core only (the others keep the
  /// incremental path).
  std::vector<std::uint8_t> triplet_dirty_;
  /// Per-triplet item count of the partitioned batch (greedy placement
  /// input; reused).
  std::vector<std::uint64_t> batch_totals_;
  /// Per-DPU staged payload bytes of the current round's scatter.
  std::vector<std::uint64_t> flush_bytes_;
  /// Per-DPU cycle snapshot at the start of a flush round (reused).
  std::vector<double> cycles_before_;
  /// Modeled scatter+receive seconds of the last flush, not yet charged
  /// (pipelined ingest keeps it in flight until host work overlaps it).
  double in_flight_device_s_ = 0.0;

  std::uint64_t edges_streamed_ = 0;
  std::uint64_t edges_kept_ = 0;
  std::uint64_t edges_replicated_ = 0;
  std::uint64_t edges_deleted_ = 0;  ///< delete updates applied (stream space)
  std::uint64_t batch_counter_ = 0;
  /// greedy_balance: placement is planned once, from the first non-empty
  /// batch's observed loads (nothing is resident yet), then fixed.
  bool placement_observed_ = false;

  /// Dynamic mode: true once every core holds a valid persistent sorted arc
  /// array (set by the first full count with persistence).
  bool sorted_valid_ = false;
  /// Remap table in effect; frozen at the first count in incremental mode.
  std::vector<NodeId> frozen_remap_;

  // ---- fault recovery state -----------------------------------------------
  // The fault plan and the fault ledger live in the PimSystem: the perfect
  // machine unless config.fault_spec names one.
  /// Per-triplet "contribution lost to an unrecoverable fault" flags.
  /// Persistent: a lost triplet stays lost for the rest of the session.
  std::vector<std::uint8_t> triplet_lost_;
  /// Recount index feeding the deterministic bit-flip draws.
  std::uint64_t fault_epoch_ = 0;
};

}  // namespace pimtc::tc
