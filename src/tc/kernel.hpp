// The triangle-counting DPU kernels (paper Sections 3.4, 3.5 and the
// dynamic-graph mode of Section 4.6).
//
// Both kernels run functionally on one simulated DPU while charging the
// UPMEM cost model.  Inputs/outputs travel through the DpuMeta block
// (layout.hpp); the raw sample is never modified.
//
// Full kernel (static counting, also the first pass of dynamic mode):
//   1. remap+copy — copy the sample into scratch, translating the
//      high-degree node ids (Misra-Gries remap, degree-ordered) to ids
//      above every real id,
//   2. sort       — WRAM chunk sort + MRAM ping-pong merge passes,
//   3. persist    — optionally copy the sorted data into S* (dynamic mode),
//   4. index      — build the per-first-node region index,
//   5. count      — edge iterator over strided chunks: for every edge
//      (u,v), look up both regions through the WRAM RegionCache and run the
//      adaptive intersection (tc/intersect.hpp) of the remainder of u's
//      region with v's — linear merge or block-galloping binary search per
//      the configured IntersectPolicy.
//
// Incremental kernel (dynamic updates; requires a valid S*):
//   1. remap+copy+sort the new batch (sample[sorted_size..sample_size)),
//   2. merge S* with the sorted batch in one streaming pass, marking batch
//      entries in the new-flags array, and persist the result as S*,
//   3. rebuild the region index over the merged S*,
//   4. for every new edge e, merge the *full* regions of its endpoints and
//      count a matching triangle iff each of the other two edges is either
//      old or a new edge lexicographically smaller than e — every new
//      triangle is counted exactly once, at its largest new edge,
//   5. clear the flags; add the delta to the cumulative count.
//
// Execution.  Every stage — remap+copy, sort, persist, merge, region
// index, region-cache build, the count loops, flag clear — runs on the
// host in bulk, on host copies handed from stage to stage, and charges
// each tasklet, in closed form, the DMA transfers, bytes and instructions
// its WRAM-streamed form issues (tc::charge_stream,
// tc::DmaTally::add_edge_stream, tc::search_steps, the replayed block
// search).  Only state that outlives a launch reaches MRAM: the control
// block and S*.  Scratch (the remap copy, sort buffers, region index,
// merged arcs and flags) stays on the host, though MramLayout still sizes
// it.  The incremental kernel's host copies are the merged arcs alone: it
// reads S* into their back and merges the batch forward in place, keeps
// the batch arcs' merged positions instead of flags, and builds no region
// table.  Step 3 is one counting pass over the merged arcs that yields
// the region count, each tasklet block's region starts (all the index
// charge needs) and the rank of every batch endpoint, whose region is
// found by galloping out from its batch arcs (tc::resolve_batch_keys);
// step 4 looks up only those endpoints.  tests/golden/kernel_state.golden
// pins the charges and the live state.
#pragma once

#include <cstdint>
#include <vector>

#include "pim/dpu.hpp"
#include "tc/intersect.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {

/// PIM threads per core: the paper's NR_TASKLETS, fixed at build time as in
/// the reference kernel.
inline constexpr std::uint32_t kTasklets = 16;

/// Execution parameters of one kernel run.  The host runs the defaults with
/// its configured `intersect` and `region_cache`; the white-box tests and
/// the ablation bench sweep the rest.
struct KernelParams {
  std::uint32_t tasklets = kTasklets;
  /// WRAM staging granularity per stream, in edges.  The kernels clamp it
  /// to what fits the scratchpad at `tasklets`; 64 is that bound at 16.
  std::uint32_t buffer_edges = 64;
  /// Intersection strategy of the counting phases; counts are bit-identical
  /// under every policy (tc/intersect.hpp).
  IntersectPolicy intersect = IntersectPolicy::kAuto;
  /// WRAM RegionCache for region lookups; false degrades every lookup to
  /// the full-table MRAM binary search (ablation baseline — the pre-cache
  /// kernel behavior).
  bool region_cache = true;
};

/// Below this many records the host replays the sort stage with a
/// comparison sort and one sweep per co-partitioned merge pass; from it on,
/// with an LSD radix sort and per-run checkpoints, whose histograms,
/// checkpoint rows and scans of up to 64 tags per split cost more than
/// they save on small inputs.  On x86 the two cross near 190 records for
/// keys with 18 varying bits per half and near 290 for keys that vary in
/// all 64 bits (remapped hub ids).
inline constexpr std::uint64_t kRadixMinRecords = 384;

/// The host part of the sort stage, whose order and merge-path splits the
/// stage charges from.  Sorts `data` ascending as the device's WRAM chunk
/// sorts of `chunk` records and pairwise merge passes with `tasklets`
/// tasklets leave it, and sets `split_less` to the split ranks of every
/// co-partitioned pass (fewer runs than tasklets), pass after pass: a pass
/// with `pairs` pairs and `ways` tasklets per pair holds, at pair * ways +
/// way, how many right-run records order below the left-run record at
/// rank way * nl / ways (nl: the left run's length), or 0 where that rank
/// is 0 or nl.  Equal records order by input position, as the merges keep
/// them.  Needs chunk >= 1 and 1 <= tasklets <=
/// pim::PimSystemConfig::max_tasklets.
void replay_sort(std::vector<Edge>& data, std::uint64_t chunk,
                 std::uint32_t tasklets,
                 std::vector<std::uint64_t>& split_less);

/// Executes the full kernel.  Reads DpuMeta at offset 0 and writes back
/// `triangle_count` (total over the whole sample) plus `num_regions`; when
/// DpuMeta::kFlagPersistSorted is set, also persists S* and `sorted_size`.
void run_count_kernel(pim::Dpu& dpu, const KernelParams& params);

/// Executes the incremental kernel over the new edges
/// sample[sorted_size..sample_size).  Requires kFlagSortedValid (i.e. a
/// prior full run with persistence); adds the new-triangle delta to
/// `triangle_count` and advances `sorted_size`.
void run_incremental_kernel(pim::Dpu& dpu, const KernelParams& params);

}  // namespace pimtc::tc
