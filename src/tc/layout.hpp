// MRAM layout of one PIM core's triangle-counting state.
//
//   [ DpuMeta | remap table | sample S | sorted arcs S* | new-flags |
//     scratch A | scratch B | region index ]
//
// The sample region holds the reservoir in *original* node ids and arrival
// order.  A full kernel run copies it (applying the high-degree remap) into
// scratch A, sorts, builds the region index and counts; with persistence
// requested it additionally materializes S*.
//
// Only the control block, remap table, sample, S* and its new-flags
// outlive a launch (live_ranges).  The scratch buffers and the region index
// are sized here, so capacity and WRAM limits are those of a kernel that
// stores them, but the simulator keeps their contents in host copies and
// never writes them to the bank.
//
// S* is the persistent *arc* array powering the incremental mode used for
// dynamic graphs (paper Section 4.6 / Figure 7): every edge appears in both
// orientations, so region(x) in S* is the full sorted adjacency of x and a
// common-neighbor query for a new edge (u,v) is one merge of region(u) and
// region(v).  A new batch is sorted and merged into S* in one streaming
// pass; only triangles involving new edges are then counted — each exactly
// once, attributed to its lexicographically largest new edge.  The per-arc
// new-flags array marks which S* entries arrived in the current batch.
//
// All offsets derive from the fixed reservoir capacity M (edges; 2M arcs),
// so they are stable across updates; the MRAM page model keeps untouched
// gaps, scratch included, free.
#pragma once

#include <array>
#include <cstdint>

#include "common/math_util.hpp"
#include "common/types.hpp"

namespace pimtc::tc {

/// Fixed header at MRAM offset 0; written by the host before a launch and
/// read back after (8-byte fields first keep everything aligned).
///
/// The `merge_*`/`gallop_*`/`chunks_claimed` fields are the intersection
/// diagnostics of the *last* kernel run (full or incremental): both kernels
/// overwrite them, so the host reads per-recount numbers, not session
/// accumulations.
struct DpuMeta {
  std::uint64_t sample_size = 0;      ///< edges resident in S
  std::uint64_t edges_seen = 0;       ///< t: edges ever offered to this core
  std::uint64_t sample_capacity = 0;  ///< M (drives the layout)
  std::uint64_t triangle_count = 0;   ///< cumulative raw count (output)
  std::uint64_t num_regions = 0;      ///< region-index size (output)
  std::uint64_t sorted_size = 0;      ///< edges incorporated into S*
  std::uint64_t merge_picks = 0;      ///< elements consumed by merge loops
  std::uint64_t gallop_probes = 0;    ///< MRAM bursts of block searches
  std::uint64_t merge_isects = 0;     ///< intersections resolved by merge
  std::uint64_t gallop_isects = 0;    ///< intersections resolved by gallop
  std::uint64_t chunks_claimed = 0;   ///< strided work chunks claimed
  /// Instructions issued by the counting phase alone (region-cache build +
  /// lookups + intersections), excluding copy/sort/index — the quantity the
  /// adaptive engine optimizes and BENCH_kernel.json tracks.
  std::uint64_t count_instructions = 0;
  std::uint32_t num_remap = 0;        ///< entries in the remap table
  std::uint32_t flags = 0;            ///< see kFlag* below

  static constexpr std::uint32_t kFlagPersistSorted = 1u << 0;
  static constexpr std::uint32_t kFlagSortedValid = 1u << 1;
};
static_assert(sizeof(DpuMeta) == 104);

/// An entry of the region index: all sorted records in [begin, next.begin)
/// share `node` as their first endpoint.
struct RegionEntry {
  NodeId node = 0;
  std::uint32_t begin = 0;

  friend constexpr auto operator<=>(const RegionEntry&,
                                    const RegionEntry&) = default;
};
static_assert(sizeof(RegionEntry) == 8);

/// A byte range [begin, end) of a bank.
struct MramRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

struct MramLayout {
  static constexpr std::uint64_t kMetaOffset = 0;
  static constexpr std::uint64_t kRemapOffset = 128;
  static constexpr std::uint32_t kMaxRemap = 1024;  ///< 4 KB remap area

  /// Largest reservoir capacity M addressable by the region index:
  /// RegionEntry.begin is a 32-bit index into the 2M-entry arc arrays, so
  /// 2M - 1 must fit in uint32.  max_capacity() clamps to this and the
  /// kernels reject control blocks beyond it.
  static constexpr std::uint64_t kMaxCapacityEdges = 1ull << 31;

  /// First byte of the (raw, arrival-order) sample region: M edges.
  [[nodiscard]] static constexpr std::uint64_t sample_offset() noexcept {
    return kRemapOffset + kMaxRemap * sizeof(NodeId);
  }

  /// Persistent sorted arc array S*: 2M arcs.
  [[nodiscard]] static constexpr std::uint64_t sorted_offset(
      std::uint64_t capacity) noexcept {
    return sample_offset() + capacity * sizeof(Edge);
  }

  /// One "arrived in the current batch" flag byte per S* arc: 2M bytes.
  [[nodiscard]] static constexpr std::uint64_t flags_offset(
      std::uint64_t capacity) noexcept {
    return sorted_offset(capacity) + 2 * capacity * sizeof(Edge);
  }

  /// Scratch buffers sized for 2M arcs each (the arc pipelines need them;
  /// the canonical pipeline uses at most M).
  [[nodiscard]] static constexpr std::uint64_t work_a_offset(
      std::uint64_t capacity) noexcept {
    return round_up(flags_offset(capacity) + 2 * capacity, 8);
  }

  [[nodiscard]] static constexpr std::uint64_t work_b_offset(
      std::uint64_t capacity) noexcept {
    return work_a_offset(capacity) + 2 * capacity * sizeof(Edge);
  }

  /// Region index: up to 2M entries (one per distinct arc source).
  [[nodiscard]] static constexpr std::uint64_t region_offset(
      std::uint64_t capacity) noexcept {
    return work_b_offset(capacity) + 2 * capacity * sizeof(Edge);
  }

  /// End of the layout for capacity M.
  [[nodiscard]] static constexpr std::uint64_t total_bytes(
      std::uint64_t capacity) noexcept {
    return region_offset(capacity) + 2 * capacity * sizeof(RegionEntry);
  }

  /// The state that outlives a launch, for a bank whose control block holds
  /// capacity M and sorted_size s: the control block, remap table and
  /// sample followed by S* (2s arcs), and the 2s new-flags, which are zero
  /// between launches.
  [[nodiscard]] static constexpr std::array<MramRange, 2> live_ranges(
      std::uint64_t capacity, std::uint64_t sorted_size) noexcept {
    const std::uint64_t arcs = 2 * sorted_size;
    return {MramRange{0, sorted_offset(capacity) + arcs * sizeof(Edge)},
            MramRange{flags_offset(capacity), flags_offset(capacity) + arcs}};
  }

  /// Largest reservoir capacity M whose full working set fits an MRAM bank:
  /// 8 + 16 + 2 + 16 + 16 + 16 = 74 bytes per edge slot plus the header.
  [[nodiscard]] static constexpr std::uint64_t max_capacity(
      std::uint64_t mram_bytes) noexcept {
    const std::uint64_t fixed = sample_offset() + 64;
    if (mram_bytes <= fixed) return 0;
    const std::uint64_t cap = (mram_bytes - fixed) / 74;
    return cap < kMaxCapacityEdges ? cap : kMaxCapacityEdges;
  }
};

/// New ids assigned to remapped high-degree nodes: rank r (0 = most
/// frequent) becomes kInvalidNode - 1 - r, above every real node id, so hub
/// adjacency regions sort last and are never the merge's first stream.
[[nodiscard]] constexpr NodeId remapped_id(std::uint32_t rank) noexcept {
  return kInvalidNode - 1 - rank;
}

}  // namespace pimtc::tc
