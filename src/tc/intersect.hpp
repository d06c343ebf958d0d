// Shared adaptive-intersection machinery of the counting kernels (paper
// Section 3.4, plus the GraphChallenge-style adaptive merge/gallop split).
//
// Both the full (static) and the incremental kernel reduce to the same
// inner problem: given the sorted record array and its per-first-node
// region index, intersect two sorted regions by second endpoint.  This
// module owns everything that problem needs so the two kernels cannot
// diverge again:
//
//  * `charge_stream` and `DmaTally::add_edge_stream`, the closed-form DMA
//    of a WRAM-buffered MRAM stream read or written whole, or read until
//    the caller stopped: the kernels run on host copies of their arrays
//    and charge what the streamed device code issues,
//  * `search_steps`, the probe count of the kernels' lower-bound loop as a
//    function of (size, rank), so a search the host resolves another way
//    is charged exactly what the loop would have issued,
//  * the region index of the sorted array: the table the full kernel
//    builds (`build_regions`), the key list an incremental launch resolves
//    instead (`resolve_batch_keys`) and the one charge both stand for
//    (`charge_region_index`),
//  * the sampled WRAM `RegionCache` + `find_region` lookup that keeps the
//    per-query MRAM probe chain at ~log2(stride) instead of log2(regions);
//    the host resolves the lookup through the table or the key list and
//    charges the cached search in closed form,
//  * the adaptive `intersect_regions` primitive: linear merge or block-
//    galloping binary search, selected per intersection by a cost model
//    (`IntersectPolicy::kAuto`) or forced by policy — the match set, and
//    therefore every count, is identical under any policy.  It walks the
//    host copy of the sorted array and charges each stream and block
//    probe in closed form,
//  * strided chunk scheduling (`kIntersectChunkEdges`) so a hub's
//    contiguous run of expensive queries is spread round-robin over the
//    tasklets instead of landing on one,
//  * the `IntersectTally` diagnostics both kernels report through DpuMeta.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/math_util.hpp"
#include "pim/config.hpp"
#include "pim/dpu.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {

// ---------------------------------------------------------------------------
// Closed-form charges
// ---------------------------------------------------------------------------

/// Charges to `t` the DMA a tasklet issues to stream `records` records of T
/// between MRAM and a `buffer`-record WRAM buffer, reading or writing: one
/// transfer per full buffer plus one for the remainder, each rounded up to
/// the DMA alignment.  kernel_test checks it against a buffered stream.
template <typename T>
void charge_stream(pim::Tasklet& t, std::uint64_t records,
                   std::uint64_t buffer) noexcept {
  constexpr std::uint64_t kAlign = pim::PimSystemConfig::dma_alignment_bytes;
  const std::uint64_t full = records / buffer;
  const std::uint64_t rest = records % buffer;
  t.charge_dma(full + (rest != 0 ? 1 : 0),
               full * round_up(buffer * sizeof(T), kAlign) +
                   round_up(rest * sizeof(T), kAlign));
}

/// Iterations of the kernels' lower-bound loop over `size` entries when `r`
/// of them order below the key (`mid = lo + (hi - lo) / 2`, continue right
/// iff entry `mid` is below).  The loop's path depends only on (size, r),
/// so this is also its probe count.
[[nodiscard]] constexpr std::uint64_t search_steps(std::uint64_t size,
                                                   std::uint64_t r) noexcept {
  std::uint64_t steps = 0;
  while (size > 0) {
    const std::uint64_t half = size / 2;
    if (half < r) {
      r -= half + 1;
      size -= half + 1;
    } else {
      size = half;
    }
    ++steps;
  }
  return steps;
}

/// DMA a tasklet issued, tallied on the host and charged once per phase
/// (integer cycles make the sum exact in any order).
struct DmaTally {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;  ///< aligned

  void add(std::uint64_t n, std::uint64_t aligned_bytes) noexcept {
    transfers += n;
    bytes += aligned_bytes;
  }

  /// What a WRAM-buffered read of a `len`-edge region issued once it had
  /// returned `k` of the edges through a `buffer`-edge buffer: ceil(k/B)
  /// refills, which read min(len, ceil(k/B)·B) edges.  An Edge is one DMA
  /// alignment unit, so no transfer needs rounding.
  void add_edge_stream(std::uint64_t len, std::uint64_t k,
                       std::uint64_t buffer) noexcept {
    const std::uint64_t refills = ceil_div(k, buffer);
    add(refills, std::min(len, refills * buffer) * sizeof(Edge));
  }
};
static_assert(sizeof(Edge) == pim::PimSystemConfig::dma_alignment_bytes);

// ---------------------------------------------------------------------------
// Work scheduling
// ---------------------------------------------------------------------------

/// Contiguous block [begin, end) of `n` items owned by worker `id` of `num`.
struct Block {
  std::uint64_t begin;
  std::uint64_t end;
};

[[nodiscard]] inline Block block_of(std::uint64_t n, std::uint32_t id,
                                    std::uint32_t num) noexcept {
  const std::uint64_t base = n / num;
  const std::uint64_t rem = n % num;
  const std::uint64_t begin = id * base + std::min<std::uint64_t>(id, rem);
  return {begin, begin + base + (id < rem ? 1 : 0)};
}

/// Strided chunk size (records) of the counting scans.  The scanned array
/// is sorted, so a hub's expensive queries are contiguous; round-robin
/// chunks of this size spread them over the tasklets where one contiguous
/// block per tasklet would hand a single tasklet every hub (real kernels
/// pull chunks from a shared work counter for the same reason).
inline constexpr std::uint64_t kIntersectChunkEdges = 16;

// ---------------------------------------------------------------------------
// Intersection policy + diagnostics
// ---------------------------------------------------------------------------

/// Strategy for intersecting two sorted adjacency regions.  The match set
/// is policy-independent; only the modeled work moves.
enum class IntersectPolicy : std::uint8_t {
  kAuto = 0,  ///< per-intersection cost model picks merge or gallop
  kMerge,     ///< always linear merge (the paper's Section 3.4 kernel)
  kGallop,    ///< always binary-search the small side into the large one
};

[[nodiscard]] const char* to_string(IntersectPolicy policy) noexcept;

/// Parses "auto" | "merge" | "gallop"; throws std::invalid_argument.
[[nodiscard]] IntersectPolicy intersect_policy_from_string(
    std::string_view name);

/// Per-kernel intersection diagnostics, accumulated per tasklet and summed
/// into DpuMeta at the end of a run.
struct IntersectTally {
  std::uint64_t merge_picks = 0;    ///< elements consumed by merge loops
  std::uint64_t gallop_probes = 0;  ///< MRAM bursts issued by block searches
  std::uint64_t merge_isects = 0;   ///< intersections resolved by merge
  std::uint64_t gallop_isects = 0;  ///< intersections resolved by gallop
  std::uint64_t chunks_claimed = 0; ///< strided scan chunks claimed

  IntersectTally& operator+=(const IntersectTally& o) noexcept {
    merge_picks += o.merge_picks;
    gallop_probes += o.gallop_probes;
    merge_isects += o.merge_isects;
    gallop_isects += o.gallop_isects;
    chunks_claimed += o.chunks_claimed;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Region index and lookup
// ---------------------------------------------------------------------------

/// A region [begin, end) of the sorted buffer (all records sharing one
/// first endpoint).
struct Region {
  std::uint64_t begin = ~0ull;
  std::uint64_t end = ~0ull;
  [[nodiscard]] bool found() const noexcept { return begin != ~0ull; }
  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
};

/// One entry of an incremental launch's key list: a node the launch looks
/// up, its rank (how many regions have a smaller node) and its region, not
/// found() when no region has that node.
struct KeyRegion {
  NodeId node = 0;
  std::uint64_t rank = 0;
  Region region;
};

/// Builds the region table of `sorted` into `table`: entry i holds the
/// first node and first record of region i.  Record 0 starts a region, and
/// so does every record whose first node differs from the one before.
/// counts[t] receives the region starts in block_of(n, t, counts.size()),
/// tasklet t's block.  `table` only grows, so a worker thread allocates it
/// once; returns its filled prefix.
[[nodiscard]] std::span<const RegionEntry> build_regions(
    std::span<const Edge> sorted, std::span<std::uint64_t> counts,
    std::vector<RegionEntry>& table);

/// What an incremental launch needs of the region index of the merged arcs
/// `sorted`, without building the table.  `batch` holds the launch's sorted
/// arcs and at[k] the position of batch[k] in `sorted` (so `at` ascends).
/// Fills `keys`, ascending, with one entry per distinct first node of the
/// batch, which covers both endpoints of every new edge: its region, found
/// by galloping out from its batch arcs' positions, and its rank.  Fills
/// `counts` as build_regions does, in the same one pass over `sorted` that
/// ranks the keys, and returns the region count.
std::uint64_t resolve_batch_keys(std::span<const Edge> sorted,
                                 std::span<const Edge> batch,
                                 std::span<const std::uint64_t> at,
                                 std::span<std::uint64_t> counts,
                                 std::vector<KeyRegion>& keys);

/// Charges the kernel's region-index stage over `n` sorted records whose
/// tasklet blocks start counts[t] regions (one entry per tasklet): each
/// tasklet streams its block and reads the record before it, twice, first
/// counting its region starts, then writing their RegionEntry records at
/// offsets from an exclusive prefix over the counts (tasklet-0 work).
void charge_region_index(pim::Dpu& dpu, std::uint32_t buffer_edges,
                         std::uint64_t n,
                         std::span<const std::uint64_t> counts);

/// Shared WRAM cache of every k-th region-table entry.  A lookup binary
/// searches the cache with WRAM-speed instructions, leaving only ~log2(k)
/// MRAM probes inside the narrowed window — the real kernels keep exactly
/// such a sampled index resident to avoid DMA-bound searches.
///
/// The host does not run the search.  It resolves a lookup's rank and
/// region, then charges what the cached search issues, which depends on
/// the rank, the key's presence and the region count alone.  The full
/// kernel resolves through its copy of the region table and a rank bitmap
/// over the real node ids: one bit per id (a set bit is a region's node)
/// while the bitmap fits in the larger of kRankBitmapBytes and one word
/// per sorted record.  Each word stores the set bits before it, so a rank
/// is one word read plus a popcount, and an absent key reads no region
/// entry.  Ids whose span the bitmap would not fit are binary searched,
/// and so are remapped hub ids (remapped_id), among at most
/// MramLayout::kMaxRemap regions.  An incremental launch looks up
/// only its batch's endpoints, so it resolves through its key list
/// (resolve_batch_keys) and builds no table.  Reused across launches so
/// its host storage is allocated once per worker thread.
class RegionCache {
 public:
  static constexpr std::uint64_t kSlots = 2048;  // 16 KB of WRAM
  /// The rank bitmap keeps one bit per node id while it fits in the larger
  /// of this and one 64-bit word per sorted record.
  static constexpr std::uint64_t kRankBitmapBytes = 64 * 1024;

  /// Charges the cache build — each tasklet streams a block of the region
  /// table through a WRAM buffer and keeps the stride-aligned entries — and
  /// serves lookups from `regions` (the table the kernel wrote, indexing
  /// `n` records).  The cache is a statically allocated WRAM structure,
  /// budgeted in max_wram_buffer_edges().  With `enabled` false the cache
  /// stays empty and every lookup degrades to the full-table MRAM binary
  /// search — the pre-cache kernel behavior, kept as an ablation baseline.
  void build(pim::Dpu& dpu, std::uint32_t tasklets,
             std::uint32_t buffer_edges, std::span<const RegionEntry> regions,
             std::uint64_t n, bool enabled);

  /// The same charge for a table of `num_regions` regions, serving lookups
  /// from `keys` (sorted by node, distinct); looking up any other key is a
  /// logic error.
  void build(pim::Dpu& dpu, std::uint32_t tasklets,
             std::uint32_t buffer_edges, std::uint64_t num_regions,
             std::span<const KeyRegion> keys, bool enabled);

 private:
  friend Region find_region(const RegionCache& cache, NodeId key,
                            std::uint64_t& instr, DmaTally& dma);

  /// One word of the rank bitmap and the set bits of the words before it.
  struct RankWord {
    std::uint64_t bits = 0;
    std::uint32_t below = 0;
  };

  /// Sets the cache geometry for `num_regions` regions and charges the
  /// build.
  void charge_build(pim::Dpu& dpu, std::uint32_t tasklets,
                    std::uint32_t buffer_edges, std::uint64_t num_regions,
                    bool enabled);
  /// Builds the rank bitmap over the table's regions of real node ids.
  void index_nodes();
  /// Set bits of the rank bitmap below bit b.
  [[nodiscard]] std::uint64_t bits_below(std::uint64_t b) const noexcept {
    const RankWord& w = rank_[b / 64];
    const std::uint64_t mask = (std::uint64_t{1} << (b % 64)) - 1;
    return w.below + popcount64(w.bits & mask);
  }
  [[nodiscard]] bool bit(std::uint64_t b) const noexcept {
    return ((rank_[b / 64].bits >> (b % 64)) & 1) != 0;
  }

  /// Rank and region of `key`.  A real node id the bitmap covers resolves
  /// here; the key list and the binary searches are resolve_apart().
  [[nodiscard]] KeyRegion resolve(NodeId key) const {
    const NodeId b = key - base_;  // wraps past last_ for keys below base_
    if (!exact_ || b > last_) return resolve_apart(key);
    const std::uint64_t r = bits_below(b);
    if (!bit(b)) return {key, r, {}};
    return {key, r, region_at(r)};
  }
  [[nodiscard]] KeyRegion resolve_apart(NodeId key) const;
  /// Region r of the table (end = the next region's begin, or n).
  [[nodiscard]] Region region_at(std::uint64_t r) const noexcept {
    return {regions_[r].begin,
            r + 1 < regions_.size() ? regions_[r + 1].begin : n_};
  }

  /// Adds what the cached lookup of a key of rank `r` issues.
  void charge_lookup(std::uint64_t r, bool present, std::uint64_t& instr,
                     DmaTally& dma) const noexcept {
    using Cost = pim::KernelCostModel;
    constexpr std::uint64_t kEntry = sizeof(RegionEntry);
    const std::uint64_t num = num_regions_;

    // The WRAM cache search: an upper bound over the cached nodes, leaving
    // `below` of them at or below the key; the window spans the regions
    // between the last of those and the next.
    std::uint64_t w_lo = 0;
    std::uint64_t w_hi = num;
    if (slots_ != 0) {
      // below = ceil(at_or_below / stride_).
      const std::uint64_t at_or_below = r + (present ? 1 : 0);
      const std::uint64_t below =
          at_or_below == 0 ? 0 : div_stride(at_or_below - 1) + 1;
      instr += 3 * cache_steps(below);
      w_lo = below == 0 ? 0 : (below - 1) * stride_;
      w_hi = std::min(num, below * stride_ + 1);
    }

    if (w_hi - w_lo <= 6) {
      // Narrow window: one burst over the window plus the successor entry,
      // resolved in WRAM; a hit on the last fetched entry reads its
      // successor separately.
      const std::uint64_t fetch = std::min(w_hi - w_lo + 1, num - w_lo);
      dma.add(1, fetch * kEntry);
      instr += Cost::binary_search_step + fetch * 2;
      if (present && r - w_lo + 1 == fetch && r + 1 < num) dma.add(1, kEntry);
    } else {
      // Wide window: an MRAM binary search of 8-byte probes, then entries r
      // and r+1 in one burst (region end = next begin).
      const std::uint64_t steps = search_steps(w_hi - w_lo, r - w_lo);
      dma.add(steps, steps * kEntry);
      instr += steps * Cost::binary_search_step;
      if (r >= num) return;
      dma.add(1, (r + 1 < num ? 2 : 1) * kEntry);
      instr += Cost::binary_search_step;
    }
  }
  /// x / stride_ for x < 2^32, which holds for every x the lookups divide:
  /// the table indexes 32-bit record positions.
  [[nodiscard]] std::uint64_t div_stride(std::uint64_t x) const noexcept {
    if (stride_ == 1) return x;
    __extension__ typedef unsigned __int128 U128;
    return static_cast<std::uint64_t>((static_cast<U128>(x) * stride_inv_) >>
                                      64);
  }
  /// Probes of the WRAM cache search that leaves `below` cached entries
  /// below the key's window.
  [[nodiscard]] std::uint64_t cache_steps(std::uint64_t below) const noexcept {
    return steps_.empty() ? search_steps(slots_, below) : steps_[below];
  }

  std::uint64_t num_regions_ = 0;
  std::uint64_t stride_ = 1;
  /// ceil(2^64 / stride_) when stride_ > 1, so that x / stride_ is the
  /// high word of x * stride_inv_ for every x below 2^32.
  std::uint64_t stride_inv_ = 0;
  std::uint64_t slots_ = 0;  ///< cached entries; 0 = uncached searches
  std::span<const KeyRegion> keys_;
  bool keyed_ = false;  ///< lookups resolve through keys_, not the table
  std::span<const RegionEntry> regions_;
  std::uint64_t n_ = 0;
  // Rank bitmap over the first dense_ regions, those of real node ids
  // base_..top_ (empty when every region is a remapped hub's or the ids
  // span too many words): bit b is set when a region's node - base_ is b.
  // Keys above top_ search the rest.
  std::vector<RankWord> rank_;
  std::uint64_t dense_ = 0;
  NodeId base_ = 0;
  NodeId top_ = 0;
  NodeId last_ = 0;  ///< top_ - base_
  bool exact_ = false;  ///< rank_ holds the bitmap
  std::vector<std::uint8_t> steps_;  ///< cache_steps table, for table lookups
};

/// Region bounds of `key` (end = next region's begin, or n); not-found
/// regions return found() == false.  Adds what the cached lookup issues to
/// `instr` and `dma`: the WRAM cache search, then one burst over a narrow
/// window (plus the successor entry when it falls outside) or a binary
/// search of 8-byte MRAM probes over a wide one and a 2-entry read at the
/// hit.
[[nodiscard]] inline Region find_region(const RegionCache& cache, NodeId key,
                                        std::uint64_t& instr, DmaTally& dma) {
  const KeyRegion k = cache.resolve(key);
  cache.charge_lookup(k.rank, k.region.found(), instr, dma);
  return k.region;
}

// ---------------------------------------------------------------------------
// Adaptive intersection
// ---------------------------------------------------------------------------

/// Auto-policy crossover margin: gallop when its modeled cost times this
/// factor undercuts the linear merge.  It absorbs the probe's higher
/// per-step constant and DMA latency.
inline constexpr std::uint64_t kGallopMargin = 3;

/// True when this intersection should gallop: forced by policy, or (auto)
/// when binary-searching each small-side element into the large side
/// undercuts the linear merge by the factor kGallopMargin under the block
/// search's cost model.
[[nodiscard]] bool choose_gallop(IntersectPolicy policy,
                                 std::uint64_t small_size,
                                 std::uint64_t large_size) noexcept;

/// Position of the first record in [r.begin, r.end) of `sorted` with .v >=
/// w, found the way the kernel's block search finds it: each probe fetches
/// an 8-edge block (one 64-byte transfer), resolving three levels per DMA
/// burst since the fixed setup cost dominates tiny reads; a final linear
/// resolve fetches the <= 8 remaining entries in one transfer.  The search
/// runs on the host copy; its transfers go to `dma`, its probes to `tally`
/// and its instructions to `instr`.
[[nodiscard]] std::uint64_t gallop_lower_bound(std::span<const Edge> sorted,
                                               const Region& r, NodeId w,
                                               IntersectTally& tally,
                                               std::uint64_t& instr,
                                               DmaTally& dma);

/// Intersects regions `a` and `b` of `sorted` (the host copy of the sorted
/// array) by second endpoint, invoking `on_match(index_1, record_1,
/// index_2, record_2)` for every common .v (indices are absolute positions
/// in the sorted array; the two sides may arrive in either order).
/// Strategy per `policy`:
///
///  * merge — stream both regions through `buffer`-edge WRAM buffers and
///    linearly co-advance (KernelCostModel::count_merge_step per pick),
///  * gallop — stream the smaller region and binary-search each of its
///    elements into the larger one (hub-incident edges pair a tiny region
///    with a huge one, where a merge would walk the hub's full adjacency:
///    small * log(large) beats small + large).
///
/// The host walks the copy and adds to `dma` what the streams issued: a
/// merge side that stopped at index i had returned min(i + 1, end) - begin
/// records (up to its cursor, plus the one it held when the other side ran
/// out); the galloped side is read whole.  The match set is identical
/// under every policy, so counts built on top are bit-identical; only the
/// charged work differs.
template <typename OnMatch>
void intersect_regions(IntersectPolicy policy, std::span<const Edge> sorted,
                       const Region& a, const Region& b, std::uint64_t buffer,
                       IntersectTally& tally, std::uint64_t& instr,
                       DmaTally& dma, OnMatch&& on_match) {
  using Cost = pim::KernelCostModel;
  const Region& small = a.size() <= b.size() ? a : b;
  const Region& large = a.size() <= b.size() ? b : a;
  // An empty side means no work under either strategy; skip it before the
  // tally so the merge/gallop split counts only intersections that ran.
  if (small.size() == 0) return;

  if (choose_gallop(policy, small.size(), large.size())) {
    ++tally.gallop_isects;
    dma.add_edge_stream(small.size(), small.size(), buffer);
    for (std::uint64_t i = small.begin; i < small.end; ++i) {
      const NodeId w = sorted[i].v;
      const std::uint64_t lo =
          gallop_lower_bound(sorted, large, w, tally, instr, dma);
      instr += Cost::loop_overhead;
      if (lo >= large.end) continue;
      // The match check reads the record at the bound.
      dma.add(1, sizeof(Edge));
      ++tally.gallop_probes;
      instr += Cost::binary_search_step;
      if (sorted[lo].v != w) continue;
      on_match(i, sorted[i], lo, sorted[lo]);
    }
    return;
  }

  ++tally.merge_isects;
  std::uint64_t i = a.begin;
  std::uint64_t j = b.begin;
  std::uint64_t picks = 0;
  while (i < a.end && j < b.end) {
    ++picks;
    const NodeId va = sorted[i].v;
    const NodeId vb = sorted[j].v;
    if (va == vb) on_match(i, sorted[i], j, sorted[j]);
    i += va <= vb ? 1 : 0;
    j += vb <= va ? 1 : 0;
  }
  instr += picks * Cost::count_merge_step;
  tally.merge_picks += picks;
  dma.add_edge_stream(a.size(), std::min(i + 1, a.end) - a.begin, buffer);
  dma.add_edge_stream(b.size(), std::min(j + 1, b.end) - b.begin, buffer);
}

}  // namespace pimtc::tc
