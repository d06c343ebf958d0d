// Shared adaptive-intersection machinery of the counting kernels (paper
// Section 3.4, plus the GraphChallenge-style adaptive merge/gallop split).
//
// Both the full (static) and the incremental kernel reduce to the same
// inner problem: given the sorted record array and its per-first-node
// region index, intersect two sorted regions by second endpoint.  This
// module owns everything that problem needs so the two kernels cannot
// diverge again:
//
//  * WRAM-buffered MRAM stream readers/writers (the DMA discipline every
//    phase shares), and `charge_stream`, their closed-form charge for the
//    stages the host executes in bulk,
//  * `search_steps`, the probe count of the kernels' lower-bound loop as a
//    function of (size, rank), so a search the host resolves another way
//    is charged exactly what the loop would have issued,
//  * the sampled WRAM `RegionCache` + `find_region` lookup that keeps the
//    per-query MRAM probe chain at ~log2(stride) instead of log2(regions);
//    the host resolves the lookup through its own copy of the region table
//    and charges the cached search in closed form,
//  * the adaptive `intersect_regions` primitive: linear merge or block-
//    galloping binary search, selected per intersection by a cost model
//    (`IntersectPolicy::kAuto`) or forced by policy — the match set, and
//    therefore every count, is identical under any policy,
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
// WRAM-buffered MRAM streams
// ---------------------------------------------------------------------------

/// Buffered sequential MRAM reader for trivially copyable records: models a
/// tasklet streaming a region of the bank through a WRAM buffer.  DMA is
/// charged per refill.
template <typename T>
class StreamReader {
 public:
  StreamReader(pim::Tasklet& t, std::span<T> buf, std::uint64_t base,
               std::uint64_t begin_idx, std::uint64_t end_idx)
      : t_(&t),
        buf_(buf),
        base_(base),
        next_fetch_(begin_idx),
        buf_base_(begin_idx),
        end_(end_idx) {}

  bool next(T& out) {
    if (cursor_ >= filled_) {
      if (next_fetch_ >= end_) return false;
      refill();
    }
    out = buf_[cursor_++];
    return true;
  }

  /// Absolute index (within the MRAM array) of the record most recently
  /// returned by next().
  [[nodiscard]] std::uint64_t last_index() const noexcept {
    return buf_base_ + cursor_ - 1;
  }

 private:
  void refill() {
    const std::uint64_t count =
        std::min<std::uint64_t>(buf_.size(), end_ - next_fetch_);
    t_->mram_read(base_ + next_fetch_ * sizeof(T), buf_.data(),
                  count * sizeof(T));
    buf_base_ = next_fetch_;
    next_fetch_ += count;
    filled_ = static_cast<std::size_t>(count);
    cursor_ = 0;
  }

  pim::Tasklet* t_;
  std::span<T> buf_;
  std::uint64_t base_;
  std::uint64_t next_fetch_;
  std::uint64_t buf_base_;
  std::uint64_t end_;
  std::size_t cursor_ = 0;
  std::size_t filled_ = 0;
};

using EdgeReader = StreamReader<Edge>;

/// Buffered sequential MRAM writer.  The kernels' writing stages run on the
/// host and charge what this writer issues through charge_stream below;
/// kernel_test checks the two against each other.
template <typename T>
class StreamWriter {
 public:
  StreamWriter(pim::Tasklet& t, std::span<T> buf, std::uint64_t base,
               std::uint64_t begin_idx)
      : t_(&t), buf_(buf), base_(base), pos_(begin_idx) {}

  void put(const T& value) {
    buf_[cursor_++] = value;
    if (cursor_ == buf_.size()) flush();
  }

  void flush() {
    if (cursor_ == 0) return;
    t_->mram_write(base_ + pos_ * sizeof(T), buf_.data(), cursor_ * sizeof(T));
    pos_ += cursor_;
    cursor_ = 0;
  }

 private:
  pim::Tasklet* t_;
  std::span<T> buf_;
  std::uint64_t base_;
  std::uint64_t pos_;
  std::size_t cursor_ = 0;
};

/// Charges to `t` the DMA a StreamReader<T> or StreamWriter<T> issues for
/// `records` records through a `buffer`-record WRAM buffer: one transfer
/// per full buffer plus one for the remainder, each rounded up to the DMA
/// alignment.
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
// Region lookup
// ---------------------------------------------------------------------------

/// A region [begin, end) of the sorted buffer (all records sharing one
/// first endpoint).
struct Region {
  std::uint64_t begin = ~0ull;
  std::uint64_t end = ~0ull;
  [[nodiscard]] bool found() const noexcept { return begin != ~0ull; }
  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
};

/// DMA a tasklet issued, tallied on the host and charged once per phase.
struct DmaTally {
  std::uint64_t transfers = 0;
  std::uint64_t bytes = 0;  ///< aligned

  void add(std::uint64_t n, std::uint64_t aligned_bytes) noexcept {
    transfers += n;
    bytes += aligned_bytes;
  }
};

/// Shared WRAM cache of every k-th region-table entry.  A lookup binary
/// searches the cache with WRAM-speed instructions, leaving only ~log2(k)
/// MRAM probes inside the narrowed window — the real kernels keep exactly
/// such a sampled index resident to avoid DMA-bound searches.
///
/// The host runs the lookup on its own copy of the region table (the one
/// the region-index stage just wrote) and charges what the cached search
/// would have issued.  It finds the first region at or above a key in
/// O(1) expected time through a bucketed node index when the kernel's
/// lookups outnumber its regions, and by binary search over the copy
/// otherwise: an incremental launch does a few dozen lookups against
/// thousands of regions, where building the index would cost more than it
/// saves.  Reused across launches so its host storage is allocated once
/// per worker thread.
class RegionCache {
 public:
  static constexpr std::uint64_t kSlots = 2048;  // 16 KB of WRAM

  /// Charges the cache build — each tasklet streams a block of the region
  /// table through a WRAM buffer and keeps the stride-aligned entries — and
  /// prepares the host lookup over `regions` (the table the kernel wrote,
  /// indexing `n` records).  The cache is a statically allocated WRAM
  /// structure, budgeted in max_wram_buffer_edges().  With `enabled` false
  /// the cache stays empty and every lookup degrades to the full-table MRAM
  /// binary search — the pre-cache kernel behavior, kept as an ablation
  /// baseline.  `indexed` selects the bucketed node index.
  void build(pim::Dpu& dpu, std::uint32_t tasklets,
             std::uint32_t buffer_edges, std::span<const RegionEntry> regions,
             std::uint64_t n, bool enabled, bool indexed);

 private:
  friend Region find_region(const RegionCache& cache, NodeId key,
                            std::uint64_t& instr, DmaTally& dma);

  /// Index of the first region whose node is >= key.
  [[nodiscard]] std::uint64_t rank_of(NodeId key) const noexcept;
  /// Probes of the WRAM cache search that leaves `below` cached entries
  /// below the key's window.
  [[nodiscard]] std::uint64_t cache_steps(std::uint64_t below) const noexcept {
    return steps_.empty() ? search_steps(slots_, below) : steps_[below];
  }

  std::span<const RegionEntry> regions_;
  std::uint64_t n_ = 0;
  std::uint64_t stride_ = 1;
  std::uint64_t slots_ = 0;  ///< cached entries; 0 = uncached searches
  // Bucketed node index (empty = binary search): bucket b holds the first
  // region whose (node - base_) >> shift_ is >= b.
  std::vector<std::uint32_t> bucket_;
  NodeId base_ = 0;
  unsigned shift_ = 0;
  std::vector<std::uint8_t> steps_;  ///< cache_steps table, with the index
};

/// Region bounds of `key` (end = next region's begin, or n); not-found
/// regions return found() == false.  Adds what the cached lookup issues to
/// `instr` and `dma`: the WRAM cache search, then one burst over a narrow
/// window (plus the successor entry when it falls outside) or a binary
/// search of 8-byte MRAM probes over a wide one and a 2-entry read at the
/// hit.
[[nodiscard]] Region find_region(const RegionCache& cache, NodeId key,
                                 std::uint64_t& instr, DmaTally& dma);

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

/// Position of the first record in [r.begin, r.end) with .v >= w.  Each
/// probe fetches an 8-edge block, resolving three levels per DMA burst
/// (the fixed setup cost dominates tiny reads); a final linear resolve
/// handles the <= 8 remaining entries.  Probes are counted into `tally`,
/// instructions into `instr`.
[[nodiscard]] std::uint64_t gallop_lower_bound(pim::Tasklet& t,
                                               std::uint64_t sorted,
                                               const Region& r, NodeId w,
                                               IntersectTally& tally,
                                               std::uint64_t& instr);

/// Intersects regions `a` and `b` of the sorted array at `sorted` by second
/// endpoint, invoking `on_match(index_1, record_1, index_2, record_2)` for
/// every common .v (indices are absolute positions in the sorted array; the
/// two sides may arrive in either order).  Strategy per `policy`:
///
///  * merge — stream both regions through `buf_a`/`buf_b` and linearly
///    co-advance (KernelCostModel::count_merge_step per pick),
///  * gallop — stream the smaller region through `buf_a` and binary-search
///    each of its elements into the larger one (hub-incident edges pair a
///    tiny region with a huge one, where a merge would walk the hub's full
///    adjacency: small * log(large) beats small + large).
///
/// The match set is identical under every policy, so counts built on top
/// are bit-identical; only the charged work differs.
template <typename OnMatch>
void intersect_regions(pim::Tasklet& t, IntersectPolicy policy,
                       std::uint64_t sorted, const Region& a, const Region& b,
                       std::span<Edge> buf_a, std::span<Edge> buf_b,
                       IntersectTally& tally, std::uint64_t& instr,
                       OnMatch&& on_match) {
  using Cost = pim::KernelCostModel;
  const Region& small = a.size() <= b.size() ? a : b;
  const Region& large = a.size() <= b.size() ? b : a;
  // An empty side means no work under either strategy; skip it before the
  // tally so the merge/gallop split counts only intersections that ran.
  if (small.size() == 0) return;

  if (choose_gallop(policy, small.size(), large.size())) {
    ++tally.gallop_isects;
    EdgeReader stream_s(t, buf_a, sorted, small.begin, small.end);
    Edge es;
    while (stream_s.next(es)) {
      const NodeId w = es.v;
      const std::uint64_t lo =
          gallop_lower_bound(t, sorted, large, w, tally, instr);
      instr += Cost::loop_overhead;
      if (lo >= large.end) continue;
      const Edge m = t.mram_read_t<Edge>(sorted + lo * sizeof(Edge));
      ++tally.gallop_probes;
      instr += Cost::binary_search_step;
      if (m.v != w) continue;
      on_match(stream_s.last_index(), es, lo, m);
    }
    return;
  }

  ++tally.merge_isects;
  EdgeReader stream_a(t, buf_a, sorted, a.begin, a.end);
  EdgeReader stream_b(t, buf_b, sorted, b.begin, b.end);
  Edge ea;
  Edge eb;
  bool has_a = stream_a.next(ea);
  bool has_b = stream_b.next(eb);
  while (has_a && has_b) {
    instr += Cost::count_merge_step;
    ++tally.merge_picks;
    if (ea.v == eb.v) {
      on_match(stream_a.last_index(), ea, stream_b.last_index(), eb);
      has_a = stream_a.next(ea);
      has_b = stream_b.next(eb);
    } else if (ea.v < eb.v) {
      has_a = stream_a.next(ea);
    } else {
      has_b = stream_b.next(eb);
    }
  }
}

}  // namespace pimtc::tc
