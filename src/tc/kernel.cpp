#include "tc/kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/math_util.hpp"
#include "pim/config.hpp"
#include "tc/intersect.hpp"

namespace pimtc::tc {
namespace {

using pim::Dpu;
using pim::Tasklet;
using Cost = pim::KernelCostModel;

// ---------------------------------------------------------------------------
// High-degree remap table (WRAM open-addressing hash, Section 3.5)
// ---------------------------------------------------------------------------

/// One slot of the WRAM-resident remap hash table; kInvalidNode = empty.
struct RemapEntry {
  NodeId from;
  NodeId to;
};

class RemapTable {
 public:
  /// Builds the table (tasklet-0 boot work).  The table models a
  /// *statically allocated* WRAM structure that lives for the whole kernel
  /// — unlike the per-phase stream buffers — so it owns its storage here;
  /// its WRAM footprint is budgeted in max_wram_buffer_edges().
  /// `num_remap` may be 0, yielding a no-op table.
  RemapTable(Dpu& dpu, std::uint32_t num_remap) {
    if (num_remap == 0) return;
    slots_ = 16;
    while (slots_ < 4ull * num_remap) slots_ *= 2;
    storage_.assign(slots_, RemapEntry{kInvalidNode, kInvalidNode});
    table_ = storage_;

    dpu.parallel(1, [&](Tasklet& t) {
      std::vector<NodeId> by_rank(num_remap);
      t.mram_read(MramLayout::kRemapOffset, by_rank.data(),
                  by_rank.size() * sizeof(NodeId));
      for (std::uint32_t r = 0; r < num_remap; ++r) {
        std::uint64_t slot = mix64(by_rank[r]) & (slots_ - 1);
        while (table_[slot].from != kInvalidNode) {
          slot = (slot + 1) & (slots_ - 1);
        }
        table_[slot] = RemapEntry{by_rank[r], remapped_id(r)};
      }
      t.instr((num_remap + slots_) * Cost::remap_lookup);
    });
  }

  [[nodiscard]] bool empty() const noexcept { return slots_ == 0; }

  /// Maps `node`, accumulating probe count into `probes` (the caller
  /// charges remap_lookup instructions per probe).
  [[nodiscard]] NodeId lookup(NodeId node, std::uint64_t& probes) const {
    if (slots_ == 0) return node;
    std::uint64_t slot = mix64(node) & (slots_ - 1);
    for (;;) {
      ++probes;
      const RemapEntry e = table_[slot];
      if (e.from == node) return e.to;
      if (e.from == kInvalidNode) return node;
      slot = (slot + 1) & (slots_ - 1);
    }
  }

 private:
  std::vector<RemapEntry> storage_;
  std::span<RemapEntry> table_{};
  std::uint64_t slots_ = 0;
};

// ---------------------------------------------------------------------------
// Host execution
// ---------------------------------------------------------------------------
//
// Every stage runs on the host.  Each takes its input as a host copy (read
// from MRAM once, uncharged, or handed on by the stage before) and leaves
// its output in one for the next stage; only state that outlives the
// launch (S* and the control block) goes back to MRAM.  Each keeps every
// WRAM allocation of its WRAM-streamed form and charges each tasklet in
// closed form the DMA transfers, bytes and instructions that form issued:
// charge_stream or DmaTally::add_edge_stream per stream, the per-record or
// per-chunk instructions, and every data-dependent search replayed from
// ranks with search_steps.  The device-state goldens (tests/golden) pin
// the charges and the live state.

/// One record of the comparison sort: an edge's key and its run tag.
/// Records equal in both are interchangeable, so sorting by (key, tag)
/// gives the stable order.
struct SortRecord {
  std::uint64_t key;
  std::uint64_t tag;
};

/// Host memory the stages reuse.  One bank runs at a time on a worker
/// thread, so each thread allocates these once, at the size of the largest
/// bank it has run.  The sort replay holds 18 bytes per record: the keys
/// and the run tags, each twice for the radix sort's ping-pong.
struct HostScratch {
  std::vector<Edge> work;     ///< the array being copied, sorted, indexed
  std::vector<Edge> merged;   ///< S* read to its back, the batch merged in
  std::vector<std::uint64_t> at;  ///< the batch arcs' merged positions
  std::vector<KeyRegion> keys;    ///< an incremental launch's lookups
  std::vector<std::uint64_t> sort_keys[2];
  std::vector<std::uint8_t> tags[2];
  std::vector<SortRecord> records;  ///< the comparison sort's input
  std::vector<std::uint32_t> histogram;
  std::vector<std::uint32_t> checkpoints;
  std::vector<std::uint64_t> split_less;
  std::vector<RegionEntry> regions;  ///< grow-only; a launch uses a prefix
  RegionCache cache;
};

HostScratch& host_scratch() {
  thread_local HostScratch scratch;
  return scratch;
}

// ---------------------------------------------------------------------------
// Sort replay
// ---------------------------------------------------------------------------
//
// The device sorts WRAM chunks and merges runs pairwise, taking the left
// run's record on a tie, so its order is a stable sort's.  The host sorts
// once and gives each record a 1-byte run tag: its run at the first
// co-partitioned pass, of which there are at most `tasklets`.  Its run at
// every later pass is the tag shifted right by the passes since, so a
// split rank (how many right-run records order below a left run's split
// record) is a count of tags.

/// One merge pass: runs of `width` records merged pairwise, `ways`
/// tasklets per pair; ways > 1 co-partitions a pair by merge-path splits.
struct MergePass {
  std::uint64_t width;
  std::uint64_t pairs;
  std::uint32_t ways;
};

MergePass merge_pass(std::uint64_t n, std::uint64_t width,
                     std::uint32_t tasklets) {
  const std::uint64_t pairs = ceil_div(n, width * 2);
  return {width, pairs,
          static_cast<std::uint32_t>(
              std::max<std::uint64_t>(1, tasklets / pairs))};
}

constexpr std::uint32_t kMaxRuns = pim::PimSystemConfig::max_tasklets;
static_assert(kMaxRuns <= 256, "run tags are bytes");

/// LSD radix digits are at most this wide: 2^11 buckets of 4 bytes stay
/// in L1 and a 32-bit half takes at most 3 passes.
constexpr unsigned kRadixBits = 11;
/// Records between two checkpoints of the per-run counts.
constexpr std::uint64_t kCheckpointRecords = 64;

/// Tags records [0, n) with their run, position / `run`.
void fill_tags(std::uint8_t* tags, std::uint64_t n, std::uint64_t run) {
  for (std::uint64_t begin = 0; begin < n; begin += run) {
    std::fill(tags + begin, tags + std::min(n, begin + run),
              static_cast<std::uint8_t>(begin / run));
  }
}

/// Sorts `data` by a comparison sort on (key, tag), tag = position /
/// `run`, and returns the sorted tags.
std::span<const std::uint8_t> comparison_sort(std::vector<Edge>& data,
                                              std::uint64_t run,
                                              HostScratch& s) {
  const std::uint64_t n = data.size();
  std::vector<std::uint8_t>& tags = s.tags[0];
  tags.resize(n);
  fill_tags(tags.data(), n, run);
  s.records.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    s.records[i] = {edge_key(data[i]), tags[i]};
  }
  std::sort(s.records.begin(), s.records.end(),
            [](const SortRecord& a, const SortRecord& b) {
              return a.key != b.key ? a.key < b.key : a.tag < b.tag;
            });
  for (std::uint64_t i = 0; i < n; ++i) {
    data[i] = edge_from_key(s.records[i].key);
    tags[i] = static_cast<std::uint8_t>(s.records[i].tag);
  }
  return tags;
}

/// Sorts `data` by a stable LSD radix sort of its keys that carries each
/// record's tag, position / `run`, and returns the sorted tags.  The
/// digits cover only the bits that vary within each 32-bit half, so a
/// half that is constant over `data` costs no pass.
std::span<const std::uint8_t> radix_sort(std::vector<Edge>& data,
                                         std::uint64_t run, HostScratch& s) {
  const std::uint64_t n = data.size();
  for (int b = 0; b < 2; ++b) {
    s.sort_keys[b].resize(n);
    s.tags[b].resize(n);
  }
  std::uint64_t* src = s.sort_keys[0].data();
  std::uint64_t* dst = s.sort_keys[1].data();
  std::uint8_t* src_tag = s.tags[0].data();
  std::uint8_t* dst_tag = s.tags[1].data();
  std::uint64_t any = 0;
  std::uint64_t all = ~0ull;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t k = edge_key(data[i]);
    src[i] = k;
    any |= k;
    all &= k;
  }
  fill_tags(src_tag, n, run);

  // The digit plan, least significant first: each half's varying span
  // split into equal digits of at most kRadixBits bits.
  struct Digit {
    unsigned shift;
    std::uint64_t mask;
    std::uint64_t offset;  ///< of its histogram in s.histogram
  };
  std::array<Digit, 2 * ceil_div(32, kRadixBits)> digits{};
  unsigned num_digits = 0;
  std::uint64_t buckets = 0;
  const std::uint64_t varying = any ^ all;
  for (unsigned half = 0; half < 64; half += 32) {
    const auto bits = static_cast<std::uint32_t>(varying >> half);
    if (bits == 0) continue;
    const unsigned low = static_cast<unsigned>(std::countr_zero(bits));
    const unsigned span = static_cast<unsigned>(std::bit_width(bits)) - low;
    const auto width = static_cast<unsigned>(
        ceil_div(span, ceil_div(span, kRadixBits)));
    for (unsigned at = 0; at < span; at += width) {
      const unsigned w = std::min(width, span - at);
      digits[num_digits++] = {half + low + at, (1ull << w) - 1, buckets};
      buckets += 1ull << w;
    }
  }
  std::vector<std::uint32_t>& hist = s.histogram;
  hist.assign(buckets, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (unsigned d = 0; d < num_digits; ++d) {
      const Digit& dig = digits[d];
      ++hist[dig.offset + ((src[i] >> dig.shift) & dig.mask)];
    }
  }
  for (unsigned d = 0; d < num_digits; ++d) {
    const Digit dig = digits[d];
    std::uint32_t* h = hist.data() + dig.offset;
    if (h[(src[0] >> dig.shift) & dig.mask] == n) continue;  // constant digit
    std::uint32_t sum = 0;
    for (std::uint64_t b = 0; b <= dig.mask; ++b) {
      const std::uint32_t count = h[b];
      h[b] = sum;
      sum += count;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t at = h[(src[i] >> dig.shift) & dig.mask]++;
      dst[at] = src[i];
      dst_tag[at] = src_tag[i];
    }
    std::swap(src, dst);
    std::swap(src_tag, dst_tag);
  }
  for (std::uint64_t i = 0; i < n; ++i) data[i] = edge_from_key(src[i]);
  return {src_tag, n};
}

/// The split ranks of one co-partitioned pass, `shift` passes after the
/// first, by one sweep over the sorted tags: tasklet `way` of a pair
/// splits the left run at lo + way * nl / ways, and for every split
/// strictly inside its left run split_less[pair * ways + way] receives how
/// many right-run records order below the split record, the rank its
/// lower-bound search returns.  Right-run records equal to a left-run key
/// sort after it, as the stable order keeps them.
void sweep_splits(std::span<const std::uint8_t> tags, const MergePass& mp,
                  unsigned shift, std::uint64_t* split_less) {
  constexpr std::uint64_t kNone = ~0ull;
  const std::uint64_t n = tags.size();
  // Per run: records seen so far, and the rank of its next split (kNone
  // for right runs and for left runs with no split left).
  std::array<std::uint64_t, kMaxRuns> seen{};
  std::array<std::uint64_t, kMaxRuns> target;
  target.fill(kNone);
  std::array<std::uint32_t, kMaxRuns / 2> next_way{};
  // The first split of pair `pr` at or after way `w`; one at the run's
  // first record needs no search and one at its end is never reached.
  const auto seek = [&](std::uint64_t pr, std::uint32_t w) {
    const std::uint64_t lo = pr * mp.width * 2;
    const std::uint64_t nl = std::min(lo + mp.width, n) - lo;
    for (; w < mp.ways; ++w) {
      const std::uint64_t rank = w * nl / mp.ways;
      if (rank >= nl) break;
      if (rank > 0) {
        next_way[pr] = w;
        target[2 * pr] = rank;
        return;
      }
    }
    target[2 * pr] = kNone;
  };
  for (std::uint64_t pr = 0; pr < mp.pairs; ++pr) seek(pr, 1);
  for (const std::uint8_t tag : tags) {
    const std::uint64_t run = tag >> shift;
    while (target[run] == seen[run]) {
      const std::uint64_t pr = run >> 1;
      split_less[pr * mp.ways + next_way[pr]] = seen[run + 1];
      seek(pr, next_way[pr] + 1);
    }
    ++seen[run];
  }
}

/// Stores in s.checkpoints, for every kCheckpointRecords-th sorted record
/// k·kCheckpointRecords ≤ n, how many records before it carry a tag below
/// t, for t = 0..runs (row k, column t).
void build_checkpoints(std::span<const std::uint8_t> tags, std::uint32_t runs,
                       HostScratch& s) {
  const std::uint64_t n = tags.size();
  const std::uint64_t rows = n / kCheckpointRecords + 1;
  s.checkpoints.resize(rows * (runs + 1));
  std::array<std::uint32_t, kMaxRuns> count{};
  std::uint32_t* row = s.checkpoints.data();
  for (std::uint64_t k = 0; k < rows; ++k, row += runs + 1) {
    std::uint32_t below = 0;
    for (std::uint32_t t = 0; t < runs; ++t) {
      row[t] = below;
      below += count[t];
    }
    row[runs] = below;
    const std::uint64_t end = std::min(n, (k + 1) * kCheckpointRecords);
    for (std::uint64_t i = k * kCheckpointRecords; i < end; ++i) {
      ++count[tags[i]];
    }
  }
}

/// sweep_splits' ranks from the checkpoints: a binary search for the last
/// checkpoint with at most `rank` left-run records before it, then a scan
/// of the at most kCheckpointRecords tags to the split record.
void checkpoint_splits(std::span<const std::uint8_t> tags, std::uint32_t runs,
                       const MergePass& mp, unsigned shift,
                       const HostScratch& s, std::uint64_t* split_less) {
  const std::uint64_t n = tags.size();
  const std::uint64_t rows = n / kCheckpointRecords + 1;
  const std::uint32_t* cp = s.checkpoints.data();
  const std::uint64_t stride = runs + 1;
  for (std::uint64_t pr = 0; pr < mp.pairs; ++pr) {
    // The pair's runs as tag ranges: left [l0, r0), right [r0, r1).
    const auto tag_at = [&](std::uint64_t run) {
      return static_cast<std::uint32_t>(
          std::min<std::uint64_t>(runs, run << shift));
    };
    const std::uint32_t l0 = tag_at(2 * pr);
    const std::uint32_t r0 = tag_at(2 * pr + 1);
    const std::uint32_t r1 = tag_at(2 * pr + 2);
    const auto in_left = [&](std::uint64_t k) {
      return cp[k * stride + r0] - cp[k * stride + l0];
    };
    const std::uint64_t lo = pr * mp.width * 2;
    const std::uint64_t nl = std::min(lo + mp.width, n) - lo;
    std::uint64_t k = 0;  // splits ascend, so each search starts at the last
    for (std::uint32_t w = 1; w < mp.ways; ++w) {
      const std::uint64_t rank = w * nl / mp.ways;
      if (rank >= nl) break;
      if (rank == 0) continue;
      std::uint64_t hi = rows;
      while (hi - k > 1) {
        const std::uint64_t mid = k + (hi - k) / 2;
        if (in_left(mid) <= rank) {
          k = mid;
        } else {
          hi = mid;
        }
      }
      std::uint64_t left = in_left(k);
      std::uint64_t right = cp[k * stride + r1] - cp[k * stride + r0];
      for (std::uint64_t i = k * kCheckpointRecords;; ++i) {
        const std::uint32_t t = tags[i];
        if (t - l0 < r0 - l0) {
          if (left == rank) break;
          ++left;
        } else if (t - r0 < r1 - r0) {
          ++right;
        }
      }
      split_less[pr * mp.ways + w] = right;
    }
  }
}

/// Copies edges [begin, end) of the raw sample into `out`, applying the
/// remap.  Canonical mode emits one u<v record per edge; arc mode emits
/// both orientations (2 records per edge, for the S* pipeline).
void copy_remap(Dpu& dpu, const KernelParams& p, const RemapTable& remap,
                std::uint64_t begin, std::uint64_t end, bool arcs,
                std::vector<Edge>& out) {
  const std::uint64_t n = end - begin;
  const std::uint64_t per_edge = arcs ? 2 : 1;
  out.resize(n * per_edge);
  // Arc mode reads into the upper half and expands forward: record i's two
  // arcs land at 2i and 2i+1, below every unread input record n+j, j > i.
  Edge* in = out.data() + (per_edge - 1) * n;
  dpu.mram().read(MramLayout::sample_offset() + begin * sizeof(Edge), in,
                  n * sizeof(Edge));
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    (void)dpu.wram().alloc<Edge>(p.buffer_edges);
    (void)dpu.wram().alloc<Edge>(p.buffer_edges);
    std::uint64_t probes = 0;
    for (std::uint64_t i = blk.begin; i < blk.end; ++i) {
      Edge e = in[i];
      if (!remap.empty()) {
        e.u = remap.lookup(e.u, probes);
        e.v = remap.lookup(e.v, probes);
      }
      const Edge c = e.canonical();
      if (arcs) {
        out[2 * i] = c;
        out[2 * i + 1] = c.reversed();
      } else {
        out[i] = c;
      }
    }
    const std::uint64_t len = blk.end - blk.begin;
    charge_stream<Edge>(t, len, p.buffer_edges);             // reader
    charge_stream<Edge>(t, len * per_edge, p.buffer_edges);  // writer
    t.instr(len * (Cost::edge_copy + Cost::loop_overhead) +
            probes * Cost::remap_lookup);
  });
}

/// External merge sort of the records in `data`, which it leaves sorted.
/// Resets WRAM.
///
/// Charged as the kernel runs it: WRAM chunk sorts, then ping-pong merge
/// passes of doubling run width between two MRAM scratch buffers.  Chunk
/// size adapts downward for small inputs so every tasklet has work (an
/// idle pipeline issues one instruction per 11 cycles per tasklet), and
/// merge passes with fewer runs than tasklets are co-partitioned with
/// merge-path splitting so the last passes stay parallel.  The host sorts
/// once (replay_sort), which also ranks every split.
void external_sort(Dpu& dpu, const KernelParams& p, std::vector<Edge>& data,
                   HostScratch& s) {
  const std::uint64_t n = data.size();
  if (n <= 1) return;
  const std::uint64_t tasklets = p.tasklets;
  const std::uint64_t buffer = p.buffer_edges;

  // Stage 1: sort WRAM-resident chunks in place.  Every tasklet holds a
  // chunk buffer simultaneously, so chunk size is bounded by WRAM/tasklets
  // (half the arena, leaving room for stack/locals like a real kernel).
  dpu.wram().reset();
  const std::uint64_t max_chunk = std::max<std::uint64_t>(
      16, dpu.wram().capacity() / (2ull * tasklets * sizeof(Edge)));
  const std::uint64_t chunk =
      std::max<std::uint64_t>(8, std::min(max_chunk, ceil_div(n, tasklets)));
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    (void)dpu.wram().alloc<Edge>(chunk);
    for (std::uint64_t begin = t.id() * chunk; begin < n;
         begin += tasklets * chunk) {
      const std::uint64_t len = std::min(chunk, n - begin);
      t.charge_dma(2, 2 * len * sizeof(Edge));  // read + write back
      t.instr(len * (ceil_log2(len) + 1) * Cost::sort_step);
    }
  });
  replay_sort(data, chunk, p.tasklets, s.split_less);

  // Stage 2: ping-pong merge passes until a single run remains.
  const std::uint64_t* split_less = s.split_less.data();
  for (std::uint64_t width = chunk; width < n; width *= 2) {
    dpu.wram().reset();
    const MergePass mp = merge_pass(n, width, p.tasklets);
    const std::uint64_t pairs = mp.pairs;
    const std::uint32_t ways = mp.ways;
    dpu.parallel(p.tasklets, [&](Tasklet& t) {
      for (int i = 0; i < 3; ++i) (void)dpu.wram().alloc<Edge>(buffer);
      // Two readers and a writer; one merge pick per output record.
      const auto charge_merge = [&](std::uint64_t nl, std::uint64_t nr) {
        charge_stream<Edge>(t, nl, buffer);
        charge_stream<Edge>(t, nr, buffer);
        charge_stream<Edge>(t, nl + nr, buffer);
        t.instr((nl + nr) * Cost::merge_pick);
      };

      if (ways == 1) {
        // More runs than tasklets: round-robin whole pairs.
        for (std::uint64_t pr = t.id(); pr < pairs; pr += tasklets) {
          const std::uint64_t lo = pr * width * 2;
          const std::uint64_t mid = std::min(lo + width, n);
          const std::uint64_t hi = std::min(lo + width * 2, n);
          charge_merge(mid - lo, hi - mid);
        }
        return;
      }

      // Few runs: `ways` tasklets co-partition one pair via merge-path
      // splits.
      const std::uint64_t pair = t.id() / ways;
      const std::uint32_t way = t.id() % ways;
      if (pair >= pairs) return;
      const std::uint64_t lo = pair * width * 2;
      const std::uint64_t mid = std::min(lo + width, n);
      const std::uint64_t hi = std::min(lo + width * 2, n);
      const std::uint64_t nl = mid - lo;
      const auto left_split = [&](std::uint32_t w) {
        return lo + w * nl / ways;
      };
      // A split inside the left run reads its key (one 8-byte burst) and
      // lower-bounds it in the right run with 8-byte probes.
      const auto right_split = [&](std::uint32_t w) {
        const std::uint64_t lx = left_split(w);
        if (lx <= lo) return mid;  // first boundary
        if (lx >= mid) return hi;  // left run exhausted: tail goes here
        const std::uint64_t below = split_less[pair * ways + w];
        const std::uint64_t steps = search_steps(hi - mid, below);
        t.charge_dma(1 + steps, (1 + steps) * sizeof(Edge));
        t.instr(steps * Cost::binary_search_step);
        return mid + below;
      };
      const std::uint64_t l0 = left_split(way);
      const std::uint64_t l1 = left_split(way + 1);
      const std::uint64_t r0 = way == 0 ? mid : right_split(way);
      const std::uint64_t r1 = way + 1 == ways ? hi : right_split(way + 1);
      charge_merge(l1 - l0, r1 - r0);
    });
    if (ways > 1) split_less += pairs * ways;
  }
}

/// Parallel bulk copy of `src` (the host copy of an MRAM array) to `dst`:
/// the one stage that writes MRAM, since S* outlives the launch.
void copy_edges(Dpu& dpu, const KernelParams& p, std::span<const Edge> src,
                std::uint64_t dst) {
  const std::uint64_t n = src.size();
  const std::uint64_t buffer = p.buffer_edges * 2ull;
  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    (void)dpu.wram().alloc<Edge>(buffer);
    const std::uint64_t len = blk.end - blk.begin;
    charge_stream<Edge>(t, len, buffer);  // reads
    charge_stream<Edge>(t, len, buffer);  // writes
    t.instr(ceil_div(len, buffer) * Cost::loop_overhead);
  });
  if (n != 0) dpu.mram().write(dst, src.data(), n * sizeof(Edge));
}

// ---------------------------------------------------------------------------
// Full counting phase (Section 3.4)
// ---------------------------------------------------------------------------

/// Edge iterator over the canonical sorted sample (the host copy
/// `sorted`): for every edge (u,v), intersect the remainder of u's region
/// with v's full region through the shared adaptive machinery
/// (tc/intersect.hpp) — RegionCache-backed lookups, merge/gallop
/// selection, strided hub-spreading chunks.
std::uint64_t count_full(Dpu& dpu, const KernelParams& p,
                         std::span<const Edge> sorted,
                         std::span<const RegionEntry> regions,
                         RegionCache& cache, IntersectTally& tally) {
  const std::uint64_t n = sorted.size();
  std::vector<std::uint64_t> partial(p.tasklets, 0);
  std::vector<IntersectTally> tallies(p.tasklets);

  cache.build(dpu, p.tasklets, p.buffer_edges, regions, n, p.region_cache);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    // The scan stream and the two intersection streams.
    for (int i = 0; i < 3; ++i) (void)dpu.wram().alloc<Edge>(p.buffer_edges);

    IntersectTally& tl = tallies[t.id()];
    const std::uint64_t num_chunks = ceil_div(n, kIntersectChunkEdges);
    std::uint64_t count = 0;
    std::uint64_t instr = 0;
    DmaTally dma;
    // The region of the current scan u, reused while u does not change
    // (regions are contiguous in the sorted scan, so the lookup amortizes
    // to one per distinct first endpoint).
    NodeId cur_u = kInvalidNode;
    Region ru;
    for (std::uint64_t chunk_i = t.id(); chunk_i < num_chunks;
         chunk_i += p.tasklets) {
      ++tl.chunks_claimed;
      const std::uint64_t c_lo = chunk_i * kIntersectChunkEdges;
      const std::uint64_t c_hi = std::min(n, c_lo + kIntersectChunkEdges);
      dma.add_edge_stream(c_hi - c_lo, c_hi - c_lo, p.buffer_edges);
      for (std::uint64_t i = c_lo; i < c_hi; ++i) {
        const Edge e = sorted[i];
        instr += Cost::loop_overhead;
        if (e.u == e.v) continue;  // defensive: self loops count nothing
        if (e.u != cur_u) {
          cur_u = e.u;
          ru = find_region(cache, e.u, instr, dma);
        }
        if (!ru.found()) continue;  // cannot happen: e itself is in `sorted`
        const Region rv = find_region(cache, e.v, instr, dma);
        if (!rv.found()) continue;

        // Edges after (u,v) in u's region x v's full region; every common
        // second endpoint w closes the triangle u < v < w.
        const Region u_rest{i + 1, ru.end};
        intersect_regions(p.intersect, sorted, u_rest, rv, p.buffer_edges, tl,
                          instr, dma,
                          [&](std::uint64_t, const Edge&, std::uint64_t,
                              const Edge&) { ++count; });
      }
    }
    partial[t.id()] = count;
    t.instr(instr);
    t.charge_dma(dma.transfers, dma.bytes);
  });

  std::uint64_t total = 0;
  for (const std::uint64_t c : partial) total += c;
  for (const IntersectTally& tl : tallies) tally += tl;
  dpu.serial_instr(p.tasklets * 2ull);
  return total;
}

// ---------------------------------------------------------------------------
// Incremental machinery (dynamic updates)
// ---------------------------------------------------------------------------

/// Merges the sorted batch arcs `batch` into S* in place: `merged` holds
/// the host copy of S* in its back, from index batch.size(), and leaves
/// with the merged arcs; at[k] receives the merged position of batch[k].
/// Ties take the S* record first.  Charged as the kernel's streaming merge,
/// which also writes a 1-byte "new" flag per output record: tasklets merge
/// co-partitioned subranges (merge-path splitting on equal S* blocks).
void merge_batch(Dpu& dpu, const KernelParams& p, std::span<const Edge> batch,
                 std::span<Edge> merged, std::vector<std::uint64_t>& at) {
  const std::uint64_t n_b = batch.size();
  const std::span<const Edge> old = merged.subspan(n_b);
  const std::uint64_t n_old = old.size();
  const std::uint32_t ways = p.tasklets;
  std::vector<std::uint64_t> old_split(ways + 1, 0);
  std::vector<std::uint64_t> batch_split(ways + 1, 0);
  old_split[ways] = n_old;
  batch_split[ways] = n_b;

  // Split planning: equal blocks of S*; each block's last record is
  // lower-bounded in the batch by an MRAM binary search (tasklet-0 work on
  // real hardware).
  dpu.wram().reset();
  dpu.parallel(1, [&](Tasklet& t) {
    std::uint64_t instr = 0;
    for (std::uint32_t w = 1; w < ways; ++w) {
      const std::uint64_t pos = w * n_old / ways;
      old_split[w] = pos;
      if (pos == 0 || n_b == 0) continue;
      const std::uint64_t below = static_cast<std::uint64_t>(
          std::lower_bound(batch.begin(), batch.end(), old[pos - 1]) -
          batch.begin());
      const std::uint64_t steps = search_steps(n_b, below);
      t.charge_dma(1 + steps, (1 + steps) * sizeof(Edge));  // pivot + probes
      instr += steps * Cost::binary_search_step;
      batch_split[w] = below;
    }
    t.instr(instr);
  });
  // Monotonicity guard (ties in the batch search).
  for (std::uint32_t w = 1; w <= ways; ++w) {
    batch_split[w] = std::max(batch_split[w], batch_split[w - 1]);
  }

  // The merge: move S* runs forward to the batch records' insertion
  // points.  After k batch records the output sits n_b - k records behind
  // the unread S* records, so it never overwrites one, and after the last
  // the rest of S* is already in place.
  at.resize(n_b);
  Edge* const base = merged.data();
  Edge* out = base;
  const Edge* from = old.data();
  const Edge* const old_end = old.data() + n_old;
  for (std::uint64_t k = 0; k < n_b; ++k) {
    const Edge* const to = std::upper_bound(from, old_end, batch[k]);
    out = std::copy(from, to, out);
    at[k] = static_cast<std::uint64_t>(out - base);
    *out++ = batch[k];
    from = to;
  }

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const std::uint32_t w = t.id();
    const std::uint64_t olds = old_split[w + 1] - old_split[w];
    const std::uint64_t news = batch_split[w + 1] - batch_split[w];
    if (olds == 0 && news == 0) return;
    for (int i = 0; i < 3; ++i) (void)dpu.wram().alloc<Edge>(p.buffer_edges);
    (void)dpu.wram().alloc<std::uint8_t>(p.buffer_edges);
    // Two readers, the record writer and the flag writer.
    charge_stream<Edge>(t, olds, p.buffer_edges);
    charge_stream<Edge>(t, news, p.buffer_edges);
    charge_stream<Edge>(t, olds + news, p.buffer_edges);
    charge_stream<std::uint8_t>(t, olds + news, p.buffer_edges);
    t.instr((olds + news) * Cost::merge_pick);
  });
}

/// Counts new triangles over the merged arc array `sorted` (S*, whose
/// batch arcs sit at the ascending positions `at`): for each new canonical
/// edge e = (u,v) of the sorted batch arcs `batch`, intersect the full
/// adjacency regions of u and v through the shared adaptive machinery;
/// every common neighbor w closes a triangle, counted iff each of the
/// other two edges is old or a lexicographically smaller new edge — every
/// new triangle lands exactly once, at its largest new edge.  Reversed
/// batch arcs are skipped so each new edge is processed once.  The lookups
/// resolve through `keys`, the launch's key list over S*'s `num_regions`
/// regions.
std::uint64_t count_incremental(Dpu& dpu, const KernelParams& p,
                                std::span<const Edge> sorted,
                                std::span<const std::uint64_t> at,
                                std::uint64_t num_regions,
                                std::span<const KeyRegion> keys,
                                RegionCache& cache,
                                std::span<const Edge> batch,
                                IntersectTally& tally) {
  const std::uint64_t n_b = batch.size();
  std::vector<std::uint64_t> partial(p.tasklets, 0);
  std::vector<IntersectTally> tallies(p.tasklets);
  const auto is_new = [at](std::uint64_t i) {
    return std::binary_search(at.begin(), at.end(), i);
  };

  cache.build(dpu, p.tasklets, p.buffer_edges, num_regions, keys,
              p.region_cache);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    // The scan stream and the two intersection streams.
    for (int i = 0; i < 3; ++i) (void)dpu.wram().alloc<Edge>(p.buffer_edges);

    IntersectTally& tl = tallies[t.id()];
    const std::uint64_t num_chunks = ceil_div(n_b, kIntersectChunkEdges);
    std::uint64_t count = 0;
    std::uint64_t instr = 0;
    DmaTally dma;
    for (std::uint64_t chunk_i = t.id(); chunk_i < num_chunks;
         chunk_i += p.tasklets) {
      ++tl.chunks_claimed;
      const std::uint64_t c_lo = chunk_i * kIntersectChunkEdges;
      const std::uint64_t c_hi = std::min(n_b, c_lo + kIntersectChunkEdges);
      dma.add_edge_stream(c_hi - c_lo, c_hi - c_lo, p.buffer_edges);
      for (std::uint64_t i = c_lo; i < c_hi; ++i) {
        const Edge e = batch[i];
        instr += Cost::loop_overhead;
        if (e.u >= e.v) continue;  // process each new edge once
        // Both endpoints are first nodes of batch arcs, so on the key list.
        const Region ru = find_region(cache, e.u, instr, dma);
        const Region rv = find_region(cache, e.v, instr, dma);

        // Triangle (e.u, e.v, w) with w the matched second endpoint; e is
        // new by construction.  Count here only if neither other edge is a
        // lexicographically larger new edge (that edge's own pass owns the
        // triangle).  Matches are rare, so new-flags are fetched lazily per
        // match (two 1-byte reads, each one 8-byte transfer) instead of
        // streamed alongside the edges.  The host tells a new arc by its
        // merged position.
        intersect_regions(
            p.intersect, sorted, ru, rv, p.buffer_edges, tl, instr, dma,
            [&](std::uint64_t ia, const Edge& ea, std::uint64_t ib,
                const Edge& eb) {
              dma.add(2, 2 * pim::PimSystemConfig::dma_alignment_bytes);
              const bool blocked_a = e < ea.canonical() && is_new(ia);
              const bool blocked_b = e < eb.canonical() && is_new(ib);
              if (!blocked_a && !blocked_b) ++count;
              instr += 4;
            });
      }
    }
    partial[t.id()] = count;
    t.instr(instr);
    t.charge_dma(dma.transfers, dma.bytes);
  });

  std::uint64_t total = 0;
  for (const std::uint64_t c : partial) total += c;
  for (const IntersectTally& tl : tallies) tally += tl;
  dpu.serial_instr(p.tasklets * 2ull);
  return total;
}

/// Charges zeroing the `n` flag bytes (parallel chunked writes), which
/// leaves them zero between launches.  MRAM already holds the zeros: the
/// host never writes the flags, and finds a batch arc by its position.
void clear_flags(Dpu& dpu, const KernelParams& p, std::uint64_t n) {
  const std::uint64_t buffer = p.buffer_edges * 8ull;
  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    (void)dpu.wram().alloc<std::uint8_t>(buffer);
    charge_stream<std::uint8_t>(t, blk.end - blk.begin, buffer);
    t.instr(ceil_div(blk.end - blk.begin, buffer) * Cost::loop_overhead);
  });
}

/// Largest stream-buffer size, in edges, for which the worst-case
/// simultaneous WRAM allocation (five stream buffers per tasklet plus the
/// static remap hash table and sampled region cache) fits the scratchpad —
/// the bound a real kernel is sized against at build time.
constexpr std::uint32_t max_wram_buffer_edges(
    std::uint32_t tasklets) noexcept {
  constexpr std::uint64_t wram = pim::PimSystemConfig::wram_bytes;
  constexpr std::uint64_t statics =
      MramLayout::kMaxRemap * 2 * sizeof(NodeId) +  // remap hash table
      RegionCache::kSlots * sizeof(RegionEntry);    // sampled region index
  static_assert(statics < wram);
  if (tasklets == 0) return 0;
  // Worst case the kernels allocate five stream buffers per tasklet at once.
  return static_cast<std::uint32_t>((wram - statics) /
                                    (5ull * tasklets * sizeof(Edge)));
}

// The host runs the default buffers at the paper's tasklet count, so they
// must fit the WRAM budget there without clamping.
static_assert(KernelParams{}.buffer_edges >= 4 &&
              KernelParams{}.buffer_edges <= max_wram_buffer_edges(kTasklets));

/// Clamps the stream-buffer size into [4, max_wram_buffer_edges] — a safety
/// net for callers driving the kernel directly with other tasklet counts or
/// buffer sizes.
KernelParams clamp_buffers(const KernelParams& in) {
  KernelParams params = in;
  const std::uint32_t max_buffer = max_wram_buffer_edges(params.tasklets);
  params.buffer_edges = std::max(4u, std::min(params.buffer_edges, max_buffer));
  return params;
}

DpuMeta read_meta(Dpu& dpu) {
  DpuMeta meta{};
  dpu.parallel(1, [&](Tasklet& t) {
    meta = t.mram_read_t<DpuMeta>(MramLayout::kMetaOffset);
    t.instr(Cost::loop_overhead);
  });
  if (meta.sample_capacity > MramLayout::kMaxCapacityEdges) {
    throw std::logic_error(
        "counting kernel: sample_capacity exceeds the 32-bit region index "
        "range (MramLayout::kMaxCapacityEdges)");
  }
  return meta;
}

void write_meta(Dpu& dpu, const DpuMeta& meta) {
  dpu.parallel(1, [&](Tasklet& t) {
    t.mram_write_t(MramLayout::kMetaOffset, meta);
    t.instr(Cost::loop_overhead);
  });
}

void store_tally(DpuMeta& meta, const IntersectTally& tally,
                 std::uint64_t count_instr) {
  meta.merge_picks = tally.merge_picks;
  meta.gallop_probes = tally.gallop_probes;
  meta.merge_isects = tally.merge_isects;
  meta.gallop_isects = tally.gallop_isects;
  meta.chunks_claimed = tally.chunks_claimed;
  meta.count_instructions = count_instr;
}

}  // namespace

void replay_sort(std::vector<Edge>& data, std::uint64_t chunk,
                 std::uint32_t tasklets,
                 std::vector<std::uint64_t>& split_less) {
  if (chunk == 0 || tasklets == 0 || tasklets > kMaxRuns) {
    throw std::invalid_argument(
        "replay_sort: needs chunk >= 1 and 1..max_tasklets tasklets");
  }
  const std::uint64_t n = data.size();
  // The run width at the first co-partitioned pass (0: none) and the split
  // slots of that pass and every later one, which are all co-partitioned:
  // `ways` grows as the pairs halve.
  std::uint64_t run = 0;
  std::uint64_t slots = 0;
  for (std::uint64_t width = chunk; width < n; width *= 2) {
    const MergePass mp = merge_pass(n, width, tasklets);
    if (mp.ways == 1) continue;
    if (run == 0) run = width;
    slots += mp.pairs * mp.ways;
  }
  split_less.assign(slots, 0);

  HostScratch& s = host_scratch();
  const bool small = n < kRadixMinRecords;
  const std::uint64_t tag_run = run != 0 ? run : std::max<std::uint64_t>(n, 1);
  const std::span<const std::uint8_t> tags =
      small ? comparison_sort(data, tag_run, s) : radix_sort(data, tag_run, s);
  if (run == 0) return;
  const auto runs = static_cast<std::uint32_t>(ceil_div(n, run));
  if (!small) build_checkpoints(tags, runs, s);
  std::uint64_t* out = split_less.data();
  unsigned shift = 0;
  for (std::uint64_t width = run; width < n; width *= 2, ++shift) {
    const MergePass mp = merge_pass(n, width, tasklets);
    if (small) {
      sweep_splits(tags, mp, shift, out);
    } else {
      checkpoint_splits(tags, runs, mp, shift, s, out);
    }
    out += mp.pairs * mp.ways;
  }
}

void run_count_kernel(pim::Dpu& dpu, const KernelParams& params_in) {
  const KernelParams params = clamp_buffers(params_in);
  DpuMeta meta = read_meta(dpu);
  const std::uint64_t n = meta.sample_size;
  const std::uint64_t cap = meta.sample_capacity;

  if (n == 0) {
    meta.triangle_count = 0;
    meta.num_regions = 0;
    meta.sorted_size = 0;
    store_tally(meta, IntersectTally{}, 0);
    if (meta.flags & DpuMeta::kFlagPersistSorted) {
      // An empty persisted arc array is valid: without this flag a core
      // that received no edges before the first count would reject every
      // later incremental recount.
      meta.flags |= DpuMeta::kFlagSortedValid;
    }
    write_meta(dpu, meta);
    return;
  }

  HostScratch& s = host_scratch();
  dpu.wram().reset();
  const RemapTable remap(dpu, meta.num_remap);
  copy_remap(dpu, params, remap, 0, n, /*arcs=*/false, s.work);
  external_sort(dpu, params, s.work, s);

  std::vector<std::uint64_t> counts(params.tasklets);
  const std::span<const RegionEntry> regions =
      build_regions(s.work, counts, s.regions);
  charge_region_index(dpu, params.buffer_edges, s.work.size(), counts);
  meta.num_regions = regions.size();
  IntersectTally tally;
  const std::uint64_t instr0 = dpu.total_instructions();
  meta.triangle_count =
      count_full(dpu, params, s.work, regions, s.cache, tally);
  store_tally(meta, tally, dpu.total_instructions() - instr0);

  if (meta.flags & DpuMeta::kFlagPersistSorted) {
    // Materialize the persistent arc array S* (both orientations of every
    // edge, sorted) for subsequent incremental updates.  The canonical
    // pipeline is finished, so the scratch buffers are free again.
    dpu.wram().reset();
    copy_remap(dpu, params, remap, 0, n, /*arcs=*/true, s.work);
    external_sort(dpu, params, s.work, s);
    copy_edges(dpu, params, s.work, MramLayout::sorted_offset(cap));
    meta.sorted_size = n;
    meta.flags |= DpuMeta::kFlagSortedValid;
  }
  write_meta(dpu, meta);
}

void run_incremental_kernel(pim::Dpu& dpu, const KernelParams& params_in) {
  const KernelParams params = clamp_buffers(params_in);
  DpuMeta meta = read_meta(dpu);
  const std::uint64_t cap = meta.sample_capacity;
  const std::uint64_t n_old = meta.sorted_size;
  const std::uint64_t n = meta.sample_size;

  if (!(meta.flags & DpuMeta::kFlagSortedValid) || n < n_old) {
    throw std::logic_error(
        "run_incremental_kernel: no valid persisted sorted sample");
  }
  const std::uint64_t n_b = n - n_old;
  if (n_b == 0) {
    store_tally(meta, IntersectTally{}, 0);
    write_meta(dpu, meta);
    return;
  }

  const std::uint64_t sorted = MramLayout::sorted_offset(cap);

  // 1. remap + copy (both orientations) + sort the new batch.
  HostScratch& s = host_scratch();
  dpu.wram().reset();
  const RemapTable remap(dpu, meta.num_remap);
  copy_remap(dpu, params, remap, n_old, n, /*arcs=*/true, s.work);
  external_sort(dpu, params, s.work, s);

  // 2. read S* into the back of the merged buffer, merge the batch arcs in
  //    place, and install the result as the new S*.  The sorted batch
  //    survives in s.work for the counting pass.
  s.merged.resize(2 * n);
  dpu.mram().read(sorted, s.merged.data() + 2 * n_b,
                  2 * n_old * sizeof(Edge));
  merge_batch(dpu, params, s.work, s.merged, s.at);
  copy_edges(dpu, params, s.merged, sorted);
  meta.sorted_size = n;

  // 3. index the merged S*: count its regions and resolve the batch's
  //    endpoints, charged as building the region index.
  std::vector<std::uint64_t> counts(params.tasklets);
  meta.num_regions =
      resolve_batch_keys(s.merged, s.work, s.at, counts, s.keys);
  charge_region_index(dpu, params.buffer_edges, s.merged.size(), counts);

  // 4. count the delta, 5. clear the flags for the next round.
  IntersectTally tally;
  const std::uint64_t instr0 = dpu.total_instructions();
  const std::uint64_t delta =
      count_incremental(dpu, params, s.merged, s.at, meta.num_regions, s.keys,
                        s.cache, s.work, tally);
  store_tally(meta, tally, dpu.total_instructions() - instr0);
  clear_flags(dpu, params, s.merged.size());

  meta.triangle_count += delta;
  write_meta(dpu, meta);
}

}  // namespace pimtc::tc
