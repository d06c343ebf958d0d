#include "tc/kernel.hpp"

#include <algorithm>
#include <limits>
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
// Reusable phases
// ---------------------------------------------------------------------------

/// Copies edges [src_begin, src_end) of the raw sample into `dst` (0-based),
/// applying the remap.  Canonical mode emits one u<v record per edge; arc
/// mode emits both orientations (2 records per edge, for the S* pipeline).
void copy_remap(Dpu& dpu, const KernelParams& p, const RemapTable& remap,
                std::uint64_t src, std::uint64_t src_begin,
                std::uint64_t src_end, std::uint64_t dst, bool arcs) {
  const std::uint64_t n = src_end - src_begin;
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    auto rbuf = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto wbuf = dpu.wram().alloc<Edge>(p.buffer_edges);
    EdgeReader reader(t, rbuf, src, src_begin + blk.begin,
                      src_begin + blk.end);
    StreamWriter<Edge> writer(t, wbuf, dst,
                              arcs ? 2 * blk.begin : blk.begin);

    std::uint64_t instr = 0;
    std::uint64_t probes = 0;
    Edge e;
    while (reader.next(e)) {
      if (!remap.empty()) {
        e.u = remap.lookup(e.u, probes);
        e.v = remap.lookup(e.v, probes);
      }
      const Edge c = e.canonical();
      writer.put(c);
      if (arcs) writer.put(c.reversed());
      instr += Cost::edge_copy + Cost::loop_overhead;
    }
    writer.flush();
    t.instr(instr + probes * Cost::remap_lookup);
  });
}

/// External merge sort of n edges at `off_a`, ping-pong with `off_b`.
/// Returns the offset holding the sorted result.  Resets WRAM.
///
/// Chunk size adapts downward for small inputs so every tasklet has work
/// (an idle pipeline issues one instruction per 11 cycles per tasklet), and
/// merge passes with fewer runs than tasklets are co-partitioned with
/// merge-path splitting so the last passes stay parallel.
std::uint64_t external_sort(Dpu& dpu, const KernelParams& p,
                            std::uint64_t off_a, std::uint64_t off_b,
                            std::uint64_t n) {
  if (n <= 1) return off_a;

  // Stage 1: sort WRAM-resident chunks in place.  Every tasklet holds a
  // chunk buffer simultaneously, so chunk size is bounded by WRAM/tasklets
  // (half the arena, leaving room for stack/locals like a real kernel).
  dpu.wram().reset();
  const std::uint64_t max_chunk = std::max<std::uint64_t>(
      16, dpu.wram().capacity() / (2ull * p.tasklets * sizeof(Edge)));
  const std::uint64_t chunk =
      std::max<std::uint64_t>(8, std::min(max_chunk,
                                          ceil_div(n, p.tasklets)));
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    auto buf = dpu.wram().alloc<Edge>(chunk);
    for (std::uint64_t begin = t.id() * chunk; begin < n;
         begin += static_cast<std::uint64_t>(p.tasklets) * chunk) {
      const std::uint64_t len = std::min(chunk, n - begin);
      t.mram_read(off_a + begin * sizeof(Edge), buf.data(), len * sizeof(Edge));
      std::sort(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(len));
      t.instr(len * (ceil_log2(len) + 1) * Cost::sort_step);
      t.mram_write(off_a + begin * sizeof(Edge), buf.data(),
                   len * sizeof(Edge));
    }
  });

  // Stage 2: ping-pong merge passes until a single run remains.
  std::uint64_t src = off_a;
  std::uint64_t dst = off_b;
  for (std::uint64_t width = chunk; width < n; width *= 2) {
    dpu.wram().reset();
    const std::uint64_t pairs = ceil_div(n, width * 2);
    const std::uint32_t ways = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, p.tasklets / pairs));
    dpu.parallel(p.tasklets, [&](Tasklet& t) {
      const std::uint64_t pair = t.id() / ways;
      const std::uint32_t way = t.id() % ways;

      auto buf_l = dpu.wram().alloc<Edge>(p.buffer_edges);
      auto buf_r = dpu.wram().alloc<Edge>(p.buffer_edges);
      auto buf_o = dpu.wram().alloc<Edge>(p.buffer_edges);

      // lower_bound of `key` within src[b, e): first element >= key.
      const auto lb = [&](std::uint64_t b, std::uint64_t e_idx,
                          const Edge& key) {
        std::uint64_t probes = 0;
        while (b < e_idx) {
          const std::uint64_t mid = b + (e_idx - b) / 2;
          const Edge m = t.mram_read_t<Edge>(src + mid * sizeof(Edge));
          if (m < key) {
            b = mid + 1;
          } else {
            e_idx = mid;
          }
          ++probes;
        }
        t.instr(probes * Cost::binary_search_step);
        return b;
      };

      const auto merge_range = [&](std::uint64_t l0, std::uint64_t l1,
                                   std::uint64_t r0, std::uint64_t r1,
                                   std::uint64_t out_pos) {
        EdgeReader left(t, buf_l, src, l0, l1);
        EdgeReader right(t, buf_r, src, r0, r1);
        StreamWriter<Edge> out(t, buf_o, dst, out_pos);
        Edge l;
        Edge r;
        bool has_l = left.next(l);
        bool has_r = right.next(r);
        std::uint64_t instr = 0;
        while (has_l || has_r) {
          if (has_l && (!has_r || l <= r)) {
            out.put(l);
            has_l = left.next(l);
          } else {
            out.put(r);
            has_r = right.next(r);
          }
          instr += Cost::merge_pick;
        }
        out.flush();
        t.instr(instr);
      };

      if (ways == 1) {
        // More runs than tasklets: round-robin whole pairs.
        for (std::uint64_t pr = t.id(); pr < pairs; pr += p.tasklets) {
          const std::uint64_t lo = pr * width * 2;
          const std::uint64_t mid = std::min(lo + width, n);
          const std::uint64_t hi = std::min(lo + width * 2, n);
          merge_range(lo, mid, mid, hi, lo);
        }
        return;
      }

      // Few runs: `ways` tasklets co-partition one pair via merge-path
      // splits (distinct keys: edges are unique).
      if (pair >= pairs) return;
      const std::uint64_t lo = pair * width * 2;
      const std::uint64_t mid = std::min(lo + width, n);
      const std::uint64_t hi = std::min(lo + width * 2, n);
      const std::uint64_t nl = mid - lo;

      const auto left_split = [&](std::uint32_t w) {
        return lo + w * nl / ways;
      };
      // Right-run split consistent across ways: right elements smaller than
      // the left block's first key go to earlier ways.  Edges are unique,
      // so ties cannot occur.
      const auto right_split = [&](std::uint64_t lx) {
        if (lx <= lo) return mid;   // first boundary
        if (lx >= mid) return hi;   // left run exhausted: tail goes here
        return lb(mid, hi, t.mram_read_t<Edge>(src + lx * sizeof(Edge)));
      };
      const std::uint64_t l0 = left_split(way);
      const std::uint64_t l1 = left_split(way + 1);
      const std::uint64_t r0 = way == 0 ? mid : right_split(l0);
      const std::uint64_t r1 = way + 1 == ways ? hi : right_split(l1);
      merge_range(l0, l1, r0, r1, lo + (l0 - lo) + (r0 - mid));
    });
    std::swap(src, dst);
  }
  return src;
}

/// Parallel bulk copy of n edges from `src` to `dst`.
void copy_edges(Dpu& dpu, const KernelParams& p, std::uint64_t src,
                std::uint64_t dst, std::uint64_t n) {
  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    auto buf = dpu.wram().alloc<Edge>(p.buffer_edges * 2);
    for (std::uint64_t pos = blk.begin; pos < blk.end; pos += buf.size()) {
      const std::uint64_t len =
          std::min<std::uint64_t>(buf.size(), blk.end - pos);
      t.mram_read(src + pos * sizeof(Edge), buf.data(), len * sizeof(Edge));
      t.mram_write(dst + pos * sizeof(Edge), buf.data(), len * sizeof(Edge));
      t.instr(Cost::loop_overhead);
    }
  });
}

/// Builds the region index over `sorted` (n edges) at `reg`.  Two parallel
/// passes: count region starts per block, then write RegionEntry records at
/// exclusive-prefix offsets.  Returns the number of regions.
std::uint64_t build_regions(Dpu& dpu, const KernelParams& p,
                            std::uint64_t sorted, std::uint64_t n,
                            std::uint64_t reg) {
  if (n == 0) return 0;
  // RegionEntry.begin is 32-bit; the kernel entry points reject capacities
  // whose arc arrays could exceed this, so the cast below cannot truncate.
  if (n - 1 > std::numeric_limits<std::uint32_t>::max()) {
    throw std::logic_error(
        "build_regions: record index overflows RegionEntry.begin");
  }
  std::vector<std::uint64_t> counts(p.tasklets, 0);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    auto buf = dpu.wram().alloc<Edge>(p.buffer_edges);
    NodeId prev = kInvalidNode;
    if (blk.begin > 0) {
      prev = t.mram_read_t<Edge>(sorted + (blk.begin - 1) * sizeof(Edge)).u;
    }
    EdgeReader reader(t, buf, sorted, blk.begin, blk.end);
    Edge e;
    std::uint64_t local = 0;
    std::uint64_t instr = 0;
    while (reader.next(e)) {
      if (e.u != prev) {
        ++local;
        prev = e.u;
      }
      instr += Cost::region_scan_step;
    }
    counts[t.id()] = local;
    t.instr(instr);
  });

  // Exclusive prefix over per-tasklet counts (tasklet 0 on real hardware).
  std::vector<std::uint64_t> prefix(p.tasklets + 1, 0);
  for (std::uint32_t i = 0; i < p.tasklets; ++i) {
    prefix[i + 1] = prefix[i] + counts[i];
  }
  dpu.serial_instr(p.tasklets * 2ull);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    auto buf = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto obuf = dpu.wram().alloc<RegionEntry>(p.buffer_edges);
    NodeId prev = kInvalidNode;
    if (blk.begin > 0) {
      prev = t.mram_read_t<Edge>(sorted + (blk.begin - 1) * sizeof(Edge)).u;
    }
    EdgeReader reader(t, buf, sorted, blk.begin, blk.end);
    StreamWriter<RegionEntry> writer(t, obuf, reg, prefix[t.id()]);
    Edge e;
    std::uint64_t instr = 0;
    while (reader.next(e)) {
      if (e.u != prev) {
        writer.put(
            RegionEntry{e.u, static_cast<std::uint32_t>(reader.last_index())});
        prev = e.u;
      }
      instr += Cost::region_scan_step;
    }
    writer.flush();
    t.instr(instr);
  });

  return prefix[p.tasklets];
}

// ---------------------------------------------------------------------------
// Full counting phase (Section 3.4)
// ---------------------------------------------------------------------------

/// Edge iterator over the canonical sorted sample: for every edge (u,v),
/// intersect the remainder of u's region with v's full region through the
/// shared adaptive machinery (tc/intersect.hpp) — RegionCache-backed
/// lookups, merge/gallop selection, strided hub-spreading chunks.
std::uint64_t count_full(Dpu& dpu, const KernelParams& p, std::uint64_t sorted,
                         std::uint64_t n, std::uint64_t reg,
                         std::uint64_t num_regions, IntersectTally& tally) {
  std::vector<std::uint64_t> partial(p.tasklets, 0);
  std::vector<IntersectTally> tallies(p.tasklets);

  const RegionCache cache(dpu, p.tasklets, p.buffer_edges, reg,
                          num_regions, p.region_cache);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    auto scan_buf = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto u_buf = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto v_buf = dpu.wram().alloc<Edge>(p.buffer_edges);

    IntersectTally& tl = tallies[t.id()];
    const std::uint64_t num_chunks = ceil_div(n, kIntersectChunkEdges);
    std::uint64_t count = 0;
    std::uint64_t instr = 0;
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
      EdgeReader scan(t, scan_buf, sorted, c_lo, c_hi);
      Edge e;
      while (scan.next(e)) {
        instr += Cost::loop_overhead;
        if (e.u == e.v) continue;  // defensive: self loops count nothing
        if (e.u != cur_u) {
          cur_u = e.u;
          ru = find_region(t, reg, num_regions, e.u, n, cache);
        }
        if (!ru.found()) continue;  // cannot happen: e itself is in `sorted`
        const Region rv = find_region(t, reg, num_regions, e.v, n, cache);
        if (!rv.found()) continue;

        // Edges after (u,v) in u's region x v's full region; every common
        // second endpoint w closes the triangle u < v < w.
        const Region u_rest{scan.last_index() + 1, ru.end};
        intersect_regions(t, p.intersect, sorted, u_rest, rv, u_buf, v_buf,
                          tl, instr,
                          [&](std::uint64_t, const Edge&, std::uint64_t,
                              const Edge&) { ++count; });
      }
    }
    partial[t.id()] = count;
    t.instr(instr);
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

/// Merges S*[0..n_old) with the sorted batch at `batch` [0..n_b) into
/// `dst_edges`, writing a 1-byte "new" flag per output record to
/// `dst_flags`.  Tasklets merge co-partitioned subranges (merge-path
/// splitting on equal S* blocks).
void merge_with_flags(Dpu& dpu, const KernelParams& p, std::uint64_t sorted,
                      std::uint64_t n_old, std::uint64_t batch,
                      std::uint64_t n_b, std::uint64_t dst_edges,
                      std::uint64_t dst_flags) {
  const std::uint32_t ways = p.tasklets;
  std::vector<std::uint64_t> old_split(ways + 1, 0);
  std::vector<std::uint64_t> batch_split(ways + 1, 0);
  old_split[ways] = n_old;
  batch_split[ways] = n_b;

  // Split planning: equal blocks of S*; matching batch positions found by
  // binary search (tasklet-0 work on real hardware).
  dpu.wram().reset();
  dpu.parallel(1, [&](Tasklet& t) {
    std::uint64_t instr = 0;
    for (std::uint32_t w = 1; w < ways; ++w) {
      const std::uint64_t pos = w * n_old / ways;
      old_split[w] = pos;
      if (pos == 0 || n_b == 0) {
        batch_split[w] = 0;
        continue;
      }
      const Edge pivot = t.mram_read_t<Edge>(sorted + (pos - 1) * sizeof(Edge));
      std::uint64_t lo = 0;
      std::uint64_t hi = n_b;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        const Edge e = t.mram_read_t<Edge>(batch + mid * sizeof(Edge));
        if (e < pivot) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
        instr += Cost::binary_search_step;
      }
      batch_split[w] = lo;
    }
    t.instr(instr);
  });
  // Monotonicity guard (ties in the batch search).
  for (std::uint32_t w = 1; w <= ways; ++w) {
    batch_split[w] = std::max(batch_split[w], batch_split[w - 1]);
  }

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const std::uint32_t w = t.id();
    const std::uint64_t o_lo = old_split[w];
    const std::uint64_t o_hi = old_split[w + 1];
    const std::uint64_t b_lo = batch_split[w];
    const std::uint64_t b_hi = batch_split[w + 1];
    if (o_lo >= o_hi && b_lo >= b_hi) return;

    auto buf_o = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto buf_b = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto buf_e = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto buf_f = dpu.wram().alloc<std::uint8_t>(p.buffer_edges);

    EdgeReader old_r(t, buf_o, sorted, o_lo, o_hi);
    EdgeReader new_r(t, buf_b, batch, b_lo, b_hi);
    StreamWriter<Edge> out_e(t, buf_e, dst_edges, o_lo + b_lo);
    StreamWriter<std::uint8_t> out_f(t, buf_f, dst_flags, o_lo + b_lo);

    Edge o;
    Edge b;
    bool has_o = old_r.next(o);
    bool has_b = new_r.next(b);
    std::uint64_t instr = 0;
    while (has_o || has_b) {
      if (has_o && (!has_b || o <= b)) {
        out_e.put(o);
        out_f.put(0);
        has_o = old_r.next(o);
      } else {
        out_e.put(b);
        out_f.put(1);
        has_b = new_r.next(b);
      }
      instr += Cost::merge_pick;
    }
    out_e.flush();
    out_f.flush();
    t.instr(instr);
  });
}

/// Counts new triangles over the merged arc array: for each new canonical
/// edge e = (u,v), intersect the full adjacency regions of u and v through
/// the shared adaptive machinery; every common neighbor w closes a
/// triangle, counted iff each of the other two edges is old or a
/// lexicographically smaller new edge — every new triangle lands exactly
/// once, at its largest new edge.  `n` and `n_b` are arc counts; reversed
/// batch arcs are skipped so each new edge is processed once.
std::uint64_t count_incremental(Dpu& dpu, const KernelParams& p,
                                std::uint64_t sorted, std::uint64_t n,
                                std::uint64_t flags, std::uint64_t reg,
                                std::uint64_t num_regions, std::uint64_t batch,
                                std::uint64_t n_b, IntersectTally& tally) {
  std::vector<std::uint64_t> partial(p.tasklets, 0);
  std::vector<IntersectTally> tallies(p.tasklets);

  const RegionCache cache(dpu, p.tasklets, p.buffer_edges, reg,
                          num_regions, p.region_cache);

  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    auto scan_buf = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto u_buf = dpu.wram().alloc<Edge>(p.buffer_edges);
    auto v_buf = dpu.wram().alloc<Edge>(p.buffer_edges);

    IntersectTally& tl = tallies[t.id()];
    const std::uint64_t num_chunks = ceil_div(n_b, kIntersectChunkEdges);
    std::uint64_t count = 0;
    std::uint64_t instr = 0;
    for (std::uint64_t chunk_i = t.id(); chunk_i < num_chunks;
         chunk_i += p.tasklets) {
      ++tl.chunks_claimed;
      const std::uint64_t c_lo = chunk_i * kIntersectChunkEdges;
      const std::uint64_t c_hi = std::min(n_b, c_lo + kIntersectChunkEdges);
      EdgeReader scan(t, scan_buf, batch, c_lo, c_hi);
      Edge e;
      while (scan.next(e)) {
        instr += Cost::loop_overhead;
        if (e.u >= e.v) continue;  // process each new edge once
        const Region ru = find_region(t, reg, num_regions, e.u, n, cache);
        if (!ru.found()) continue;  // cannot happen: e itself is in S*
        const Region rv = find_region(t, reg, num_regions, e.v, n, cache);
        if (!rv.found()) continue;

        // Triangle (e.u, e.v, w) with w the matched second endpoint; e is
        // new by construction.  Count here only if neither other edge is a
        // lexicographically larger new edge (that edge's own pass owns the
        // triangle).  Matches are rare, so new-flags are fetched lazily per
        // match instead of streamed alongside the edges.
        intersect_regions(
            t, p.intersect, sorted, ru, rv, u_buf, v_buf, tl, instr,
            [&](std::uint64_t ia, const Edge& ea, std::uint64_t ib,
                const Edge& eb) {
              const auto fa = t.mram_read_t<std::uint8_t>(flags + ia);
              const auto fb = t.mram_read_t<std::uint8_t>(flags + ib);
              const bool blocked_a = (fa != 0) && e < ea.canonical();
              const bool blocked_b = (fb != 0) && e < eb.canonical();
              if (!blocked_a && !blocked_b) ++count;
              instr += 4;
            });
      }
    }
    partial[t.id()] = count;
    t.instr(instr);
  });

  std::uint64_t total = 0;
  for (const std::uint64_t c : partial) total += c;
  for (const IntersectTally& tl : tallies) tally += tl;
  dpu.serial_instr(p.tasklets * 2ull);
  return total;
}

/// Zeroes the first n flag bytes (parallel chunked writes).
void clear_flags(Dpu& dpu, const KernelParams& p, std::uint64_t flags,
                 std::uint64_t n) {
  dpu.wram().reset();
  dpu.parallel(p.tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), p.tasklets);
    if (blk.begin >= blk.end) return;
    auto buf = dpu.wram().alloc<std::uint8_t>(p.buffer_edges * 8);
    std::fill(buf.begin(), buf.end(), 0);
    for (std::uint64_t pos = blk.begin; pos < blk.end; pos += buf.size()) {
      const std::uint64_t len =
          std::min<std::uint64_t>(buf.size(), blk.end - pos);
      t.mram_write(flags + pos, buf.data(), len);
      t.instr(Cost::loop_overhead);
    }
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

  dpu.wram().reset();
  const RemapTable remap(dpu, meta.num_remap);
  copy_remap(dpu, params, remap, MramLayout::sample_offset(), 0, n,
             MramLayout::work_a_offset(cap), /*arcs=*/false);

  const std::uint64_t sorted =
      external_sort(dpu, params, MramLayout::work_a_offset(cap),
                    MramLayout::work_b_offset(cap), n);

  const std::uint64_t reg = MramLayout::region_offset(cap);
  const std::uint64_t regions = build_regions(dpu, params, sorted, n, reg);
  meta.num_regions = regions;
  IntersectTally tally;
  const std::uint64_t instr0 = dpu.total_instructions();
  meta.triangle_count =
      count_full(dpu, params, sorted, n, reg, regions, tally);
  store_tally(meta, tally, dpu.total_instructions() - instr0);

  if (meta.flags & DpuMeta::kFlagPersistSorted) {
    // Materialize the persistent arc array S* (both orientations of every
    // edge, sorted) for subsequent incremental updates.  The canonical
    // pipeline is finished, so the scratch buffers are free again.
    dpu.wram().reset();
    copy_remap(dpu, params, remap, MramLayout::sample_offset(), 0, n,
               MramLayout::work_a_offset(cap), /*arcs=*/true);
    const std::uint64_t arcs =
        external_sort(dpu, params, MramLayout::work_a_offset(cap),
                      MramLayout::work_b_offset(cap), 2 * n);
    if (arcs != MramLayout::sorted_offset(cap)) {
      copy_edges(dpu, params, arcs, MramLayout::sorted_offset(cap), 2 * n);
    }
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
  const std::uint64_t flags = MramLayout::flags_offset(cap);
  const std::uint64_t work_a = MramLayout::work_a_offset(cap);
  const std::uint64_t work_b = MramLayout::work_b_offset(cap);
  const std::uint64_t reg = MramLayout::region_offset(cap);
  const std::uint64_t arcs_old = 2 * n_old;
  const std::uint64_t arcs_b = 2 * n_b;
  const std::uint64_t arcs_total = 2 * n;

  // 1. remap + copy (both orientations) + sort the new batch.
  dpu.wram().reset();
  const RemapTable remap(dpu, meta.num_remap);
  copy_remap(dpu, params, remap, MramLayout::sample_offset(), n_old, n,
             work_a, /*arcs=*/true);
  const std::uint64_t batch = external_sort(dpu, params, work_a, work_b,
                                            arcs_b);

  // 2. merge S* + batch arcs into the other scratch buffer (with new-flags),
  //    then install it as the new S*.  The sorted batch survives in `batch`
  //    for the counting pass.
  const std::uint64_t merge_dst = batch == work_a ? work_b : work_a;
  merge_with_flags(dpu, params, sorted, arcs_old, batch, arcs_b, merge_dst,
                   flags);
  copy_edges(dpu, params, merge_dst, sorted, arcs_total);
  meta.sorted_size = n;

  // 3. rebuild the region index over the merged S*.
  const std::uint64_t regions =
      build_regions(dpu, params, sorted, arcs_total, reg);
  meta.num_regions = regions;

  // 4. count the delta, 5. clear the flags for the next round.
  IntersectTally tally;
  const std::uint64_t instr0 = dpu.total_instructions();
  const std::uint64_t delta =
      count_incremental(dpu, params, sorted, arcs_total, flags, reg, regions,
                        batch, arcs_b, tally);
  store_tally(meta, tally, dpu.total_instructions() - instr0);
  clear_flags(dpu, params, flags, arcs_total);

  meta.triangle_count += delta;
  write_meta(dpu, meta);
}

}  // namespace pimtc::tc
