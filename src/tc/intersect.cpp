#include "tc/intersect.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace pimtc::tc {
namespace {

using pim::Tasklet;
using Cost = pim::KernelCostModel;

/// Fills out[r] = search_steps(size, r) for r in [0, size] by walking the
/// loop's decision tree once.
void fill_search_steps(std::uint8_t* out, std::uint64_t size,
                       std::uint8_t depth) {
  if (size == 0) {
    *out = depth;
    return;
  }
  const std::uint64_t half = size / 2;
  const auto next = static_cast<std::uint8_t>(depth + 1);
  fill_search_steps(out, half, next);
  fill_search_steps(out + half + 1, size - half - 1, next);
}

constexpr auto node_below = [](const RegionEntry& e, NodeId key) {
  return e.node < key;
};

}  // namespace

const char* to_string(IntersectPolicy policy) noexcept {
  switch (policy) {
    case IntersectPolicy::kMerge:
      return "merge";
    case IntersectPolicy::kGallop:
      return "gallop";
    case IntersectPolicy::kAuto:
      break;
  }
  return "auto";
}

IntersectPolicy intersect_policy_from_string(std::string_view name) {
  if (name == "auto") return IntersectPolicy::kAuto;
  if (name == "merge") return IntersectPolicy::kMerge;
  if (name == "gallop") return IntersectPolicy::kGallop;
  throw std::invalid_argument("unknown intersection policy '" +
                              std::string(name) +
                              "' (expected auto|merge|gallop)");
}

std::span<const RegionEntry> build_regions(std::span<const Edge> sorted,
                                           std::span<std::uint64_t> counts,
                                           std::vector<RegionEntry>& table) {
  const std::uint64_t n = sorted.size();
  std::fill(counts.begin(), counts.end(), 0);
  if (n == 0) return {};
  // RegionEntry.begin is 32-bit; the kernel entry points reject capacities
  // whose arc arrays could exceed this, so the cast below cannot truncate.
  if (n - 1 > std::numeric_limits<std::uint32_t>::max()) {
    throw std::logic_error(
        "build_regions: record index overflows RegionEntry.begin");
  }
  if (table.size() < n) table.resize(n);  // at most one region per record
  const auto tasklets = static_cast<std::uint32_t>(counts.size());
  std::uint64_t num_regions = 0;
  NodeId prev = kInvalidNode;
  for (std::uint32_t t = 0; t < tasklets; ++t) {
    const Block blk = block_of(n, t, tasklets);
    const std::uint64_t before = num_regions;
    for (std::uint64_t i = blk.begin; i < blk.end; ++i) {
      // Branch-free: every record writes the next slot, a region start
      // keeps it.
      const NodeId u = sorted[i].u;
      table[num_regions] = RegionEntry{u, static_cast<std::uint32_t>(i)};
      num_regions += u != prev ? 1 : 0;
      prev = u;
    }
    counts[t] = num_regions - before;
  }
  return std::span<const RegionEntry>(table).first(num_regions);
}

std::uint64_t resolve_batch_keys(std::span<const Edge> sorted,
                                 std::span<const Edge> batch,
                                 std::span<const std::uint64_t> at,
                                 std::span<std::uint64_t> counts,
                                 std::vector<KeyRegion>& keys) {
  const std::uint64_t n = sorted.size();
  const auto it = [&](std::uint64_t i) {
    return sorted.begin() + static_cast<std::ptrdiff_t>(i);
  };
  // Batch arcs [k, j) share first node x, and x's S* arcs may sit before,
  // between and after them: x's region begins at or before at[k] and ends
  // after at[j - 1].  Gallop out from each, then search the last step.
  keys.clear();
  for (std::uint64_t k = 0; k < batch.size();) {
    const NodeId x = batch[k].u;
    std::uint64_t j = k + 1;
    while (j < batch.size() && batch[j].u == x) ++j;
    std::uint64_t hi = at[k];
    std::uint64_t step = 1;
    for (; step <= hi && sorted[hi - step].u == x; step *= 2) hi -= step;
    const auto first = std::partition_point(
        it(step <= hi ? hi - step + 1 : 0), it(hi),
        [x](const Edge& e) { return e.u < x; });
    std::uint64_t lo = at[j - 1];
    step = 1;
    for (; step < n - lo && sorted[lo + step].u == x; step *= 2) lo += step;
    const auto last = std::partition_point(
        it(lo + 1), it(std::min(n, lo + step)),
        [x](const Edge& e) { return e.u == x; });
    keys.push_back({x, 0,
                    {static_cast<std::uint64_t>(first - sorted.begin()),
                     static_cast<std::uint64_t>(last - sorted.begin())}});
    k = j;
  }

  // One pass: `starts` counts the region starts in [0, i), so at a key's
  // first record it is the key's rank.
  std::uint64_t starts = 0;
  std::uint64_t i = 0;
  const auto scan_to = [&](std::uint64_t end) {
    if (i == end) return;
    if (i == 0) {
      starts = 1;  // record 0 always starts a region
      i = 1;
    }
    std::uint64_t found = 0;
    for (; i < end; ++i) found += sorted[i].u != sorted[i - 1].u ? 1 : 0;
    starts += found;
  };
  const auto tasklets = static_cast<std::uint32_t>(counts.size());
  auto key = keys.begin();
  for (std::uint32_t t = 0; t < tasklets; ++t) {
    const Block blk = block_of(n, t, tasklets);
    const std::uint64_t before = starts;
    for (; key != keys.end() && key->region.begin < blk.end; ++key) {
      scan_to(key->region.begin);
      key->rank = starts;
    }
    scan_to(blk.end);
    counts[t] = starts - before;
  }
  return starts;
}

void charge_region_index(pim::Dpu& dpu, std::uint32_t buffer_edges,
                         std::uint64_t n,
                         std::span<const std::uint64_t> counts) {
  if (n == 0) return;
  const auto tasklets = static_cast<std::uint32_t>(counts.size());
  // Each pass streams the tasklet's block and reads the record before it.
  const auto charge_scan = [&](Tasklet& t, const Block& blk) {
    if (blk.begin > 0) t.charge_dma(1, sizeof(Edge));
    charge_stream<Edge>(t, blk.end - blk.begin, buffer_edges);
    t.instr((blk.end - blk.begin) * Cost::region_scan_step);
  };

  dpu.wram().reset();
  dpu.parallel(tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), tasklets);
    if (blk.begin >= blk.end) return;
    (void)dpu.wram().alloc<Edge>(buffer_edges);
    charge_scan(t, blk);
  });

  // Exclusive prefix over per-tasklet counts (tasklet 0 on real hardware).
  dpu.serial_instr(tasklets * 2ull);

  dpu.wram().reset();
  dpu.parallel(tasklets, [&](Tasklet& t) {
    const Block blk = block_of(n, t.id(), tasklets);
    if (blk.begin >= blk.end) return;
    (void)dpu.wram().alloc<Edge>(buffer_edges);
    (void)dpu.wram().alloc<RegionEntry>(buffer_edges);
    charge_scan(t, blk);
    charge_stream<RegionEntry>(t, counts[t.id()], buffer_edges);
  });
}

void RegionCache::charge_build(pim::Dpu& dpu, std::uint32_t tasklets,
                               std::uint32_t buffer_edges,
                               std::uint64_t num_regions, bool enabled) {
  num_regions_ = num_regions;
  stride_ = 1;
  stride_inv_ = 0;
  slots_ = 0;
  if (num_regions == 0 || !enabled) return;
  stride_ = ceil_div(num_regions, kSlots);
  if (stride_ > 1) stride_inv_ = ~std::uint64_t{0} / stride_ + 1;
  slots_ = ceil_div(num_regions, stride_);
  dpu.wram().reset();
  dpu.parallel(tasklets, [&](Tasklet& t) {
    const Block blk = block_of(num_regions, t.id(), tasklets);
    if (blk.begin >= blk.end) return;
    (void)dpu.wram().alloc<RegionEntry>(buffer_edges * 2);
    charge_stream<RegionEntry>(t, blk.end - blk.begin, buffer_edges * 2);
    t.instr(2 * (blk.end - blk.begin));
  });
}

void RegionCache::build(pim::Dpu& dpu, std::uint32_t tasklets,
                        std::uint32_t buffer_edges,
                        std::span<const RegionEntry> regions, std::uint64_t n,
                        bool enabled) {
  charge_build(dpu, tasklets, buffer_edges, regions.size(), enabled);
  keys_ = {};
  keyed_ = false;
  regions_ = regions;
  n_ = n;
  index_nodes();
  steps_.clear();
  if (slots_ != 0) {
    steps_.resize(slots_ + 1);
    fill_search_steps(steps_.data(), slots_, 0);
  }
}

void RegionCache::build(pim::Dpu& dpu, std::uint32_t tasklets,
                        std::uint32_t buffer_edges, std::uint64_t num_regions,
                        std::span<const KeyRegion> keys, bool enabled) {
  charge_build(dpu, tasklets, buffer_edges, num_regions, enabled);
  keys_ = keys;
  keyed_ = true;
  regions_ = {};
  n_ = 0;
  rank_.clear();
  exact_ = false;
  steps_.clear();
}

void RegionCache::index_nodes() {
  rank_.clear();
  exact_ = false;
  // Remapped hub ids sit just below 2^32, so counting them in the id range
  // would stretch the bitmap past its limit; their few regions are binary
  // searched instead.
  dense_ = static_cast<std::uint64_t>(
      std::lower_bound(regions_.begin(), regions_.end(),
                       remapped_id(MramLayout::kMaxRemap - 1), node_below) -
      regions_.begin());
  if (dense_ == 0) return;
  base_ = regions_.front().node;
  top_ = regions_[dense_ - 1].node;
  last_ = top_ - base_;
  const std::uint64_t max_words =
      std::max<std::uint64_t>(kRankBitmapBytes / sizeof(std::uint64_t), n_);
  if (last_ / 64 >= max_words) return;  // too wide: binary searched
  exact_ = true;
  rank_.resize(last_ / 64 + 1);
  for (std::uint64_t i = 0; i < dense_; ++i) {
    const std::uint64_t b = regions_[i].node - base_;
    rank_[b / 64].bits |= std::uint64_t{1} << (b % 64);
  }
  std::uint32_t below = 0;
  for (RankWord& w : rank_) {
    w.below = below;
    below += static_cast<std::uint32_t>(popcount64(w.bits));
  }
}

KeyRegion RegionCache::resolve_apart(NodeId key) const {
  if (keyed_) {
    const auto it = std::lower_bound(
        keys_.begin(), keys_.end(), key,
        [](const KeyRegion& k, NodeId x) { return k.node < x; });
    if (it == keys_.end() || it->node != key) {
      throw std::logic_error("find_region: key outside the launch's key list");
    }
    return *it;
  }
  // Below every real node: rank 0, absent.  Above them: the remapped tail.
  // Between them (the bitmap does not cover their span): every real node.
  if (dense_ != 0 && key < base_) return {key, 0, {}};
  const std::uint64_t from = key > top_ ? dense_ : 0;
  const std::uint64_t r = static_cast<std::uint64_t>(
      std::lower_bound(regions_.begin() + static_cast<std::ptrdiff_t>(from),
                       regions_.end(), key, node_below) -
      regions_.begin());
  if (r == regions_.size() || regions_[r].node != key) return {key, r, {}};
  return {key, r, region_at(r)};
}

bool choose_gallop(IntersectPolicy policy, std::uint64_t small_size,
                   std::uint64_t large_size) noexcept {
  if (policy == IntersectPolicy::kMerge) return false;
  if (policy == IntersectPolicy::kGallop) return true;
  const std::uint64_t gallop_cost =
      small_size * (ceil_log2(large_size + 1) + 2);
  return gallop_cost * kGallopMargin < small_size + large_size;
}

std::uint64_t gallop_lower_bound(std::span<const Edge> sorted,
                                 const Region& r, NodeId w,
                                 IntersectTally& tally, std::uint64_t& instr,
                                 DmaTally& dma) {
  std::uint64_t lo = r.begin;
  std::uint64_t hi = r.end;
  std::uint64_t probes = 0;
  while (hi - lo > 8) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const std::uint64_t b = std::min(std::max(mid, lo + 4), hi - 4) - 4;
    const Edge* block = sorted.data() + b;
    if (block[0].v >= w) {
      hi = b + 1;
    } else if (block[7].v < w) {
      lo = b + 8;
    } else {
      // Resolve within the block.
      lo = b;
      for (int i = 7; i >= 0; --i) {
        if (block[i].v < w) {
          lo = b + i + 1;
          break;
        }
      }
      hi = lo;
    }
    ++probes;
  }
  dma.add(probes, probes * 8 * sizeof(Edge));
  instr += probes * (Cost::binary_search_step + 8);
  if (hi != lo) {
    // Final linear resolve over the <= 8 remaining entries.
    const std::uint64_t fetch = hi - lo;
    dma.add(1, fetch * sizeof(Edge));
    instr += Cost::binary_search_step + fetch;
    ++probes;
    const Edge* block = sorted.data() + lo;
    std::uint64_t i = 0;
    while (i < fetch && block[i].v < w) ++i;
    lo += i;
  }
  tally.gallop_probes += probes;
  return lo;
}

}  // namespace pimtc::tc
