#include "tc/intersect.hpp"

#include <stdexcept>
#include <string>

namespace pimtc::tc {
namespace {

using pim::Tasklet;
using Cost = pim::KernelCostModel;

/// Binary search restricted to a cache-provided window: index of the first
/// region with node >= key.  Each probe is an 8-byte DMA read.
std::uint64_t lower_bound_region_window(Tasklet& t, std::uint64_t reg,
                                        NodeId key, std::uint64_t lo,
                                        std::uint64_t hi) {
  std::uint64_t instr = 0;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const auto entry =
        t.mram_read_t<RegionEntry>(reg + mid * sizeof(RegionEntry));
    if (entry.node < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
    instr += Cost::binary_search_step;
  }
  t.instr(instr);
  return lo;
}

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

RegionCache::RegionCache(pim::Dpu& dpu, std::uint32_t tasklets,
                         std::uint32_t buffer_edges, std::uint64_t reg,
                         std::uint64_t num_regions, bool enabled)
    : num_regions_(num_regions) {
  if (num_regions == 0 || !enabled) return;
  stride_ = ceil_div(num_regions, kSlots);
  cache_.resize(ceil_div(num_regions, stride_));
  dpu.wram().reset();
  dpu.parallel(tasklets, [&](Tasklet& t) {
    // Each tasklet streams a contiguous block of the table through a WRAM
    // buffer and keeps the stride-aligned entries — sequential DMA, not
    // per-entry bursts.
    const Block blk = block_of(num_regions, t.id(), tasklets);
    if (blk.begin >= blk.end) return;
    auto buf = dpu.wram().alloc<RegionEntry>(buffer_edges * 2);
    StreamReader<RegionEntry> reader(t, buf, reg, blk.begin, blk.end);
    RegionEntry entry;
    std::uint64_t instr = 0;
    while (reader.next(entry)) {
      const std::uint64_t i = reader.last_index();
      if (i % stride_ == 0) cache_[i / stride_] = entry;
      instr += 2;
    }
    t.instr(instr);
  });
}

std::pair<std::uint64_t, std::uint64_t> RegionCache::window(
    NodeId key, std::uint64_t& instr) const {
  if (cache_.empty()) return {0, num_regions_};
  // upper_bound over the sampled nodes (WRAM-resident, cheap).
  std::size_t lo = 0;
  std::size_t hi = cache_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cache_[mid].node <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
    instr += 3;
  }
  const std::uint64_t begin = lo == 0 ? 0 : (lo - 1) * stride_;
  const std::uint64_t end =
      std::min<std::uint64_t>(num_regions_, lo * stride_ + 1);
  return {begin, end};
}

Region find_region(Tasklet& t, std::uint64_t reg, std::uint64_t num_regions,
                   NodeId key, std::uint64_t n, const RegionCache& cache) {
  std::uint64_t instr = 0;
  const auto [w_lo, w_hi] = cache.window(key, instr);
  t.instr(instr);

  // Narrow window (fine-grained cache): fetch the whole window plus the
  // successor entry in one burst and resolve in WRAM.
  if (w_hi - w_lo <= 6) {
    RegionEntry win[8] = {};
    const std::uint64_t fetch =
        std::min<std::uint64_t>(w_hi - w_lo + 1, num_regions - w_lo);
    t.mram_read(reg + w_lo * sizeof(RegionEntry), win,
                fetch * sizeof(RegionEntry));
    t.instr(Cost::binary_search_step + fetch * 2);
    for (std::uint64_t i = 0; i < fetch; ++i) {
      if (win[i].node == key) {
        const std::uint64_t end =
            (i + 1 < fetch) ? win[i + 1].begin
            : (w_lo + i + 1 < num_regions)
                ? t.mram_read_t<RegionEntry>(reg + (w_lo + i + 1) *
                                                       sizeof(RegionEntry))
                      .begin
                : n;
        return {win[i].begin, end};
      }
    }
    return {~0ull, ~0ull};
  }

  const std::uint64_t r = lower_bound_region_window(t, reg, key, w_lo, w_hi);
  if (r >= num_regions) return {~0ull, ~0ull};
  // Fetch entries r and r+1 in one 16-byte burst (region end = next begin).
  RegionEntry pair[2] = {};
  const std::size_t fetch = r + 1 < num_regions ? 2 : 1;
  t.mram_read(reg + r * sizeof(RegionEntry), pair,
              fetch * sizeof(RegionEntry));
  t.instr(Cost::binary_search_step);
  if (pair[0].node != key) return {~0ull, ~0ull};
  return {pair[0].begin, fetch == 2 ? pair[1].begin : n};
}

bool choose_gallop(IntersectPolicy policy, std::uint64_t small_size,
                   std::uint64_t large_size) noexcept {
  if (policy == IntersectPolicy::kMerge) return false;
  if (policy == IntersectPolicy::kGallop) return true;
  const std::uint64_t gallop_cost =
      small_size * (ceil_log2(large_size + 1) + 2);
  return gallop_cost * kGallopMargin < small_size + large_size;
}

std::uint64_t gallop_lower_bound(Tasklet& t, std::uint64_t sorted,
                                 const Region& r, NodeId w,
                                 IntersectTally& tally, std::uint64_t& instr) {
  std::uint64_t lo = r.begin;
  std::uint64_t hi = r.end;
  std::uint64_t probes = 0;
  Edge block[8];
  while (hi - lo > 8) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const std::uint64_t b = std::min(std::max(mid, lo + 4), hi - 4) - 4;
    t.mram_read(sorted + b * sizeof(Edge), block, sizeof(block));
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
  instr += probes * (Cost::binary_search_step + 8);
  if (hi != lo) {
    // Final linear resolve over the <= 8 remaining entries.
    const std::uint64_t fetch = hi - lo;
    t.mram_read(sorted + lo * sizeof(Edge), block, fetch * sizeof(Edge));
    instr += Cost::binary_search_step + fetch;
    ++probes;
    std::uint64_t i = 0;
    while (i < fetch && block[i].v < w) ++i;
    lo += i;
  }
  tally.gallop_probes += probes;
  return lo;
}

}  // namespace pimtc::tc
