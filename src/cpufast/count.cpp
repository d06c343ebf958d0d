#include "cpufast/count.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/timer.hpp"

namespace pimtc::cpufast {

namespace {

/// Rows per dynamic work chunk.  Small enough that the hub-dense top of the
/// rank range spreads over every thread, large enough that the shared
/// counter is off the hot path.
constexpr std::uint64_t kChunkRows = 256;

/// Resolved neighbor row of one out-arc target: base offset + length in the
/// targets array.  Written by the resolve pass, consumed by the probe pass.
struct RowRef {
  std::uint32_t off;
  std::uint32_t len;
};

struct alignas(64) WorkerState {
  CountStats stats{};
  std::vector<std::uint64_t> bitmap;  // lazily sized to ceil(n / 64) words
  std::vector<RowRef> rows;           // per-source resolve-pass scratch
};

/// Number of set bitmap bits over the keys w in ws[0, n).  The AVX2 path
/// gathers eight 32-bit bitmap words per step and extracts each key's bit
/// with a variable shift; iterations are independent, so the gather's
/// parallel loads replace the scalar path's serialized load chain.  The
/// probe tally is n under either path.
std::uint64_t bitmap_count(const std::uint64_t* bitmap, const NodeId* ws,
                           std::size_t n) noexcept {
  std::uint64_t matches = 0;
  std::size_t i = 0;
#if defined(__AVX2__)
  const auto* words32 = reinterpret_cast<const int*>(bitmap);
  __m256i acc = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ws + i));
    const __m256i word =
        _mm256_i32gather_epi32(words32, _mm256_srli_epi32(w, 5), 4);
    const __m256i bit = _mm256_and_si256(
        _mm256_srlv_epi32(word, _mm256_and_si256(w, _mm256_set1_epi32(31))),
        _mm256_set1_epi32(1));
    acc = _mm256_add_epi32(acc, bit);
  }
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  for (const std::uint32_t lane : lanes) matches += lane;
#endif
  for (; i < n; ++i) {
    const NodeId w = ws[i];
    matches += (bitmap[w >> 6] >> (w & 63)) & 1ull;
  }
  return matches;
}

void count_from_source(const Dodg& g, NodeId u, WorkerState& ws) {
  const std::span<const NodeId> out_u = g.neighbors(u);
  const std::size_t du = out_u.size();
  if (du < 2) return;  // a triangle needs two out-neighbors of its apex
  CountStats& s = ws.stats;
  const std::uint32_t* offs = g.offsets().data();
  const NodeId* tgt = g.targets().data();

  // Resolve pass: fetch every neighbor row's bounds and prefetch its data.
  // Done up front so the per-pair miss chain (offsets[v], then the row
  // itself) turns into du independent in-flight misses instead of a
  // serialized two-deep chain per pair.
  ws.rows.resize(du);
  for (std::size_t i = 0; i < du; ++i) {
    const NodeId v = out_u[i];
    const std::uint32_t begin = offs[v];
    ws.rows[i] = {begin, offs[v + 1] - begin};
    __builtin_prefetch(tgt + begin);
  }

  if (ws.bitmap.empty()) {
    ws.bitmap.assign((static_cast<std::size_t>(g.num_nodes()) + 63) / 64, 0);
  }
  for (const NodeId v : out_u) {
    ws.bitmap[v >> 6] |= 1ull << (v & 63);
  }
  TriangleCount matches = 0;
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < du; ++i) {
    const RowRef row = ws.rows[i];
    matches += bitmap_count(ws.bitmap.data(), tgt + row.off, row.len);
    probes += row.len;
    ++s.bitmap_isects;
  }
  for (const NodeId v : out_u) {
    ws.bitmap[v >> 6] &= ~(1ull << (v & 63));
  }
  s.triangles += matches;
  s.bitmap_probes += probes;
}

}  // namespace

CountStats count_triangles(const Dodg& g, ThreadPool& pool) {
  WallTimer timer;
  const NodeId n = g.num_nodes();
  CountStats total;
  if (n == 0) {
    total.count_s = timer.elapsed_s();
    return total;
  }
  const std::size_t workers = std::max<std::size_t>(pool.size(), 1);
  std::vector<WorkerState> states(workers);
  std::atomic<std::uint64_t> next_chunk{0};
  const std::uint64_t num_chunks =
      (static_cast<std::uint64_t>(n) + kChunkRows - 1) / kChunkRows;
  pool.parallel_for(workers, [&](std::size_t t) {
    WorkerState& ws = states[t];
    for (;;) {
      const std::uint64_t chunk =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      ++ws.stats.chunks_claimed;
      const NodeId begin = static_cast<NodeId>(chunk * kChunkRows);
      const NodeId end = static_cast<NodeId>(
          std::min<std::uint64_t>(n, (chunk + 1) * kChunkRows));
      for (NodeId u = begin; u < end; ++u) {
        count_from_source(g, u, ws);
      }
    }
  });
  for (const WorkerState& ws : states) {
    const CountStats& s = ws.stats;
    total.triangles += s.triangles;
    total.bitmap_isects += s.bitmap_isects;
    total.bitmap_probes += s.bitmap_probes;
    total.chunks_claimed += s.chunks_claimed;
  }
  total.count_s = timer.elapsed_s();
  return total;
}

}  // namespace pimtc::cpufast
