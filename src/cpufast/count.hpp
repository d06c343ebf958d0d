// Thread-parallel bitmap triangle counting over a Dodg.
//
// Sources are claimed in fixed-size row chunks from a shared atomic counter
// (hub rows cluster at the top of the rank range, so static blocks would
// leave the last thread holding every hub).  Each source u with at least
// two out-neighbors splats N+(u) into a per-thread packed bitmap, and every
// w in N+(v), for each arc u -> v, becomes an O(1) membership probe (AVX2:
// eight gathered words per step) — the bitmap intersection TCIM builds on.
// Counters are deterministic across thread counts: a chunk contributes the
// same work whichever thread claims it.
#pragma once

#include <cstdint>

#include "common/thread_pool.hpp"
#include "cpufast/dodg.hpp"

namespace pimtc::cpufast {

/// Result + work counters of one counting pass (engine::KernelStats shape,
/// bitmap split).
struct CountStats {
  TriangleCount triangles = 0;
  std::uint64_t bitmap_isects = 0;  ///< (u,v) pairs resolved by bitmap
  std::uint64_t bitmap_probes = 0;  ///< bitmap membership tests
  std::uint64_t chunks_claimed = 0; ///< row chunks pulled from the counter
  double count_s = 0.0;             ///< wall-clock of the parallel section
};

[[nodiscard]] CountStats count_triangles(const Dodg& g, ThreadPool& pool);

}  // namespace pimtc::cpufast
