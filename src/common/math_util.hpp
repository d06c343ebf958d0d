// Small numeric helpers used across the sampling estimators and the
// coloring layout math.
#pragma once

#include <bit>
#include <cstdint>

namespace pimtc {

/// binom(n, k) in 64 bits; callers only need tiny n (number of colors <= 64),
/// so overflow is not a practical concern but is still guarded.
[[nodiscard]] std::uint64_t binomial(std::uint64_t n, std::uint64_t k) noexcept;

/// Number of PIM cores required by C colors: the count of ordered color
/// triplets i <= j <= k, i.e. multisets of size 3 = binom(C+2, 3).
[[nodiscard]] std::uint64_t num_triplets(std::uint32_t num_colors) noexcept;

/// Largest C such that binom(C+2,3) <= num_cores; how many colors a given
/// machine (e.g. 2560 DPUs) can sustain.  The paper uses C=23 -> 2300 DPUs
/// on a 2560-DPU system.
[[nodiscard]] std::uint32_t max_colors_for_cores(std::uint64_t num_cores) noexcept;

/// Reservoir-sampling correction factor (paper Section 3.3):
///   q = M(M-1)(M-2) / (t(t-1)(t-2)),   q = 1 when t <= M.
/// The per-core triangle count is divided by q.  Returns 0 when the sample
/// can never contain a triangle (M < 3 but t >= 3), in which case the count
/// is necessarily 0 as well and the caller treats the core as contributing
/// nothing.
[[nodiscard]] double reservoir_correction(std::uint64_t sample_capacity,
                                          std::uint64_t edges_seen) noexcept;

/// DOULION correction: an estimator for the true count given a count over a
/// graph whose edges were kept independently with probability p (divide by
/// p^3).  p must be in (0, 1].
[[nodiscard]] double uniform_sampling_correction(double keep_probability) noexcept;

/// Relative error |estimate - truth| / truth, with the paper's convention
/// that truth == 0 yields 0 when estimate == 0 and infinity otherwise, and
/// counting zero triangles against a nonzero truth gives 100%.
[[nodiscard]] double relative_error(double estimate, double truth) noexcept;

/// Integer ceil division.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

/// Round `a` up to a multiple of `b` (transfer alignment in the PIM model).
[[nodiscard]] constexpr std::uint64_t round_up(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  return ceil_div(a, b) * b;
}

/// Set bits of `x`, by the SWAR reduction.  std::popcount compiles to a
/// library call on x86-64 builds without -mpopcnt, the portable default;
/// this stays a few inline instructions everywhere.
[[nodiscard]] constexpr std::uint64_t popcount64(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
}

/// ceil(log2(n)) for n >= 1; 0 for n <= 1.  Sort-pass and binary-search
/// depth bounds in the kernel cost model.
[[nodiscard]] constexpr std::uint32_t ceil_log2(std::uint64_t n) noexcept {
  return n <= 1 ? 0 : static_cast<std::uint32_t>(64 - std::countl_zero(n - 1));
}

}  // namespace pimtc
