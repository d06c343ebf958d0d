// Universal hashing over node IDs.
//
// The coloring step of the algorithm (paper Section 3.1) colors node u with
//     h_C(u) = ((a*u + b) mod p) mod C
// where p is a large prime, a in [1, p-1] and b in [0, p-1] are drawn at
// random.  This is the classic Carter-Wegman multiply-add family; with p
// prime it is 2-universal, which is what guarantees the near-even color
// distribution the partitioning relies on.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/prng.hpp"
#include "common/types.hpp"

namespace pimtc {

/// The Mersenne prime 2^61 - 1.  Large enough that node IDs (32-bit) never
/// alias, and reduction mod p can be done without 128-bit division.
inline constexpr std::uint64_t kMersenne61 = (1ull << 61) - 1;

/// Reduces a 128-bit product modulo 2^61 - 1 using the Mersenne identity
/// x mod (2^61-1) = (x >> 61) + (x & (2^61-1)), applied twice.
[[nodiscard]] constexpr std::uint64_t mod_mersenne61(__uint128_t x) noexcept {
  std::uint64_t r = static_cast<std::uint64_t>(x >> 61) +
                    static_cast<std::uint64_t>(x & kMersenne61);
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

/// Carter-Wegman multiply-add hash h(u) = ((a*u + b) mod p) mod C with
/// p = 2^61 - 1.  Immutable after construction; cheap to copy into every
/// host thread.
class ColorHash {
 public:
  /// Draws a, b from the given seed.  `num_colors` must be >= 1.
  ColorHash(std::uint32_t num_colors, std::uint64_t seed) noexcept
      : num_colors_(num_colors) {
    Xoshiro256ss rng(seed);
    a_ = 1 + rng.next_below(kMersenne61 - 1);  // a in [1, p-1]
    b_ = rng.next_below(kMersenne61);          // b in [0, p-1]
  }

  /// Fully specified constructor (used by tests to pin the hash).
  ColorHash(std::uint32_t num_colors, std::uint64_t a, std::uint64_t b) noexcept
      : num_colors_(num_colors), a_(a % kMersenne61), b_(b % kMersenne61) {
    if (a_ == 0) a_ = 1;
  }

  [[nodiscard]] std::uint32_t num_colors() const noexcept { return num_colors_; }
  [[nodiscard]] std::uint64_t a() const noexcept { return a_; }
  [[nodiscard]] std::uint64_t b() const noexcept { return b_; }

  /// Color of node u, in [0, num_colors).
  [[nodiscard]] std::uint32_t operator()(NodeId u) const noexcept {
    const __uint128_t prod = static_cast<__uint128_t>(a_) * u + b_;
    return static_cast<std::uint32_t>(mod_mersenne61(prod) % num_colors_);
  }

 private:
  std::uint32_t num_colors_;
  std::uint64_t a_;
  std::uint64_t b_;
};

/// 64-bit mix used wherever a stateless scramble of an integer is needed
/// (hash tables, sharding work across threads).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Streaming XXH64 (Yann Collet's xxHash, 64-bit variant) — the payload
/// checksum of the `.pbin` edge format.  Streaming matters there: the
/// chunked reader verifies a multi-gigabyte payload chunk-at-a-time without
/// ever holding more than one chunk, and the writer folds each appended
/// chunk into the running state.  update() in any split of the input
/// produces the same digest as one call over the concatenation.
class Xxh64 {
 public:
  explicit Xxh64(std::uint64_t seed = 0) noexcept { reset(seed); }

  void reset(std::uint64_t seed = 0) noexcept {
    v1_ = seed + kP1 + kP2;
    v2_ = seed + kP2;
    v3_ = seed;
    v4_ = seed - kP1;
    seed_ = seed;
    total_ = 0;
    buffered_ = 0;
  }

  void update(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += len;
    if (buffered_ + len < 32) {  // not enough for a stripe yet
      for (std::size_t i = 0; i < len; ++i) buf_[buffered_ + i] = p[i];
      buffered_ += len;
      return;
    }
    if (buffered_ > 0) {  // complete the carried stripe
      const std::size_t take = 32 - buffered_;
      for (std::size_t i = 0; i < take; ++i) buf_[buffered_ + i] = p[i];
      consume_stripe(buf_);
      p += take;
      len -= take;
      buffered_ = 0;
    }
    while (len >= 32) {
      consume_stripe(p);
      p += 32;
      len -= 32;
    }
    for (std::size_t i = 0; i < len; ++i) buf_[i] = p[i];
    buffered_ = len;
  }

  /// Digest of everything updated so far; the state stays usable (more
  /// update() calls continue the same stream).
  [[nodiscard]] std::uint64_t digest() const noexcept {
    std::uint64_t h;
    if (total_ >= 32) {
      h = rotl(v1_, 1) + rotl(v2_, 7) + rotl(v3_, 12) + rotl(v4_, 18);
      h = (h ^ round(0, v1_)) * kP1 + kP4;
      h = (h ^ round(0, v2_)) * kP1 + kP4;
      h = (h ^ round(0, v3_)) * kP1 + kP4;
      h = (h ^ round(0, v4_)) * kP1 + kP4;
    } else {
      h = seed_ + kP5;
    }
    h += total_;
    const unsigned char* p = buf_;
    std::size_t len = buffered_;
    while (len >= 8) {
      h = rotl(h ^ round(0, read64(p)), 27) * kP1 + kP4;
      p += 8;
      len -= 8;
    }
    if (len >= 4) {
      h = rotl(h ^ (static_cast<std::uint64_t>(read32(p)) * kP1), 23) * kP2 +
          kP3;
      p += 4;
      len -= 4;
    }
    while (len > 0) {
      h = rotl(h ^ (*p * kP5), 11) * kP1;
      ++p;
      --len;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
  static constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  static constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
  static constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
  static constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;

  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int r) noexcept {
    return (x << r) | (x >> (64 - r));
  }
  [[nodiscard]] static constexpr std::uint64_t round(
      std::uint64_t acc, std::uint64_t lane) noexcept {
    return rotl(acc + lane * kP2, 31) * kP1;
  }
  [[nodiscard]] static std::uint64_t read64(const unsigned char* p) noexcept {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];  // little-endian
    return v;
  }
  [[nodiscard]] static std::uint32_t read32(const unsigned char* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
  void consume_stripe(const unsigned char* p) noexcept {
    v1_ = round(v1_, read64(p));
    v2_ = round(v2_, read64(p + 8));
    v3_ = round(v3_, read64(p + 16));
    v4_ = round(v4_, read64(p + 24));
  }

  std::uint64_t v1_, v2_, v3_, v4_;
  std::uint64_t seed_ = 0;
  std::uint64_t total_ = 0;
  unsigned char buf_[32] = {};
  std::size_t buffered_ = 0;
};

}  // namespace pimtc
