// Unit tests for src/common: types, PRNG, hashing, thread pool, math.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <ctime>
#include <future>
#include <numeric>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/math_util.hpp"
#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace pimtc {
namespace {

// ---- Edge -------------------------------------------------------------------

TEST(EdgeTest, LexicographicOrderMatchesPaperDefinition) {
  // (u,v) < (w,z) <=> u < w or (u == w and v < z).
  EXPECT_LT((Edge{1, 5}), (Edge{2, 0}));
  EXPECT_LT((Edge{1, 5}), (Edge{1, 6}));
  EXPECT_FALSE((Edge{2, 0}) < (Edge{1, 9}));
  EXPECT_EQ((Edge{3, 4}), (Edge{3, 4}));
}

TEST(EdgeTest, CanonicalPutsSmallerEndpointFirst) {
  EXPECT_EQ((Edge{7, 2}.canonical()), (Edge{2, 7}));
  EXPECT_EQ((Edge{2, 7}.canonical()), (Edge{2, 7}));
  EXPECT_EQ((Edge{5, 5}.canonical()), (Edge{5, 5}));
}

TEST(EdgeTest, LoopDetection) {
  EXPECT_TRUE((Edge{3, 3}.is_loop()));
  EXPECT_FALSE((Edge{3, 4}.is_loop()));
}

TEST(EdgeTest, KeyRoundTrips) {
  const Edge e{0xdeadbeef, 0x12345678};
  EXPECT_EQ(edge_from_key(edge_key(e)), e);
}

TEST(EdgeTest, ReversedSwapsEndpoints) {
  EXPECT_EQ((Edge{1, 2}.reversed()), (Edge{2, 1}));
}

// ---- PRNG -------------------------------------------------------------------

TEST(PrngTest, SplitMixIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(PrngTest, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LE(equal, 1);
}

TEST(PrngTest, XoshiroNextDoubleInUnitInterval) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(PrngTest, NextBelowStaysBelowBound) {
  Xoshiro256ss rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(PrngTest, NextBelowIsRoughlyUniform) {
  Xoshiro256ss rng(11);
  constexpr std::uint64_t kBuckets = 8;
  constexpr int kDraws = 80000;
  std::vector<int> hist(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++hist[rng.next_below(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (const int h : hist) {
    EXPECT_NEAR(h, expected, expected * 0.1);
  }
}

TEST(PrngTest, BernoulliExtremes) {
  Xoshiro256ss rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.next_bernoulli(1.0));
    EXPECT_FALSE(rng.next_bernoulli(0.0));
  }
}

TEST(PrngTest, BernoulliMeanConverges) {
  Xoshiro256ss rng(17);
  const double p = 0.3;
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) heads += rng.next_bernoulli(p);
  EXPECT_NEAR(static_cast<double>(heads) / n, p, 0.01);
}

TEST(PrngTest, DeriveSeedSeparatesStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 100; ++s) seeds.insert(derive_seed(42, s));
  EXPECT_EQ(seeds.size(), 100u);
}

// ---- ColorHash --------------------------------------------------------------

TEST(ColorHashTest, OutputInRange) {
  const ColorHash h(7, std::uint64_t{123});
  for (NodeId u = 0; u < 10000; ++u) EXPECT_LT(h(u), 7u);
}

TEST(ColorHashTest, DeterministicPerSeed) {
  const ColorHash a(5, std::uint64_t{99});
  const ColorHash b(5, std::uint64_t{99});
  for (NodeId u = 0; u < 1000; ++u) EXPECT_EQ(a(u), b(u));
}

TEST(ColorHashTest, SingleColorAlwaysZero) {
  const ColorHash h(1, std::uint64_t{5});
  for (NodeId u = 0; u < 100; ++u) EXPECT_EQ(h(u), 0u);
}

TEST(ColorHashTest, ColorsAreEvenlyDistributed) {
  // 2-universal family: each color class should get ~N/C nodes.
  constexpr std::uint32_t kColors = 13;
  constexpr NodeId kNodes = 130000;
  const ColorHash h(kColors, std::uint64_t{2024});
  std::vector<int> hist(kColors, 0);
  for (NodeId u = 0; u < kNodes; ++u) ++hist[h(u)];
  const double expected = static_cast<double>(kNodes) / kColors;
  for (const int c : hist) EXPECT_NEAR(c, expected, expected * 0.05);
}

TEST(ColorHashTest, Mersenne61Reduction) {
  EXPECT_EQ(mod_mersenne61(0), 0u);
  EXPECT_EQ(mod_mersenne61(kMersenne61), 0u);
  EXPECT_EQ(mod_mersenne61(kMersenne61 + 5), 5u);
  const __uint128_t big = static_cast<__uint128_t>(kMersenne61) * 7 + 3;
  EXPECT_EQ(mod_mersenne61(big), 3u);
}

// ---- Xxh64 ------------------------------------------------------------------

TEST(Xxh64Test, MatchesPublishedDigests) {
  // The .pbin checksum must agree with every other XXH64 implementation,
  // not only with this repo's writer: pin the reference digests (seed 0).
  const auto digest = [](std::string_view s) {
    Xxh64 h;
    h.update(s.data(), s.size());
    return h.digest();
  };
  EXPECT_EQ(digest(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(digest("abc"), 0x44bc2cf5ad770999ull);
  // 39 bytes: one full 32-byte stripe plus a tail.
  const std::string_view spam = "Nobody inspects the spammish repetition";
  ASSERT_EQ(spam.size(), 39u);
  EXPECT_EQ(digest(spam), 0xfbcea83c8a378bf1ull);

  // Split 5 + 30 + 4: the middle piece completes the carried stripe.
  Xxh64 split;
  split.update(spam.data(), 5);
  split.update(spam.data() + 5, 30);
  split.update(spam.data() + 35, 4);
  EXPECT_EQ(split.digest(), 0xfbcea83c8a378bf1ull);
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelChunksPartitionExactly) {
  ThreadPool pool(3);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_chunks(100, [&](std::size_t, std::size_t lo, std::size_t hi) {
    std::lock_guard lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expect = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GT(hi, lo);
    expect = hi;
  }
  EXPECT_EQ(expect, 100u);
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool must remain usable afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
  std::future<void> g = pool.submit([] {});
  g.get();  // void futures propagate completion too
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives the throw: the pool keeps serving new tasks.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ParallelChunksFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_chunks(3, [&](std::size_t, std::size_t lo, std::size_t hi) {
    std::lock_guard lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::size_t expect = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GT(hi, lo);
    expect = hi;
  }
  EXPECT_EQ(expect, 3u);
}

TEST(ThreadPoolTest, ParallelChunksZeroItemsIsNoop) {
  ThreadPool pool(4);
  pool.parallel_chunks(0, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "must not be called";
  });
}

TEST(ThreadPoolTest, ConcurrentCallersDoNotShareCompletionOrErrors) {
  // Two threads drive parallel_for on the SAME pool at once: each call must
  // wait only on its own tasks, and an exception in one caller's tasks must
  // never surface in the other's.
  ThreadPool pool(4);
  std::atomic<int> clean_sum{0};
  std::atomic<bool> clean_done{false};
  std::thread thrower([&] {
    for (int round = 0; round < 20; ++round) {
      EXPECT_THROW(pool.parallel_for(32,
                                     [](std::size_t i) {
                                       if (i % 5 == 0) {
                                         throw std::runtime_error("mine");
                                       }
                                     }),
                   std::runtime_error);
    }
  });
  std::thread counter([&] {
    for (int round = 0; round < 20; ++round) {
      pool.parallel_for(32, [&](std::size_t) { ++clean_sum; });
    }
    clean_done = true;
  });
  thrower.join();
  counter.join();
  EXPECT_TRUE(clean_done.load());
  EXPECT_EQ(clean_sum.load(), 20 * 32);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A parallel_for issued from inside a pool worker must not wait on the
  // pool it occupies; nested calls fall back to caller-runs-inline.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);

  // Same through submit(): a task fanning out on its own pool completes.
  std::future<int> f = pool.submit([&] {
    std::atomic<int> n{0};
    pool.parallel_chunks(10, [&](std::size_t, std::size_t lo, std::size_t hi) {
      n += static_cast<int>(hi - lo);
    });
    return n.load();
  });
  EXPECT_EQ(f.get(), 10);
}

TEST(ThreadPoolTest, IdleWorkersBlockAfterPolling) {
  // An idle worker polls for a task for at most ThreadPool::kIdlePoll (1 ms)
  // and then blocks, so a pool with no work costs no CPU.
  ThreadPool pool(4);
  pool.parallel_for(4, [](std::size_t) {});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::clock_t before = std::clock();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double cpu_s =
      static_cast<double>(std::clock() - before) / CLOCKS_PER_SEC;
  EXPECT_LT(cpu_s, 0.05) << "idle workers kept polling";
}

TEST(ThreadPoolTest, OnPoolThreadDistinguishesInsideFromOutside) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_pool_thread());
  EXPECT_TRUE(pool.submit([&] { return pool.on_pool_thread(); }).get());
  // A different pool's worker is "outside" this pool.
  ThreadPool other(1);
  EXPECT_FALSE(other.submit([&] { return pool.on_pool_thread(); }).get());
}

// ---- math_util --------------------------------------------------------------

TEST(MathTest, Popcount64MatchesStdPopcount) {
  Xoshiro256ss rng(3);
  std::vector<std::uint64_t> xs = {0, 1, ~0ull, 1ull << 63,
                                   0x5555555555555555ull,
                                   0xaaaaaaaaaaaaaaaaull};
  for (int i = 0; i < 1000; ++i) xs.push_back(rng() & rng());
  for (const std::uint64_t x : xs) {
    EXPECT_EQ(popcount64(x), static_cast<std::uint64_t>(std::popcount(x))) << x;
  }
}

TEST(MathTest, BinomialBasics) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(5, 6), 0u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(MathTest, NumTripletsMatchesPaper) {
  // binom(C+2, 3); the paper's 23 colors -> 2300 DPUs.
  EXPECT_EQ(num_triplets(1), 1u);
  EXPECT_EQ(num_triplets(2), 4u);
  EXPECT_EQ(num_triplets(3), 10u);
  EXPECT_EQ(num_triplets(23), 2300u);
}

TEST(MathTest, MaxColorsForCores) {
  EXPECT_EQ(max_colors_for_cores(2560), 23u);  // the paper's machine
  EXPECT_EQ(max_colors_for_cores(2300), 23u);
  EXPECT_EQ(max_colors_for_cores(2299), 22u);
  EXPECT_EQ(max_colors_for_cores(1), 1u);
  EXPECT_EQ(max_colors_for_cores(0), 0u);
}

TEST(MathTest, ReservoirCorrectionIdentityWhenNotFull) {
  EXPECT_DOUBLE_EQ(reservoir_correction(100, 50), 1.0);
  EXPECT_DOUBLE_EQ(reservoir_correction(100, 100), 1.0);
}

TEST(MathTest, ReservoirCorrectionFormula) {
  // q = M(M-1)(M-2) / (t(t-1)(t-2)).
  const double q = reservoir_correction(10, 20);
  EXPECT_DOUBLE_EQ(q, (10.0 * 9.0 * 8.0) / (20.0 * 19.0 * 18.0));
}

TEST(MathTest, ReservoirCorrectionDegenerateCapacity) {
  EXPECT_DOUBLE_EQ(reservoir_correction(2, 10), 0.0);
  EXPECT_DOUBLE_EQ(reservoir_correction(0, 10), 0.0);
}

TEST(MathTest, UniformCorrectionIsInverseCube) {
  EXPECT_DOUBLE_EQ(uniform_sampling_correction(1.0), 1.0);
  EXPECT_DOUBLE_EQ(uniform_sampling_correction(0.5), 8.0);
  EXPECT_DOUBLE_EQ(uniform_sampling_correction(0.1), 1000.0);
}

TEST(MathTest, RelativeErrorConventions) {
  EXPECT_DOUBLE_EQ(relative_error(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(90, 100), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(0, 100), 1.0);  // "100%" rows in Table 3
  EXPECT_DOUBLE_EQ(relative_error(0, 0), 0.0);
  EXPECT_TRUE(std::isinf(relative_error(5, 0)));
}

TEST(MathTest, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(round_up(13, 8), 16u);
  EXPECT_EQ(round_up(16, 8), 16u);
}

}  // namespace
}  // namespace pimtc
