// Tests for the PIM system simulator: MRAM/WRAM capacity enforcement, DMA
// and pipeline cost model behaviour, transfer engine, phase accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "common/math_util.hpp"
#include "common/thread_pool.hpp"
#include "pim/config.hpp"
#include "pim/dpu.hpp"
#include "pim/mram.hpp"
#include "pim/system.hpp"
#include "pim/wram.hpp"

namespace pimtc::pim {
namespace {

PimSystemConfig small_config() {
  PimSystemConfig cfg;
  cfg.mram_bytes = 1 << 20;  // 1 MB banks keep tests light
  cfg.max_dpus = 64;
  return cfg;
}

// ---- MRAM ---------------------------------------------------------------------

TEST(MramTest, WriteReadRoundTrip) {
  MramBank bank(4096);
  const std::uint64_t value = 0x1122334455667788ull;
  bank.write_t(128, value);
  EXPECT_EQ(bank.read_t<std::uint64_t>(128), value);
  EXPECT_EQ(bank.high_water(), 136u);
}

TEST(MramTest, CapacityEnforced) {
  MramBank bank(256);
  std::vector<std::uint8_t> buf(300, 0xab);
  EXPECT_THROW(bank.write(0, buf.data(), buf.size()), PimMemoryError);
  EXPECT_NO_THROW(bank.write(0, buf.data(), 256));
  EXPECT_THROW(bank.write(255, buf.data(), 2), PimMemoryError);
}

TEST(MramTest, ReadOfUninitializedRegionReturnsZeros) {
  // Reads of never-written pages are deterministic zeros (DRAM after
  // reset), with no page-allocation side effect; reads past capacity still
  // throw.
  MramBank bank(1 << 20);
  bank.write_t<std::uint32_t>(0, 5);
  std::uint32_t out = 0xdeadbeef;
  bank.read(512, &out, sizeof(out));  // touched page, untouched bytes
  EXPECT_EQ(out, 0u);
  out = 0xdeadbeef;
  bank.read(512 << 10, &out, sizeof(out));  // never-touched page
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(bank.resident_bytes(), 64u << 10);  // the read allocated nothing
  EXPECT_THROW(bank.read((1 << 20) - 2, &out, sizeof(out)), PimMemoryError);
}

TEST(MramTest, AccessCallCountersTally) {
  MramBank bank(4096);
  const std::uint64_t v = 7;
  for (int i = 0; i < 5; ++i) bank.write_t(8 * i, v);
  std::uint64_t out = 0;
  bank.read(0, &out, sizeof(out));
  EXPECT_EQ(bank.write_calls(), 5u);
  EXPECT_EQ(bank.read_calls(), 1u);
}

TEST(MramTest, LazyGrowth) {
  MramBank bank(64ull << 20);
  EXPECT_EQ(bank.high_water(), 0u);
  EXPECT_EQ(bank.resident_bytes(), 0u);
  bank.write_t<std::uint8_t>(1000, 1);
  EXPECT_EQ(bank.high_water(), 1001u);
  // One 64 KB page resident, not 64 MB.
  EXPECT_EQ(bank.resident_bytes(), 64u << 10);
  // A deep write touches one more page only.
  bank.write_t<std::uint8_t>(32ull << 20, 1);
  EXPECT_EQ(bank.resident_bytes(), 2 * (64u << 10));
}

TEST(MramTest, SpanOverPartialAndWholePagesReadsBackExactly) {
  // [64 KB - 8, 128 KB + 8) covers page 1 whole, which skips the zero fill,
  // and pages 0 and 2 in part, whose other bytes must still read 0.
  constexpr std::size_t kPage = 64 << 10;
  MramBank bank(3 * kPage);
  std::vector<std::uint8_t> span(kPage + 16);
  std::iota(span.begin(), span.end(), std::uint8_t{1});
  bank.write(kPage - 8, span.data(), span.size());
  EXPECT_EQ(bank.resident_bytes(), 3 * kPage);

  std::vector<std::uint8_t> all(3 * kPage, 0xff);
  bank.read(0, all.data(), all.size());
  EXPECT_TRUE(std::equal(span.begin(), span.end(), all.begin() + kPage - 8));
  EXPECT_TRUE(std::all_of(all.begin(), all.begin() + kPage - 8,
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::all_of(all.begin() + 2 * kPage + 8, all.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

// ---- WRAM ---------------------------------------------------------------------

TEST(WramTest, AllocatesWithinCapacity) {
  WramArena arena(1024);
  const auto a = arena.alloc<std::uint64_t>(64);  // 512 bytes
  EXPECT_EQ(a.size(), 64u);
  const auto b = arena.alloc<std::uint8_t>(400);
  EXPECT_EQ(b.size(), 400u);
  EXPECT_THROW((void)arena.alloc<std::uint64_t>(64), PimMemoryError);
}

TEST(WramTest, ResetReclaimsEverything) {
  WramArena arena(256);
  (void)arena.alloc<std::uint8_t>(200);
  arena.reset();
  EXPECT_NO_THROW((void)arena.alloc<std::uint8_t>(200));
  EXPECT_GE(arena.high_water(), 200u);
}

TEST(WramTest, SixteenTaskletBuffersMustFit) {
  // The real constraint the kernels live under: 16 tasklets x buffer bytes
  // <= 64 KB.  17 x 4 KB must fail.
  WramArena arena(64 << 10);
  for (int t = 0; t < 16; ++t) {
    EXPECT_NO_THROW((void)arena.alloc<std::uint8_t>(4096)) << "tasklet " << t;
  }
  EXPECT_THROW((void)arena.alloc<std::uint8_t>(4096), PimMemoryError);
}

// ---- DPU cost model -------------------------------------------------------------

TEST(DpuCostTest, SaturatedPipelineIssuesOnePerCycle) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  dpu.parallel(16, [](Tasklet& t) { t.instr(1000); });
  // 16 tasklets x 1000 instr, >= 11 resident: total cycles ~ 16000.
  EXPECT_DOUBLE_EQ(dpu.cycles(), 16000.0);
}

TEST(DpuCostTest, UndersubscribedPipelineIsSlower) {
  const PimSystemConfig cfg = small_config();
  Dpu one(cfg, 0);
  one.parallel(1, [](Tasklet& t) { t.instr(1000); });
  // A single tasklet issues every 11 cycles.
  EXPECT_DOUBLE_EQ(one.cycles(), 11000.0);

  Dpu eleven(cfg, 1);
  eleven.parallel(11, [](Tasklet& t) { t.instr(1000); });
  EXPECT_DOUBLE_EQ(eleven.cycles(), 11000.0);  // 11 x 1000 x max(1, 11/11)
}

TEST(DpuCostTest, StragglerBoundsPhase) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  // One tasklet does all the work: phase >= work x pipeline depth.
  dpu.parallel(16, [](Tasklet& t) {
    if (t.id() == 0) t.instr(1000);
  });
  EXPECT_DOUBLE_EQ(dpu.cycles(), 11000.0);
}

TEST(DpuCostTest, DmaChargedWithSetupAndPerByte) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  std::vector<std::uint8_t> buf(2048, 7);
  dpu.parallel(1, [&](Tasklet& t) {
    t.mram_write(0, buf.data(), buf.size());
  });
  // One transfer: setup 77 + 2048 x 0.5 = 1101 cycles; DMA dominates the
  // phase (no instructions charged).
  EXPECT_DOUBLE_EQ(dpu.cycles(), 77.0 + 1024.0);
}

TEST(DpuCostTest, DmaAndComputeOverlap) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  std::vector<std::uint8_t> buf(1024, 1);
  dpu.parallel(16, [&](Tasklet& t) {
    t.mram_write(t.id() * 1024, buf.data(), buf.size());
    t.instr(10000);
  });
  // compute bound: 16 x 10000 = 160000 >> dma 16 x (77+512); max() wins.
  EXPECT_DOUBLE_EQ(dpu.cycles(), 160000.0);
}

TEST(DpuCostTest, FunctionalDataVisibleAfterDma) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  const std::uint64_t magic = 0xfeedface;
  dpu.parallel(2, [&](Tasklet& t) {
    if (t.id() == 0) t.mram_write_t(64, magic);
  });
  std::uint64_t out = 0;
  dpu.parallel(2, [&](Tasklet& t) {
    if (t.id() == 1) out = t.mram_read_t<std::uint64_t>(64);
  });
  EXPECT_EQ(out, magic);
}

TEST(DpuCostTest, NestedParallelForbidden) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  EXPECT_THROW(dpu.parallel(2,
                            [&](Tasklet&) {
                              dpu.parallel(2, [](Tasklet&) {});
                            }),
               std::logic_error);
}

TEST(DpuCostTest, ParallelUsableAfterBodyThrows) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  EXPECT_THROW(dpu.parallel(2,
                            [&](Tasklet&) {
                              (void)dpu.wram().alloc<std::uint8_t>(
                                  PimSystemConfig::wram_bytes + 1);
                            }),
               PimMemoryError);
  // The failed phase is dropped; the next one runs and is charged.
  dpu.parallel(16, [](Tasklet& t) { t.instr(1000); });
  EXPECT_DOUBLE_EQ(dpu.cycles(), 16000.0);
}

TEST(DpuCostTest, ClosedFormDmaChargeEqualsTransfers) {
  const PimSystemConfig cfg = small_config();
  std::vector<std::uint8_t> buf(100, 3);
  Dpu streamed(cfg, 0);
  streamed.parallel(3, [&](Tasklet& t) {
    t.mram_write(t.id() * 128, buf.data(), 100);  // 104 aligned bytes
    t.mram_read(t.id() * 128, buf.data(), 13);    // 16 aligned bytes
    t.instr(5);
  });
  Dpu charged(cfg, 1);
  charged.parallel(3, [](Tasklet& t) {
    t.charge_dma(2, 104 + 16);
    t.instr(5);
  });
  EXPECT_EQ(streamed.cycles(), charged.cycles());
  EXPECT_EQ(streamed.dma_transfers(), 6u);
  EXPECT_EQ(streamed.dma_bytes(), 3u * 120);
  EXPECT_EQ(charged.dma_transfers(), streamed.dma_transfers());
  EXPECT_EQ(charged.dma_bytes(), streamed.dma_bytes());
}

TEST(DpuCostTest, BadTaskletCountRejected) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  EXPECT_THROW(dpu.parallel(0, [](Tasklet&) {}), std::invalid_argument);
  EXPECT_THROW(dpu.parallel(cfg.max_tasklets + 1, [](Tasklet&) {}),
               std::invalid_argument);
}

TEST(DpuCostTest, ChargeDmaBulkCountsChunks) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  dpu.charge_dma_bulk(4096, 2048);  // 2 chunks
  EXPECT_DOUBLE_EQ(dpu.cycles(), 2 * 77.0 + 4096 * 0.5);
}

// ---- PimSystem ------------------------------------------------------------------

TEST(PimSystemTest, AllocationChargesSetupTime) {
  const PimSystemConfig cfg = small_config();
  PimSystem sys(cfg, 8);
  EXPECT_EQ(sys.num_dpus(), 8u);
  EXPECT_GT(sys.times().setup_s, 0.0);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, 0.0);
}

TEST(PimSystemTest, SetupGrowsWithRanks) {
  const PimSystemConfig cfg;  // default: 64 DPUs/rank, 2560 max
  const PimSystem small(cfg, 64);
  const PimSystem large(cfg, 2560);
  EXPECT_GT(large.times().setup_s, small.times().setup_s);
}

TEST(PimSystemTest, RejectsOverAllocation) {
  const PimSystemConfig cfg = small_config();  // max 64
  EXPECT_THROW(PimSystem(cfg, 65), std::invalid_argument);
  EXPECT_THROW(PimSystem(cfg, 0), std::invalid_argument);
}

TEST(PimSystemTest, LaunchTakesMaxOverDpus) {
  const PimSystemConfig cfg = small_config();
  PimSystem sys(cfg, 4);
  sys.reset_times();
  const std::vector<std::uint32_t> all = {0, 1, 2, 3};
  const PimSystem::LaunchReport report = sys.launch(
      all,
      [](Dpu& dpu) {
        // DPU i charges (i+1) x 1e6 instructions on a saturated pipeline.
        dpu.parallel(16, [&](Tasklet& t) {
          t.instr((dpu.id() + 1) * 62500ull);
        });
      },
      &PhaseTimes::count_s);
  const double expected_kernel_cycles = 4.0 * 62500.0 * 16.0;
  EXPECT_NEAR(sys.times().count_s,
              cfg.launch_overhead_s +
                  expected_kernel_cycles / (cfg.dpu_mhz * 1e6),
              1e-9);
  // The default fault plan is the perfect machine: every bank runs.
  EXPECT_EQ(report.ok, all);
  EXPECT_TRUE(report.transient.empty());
  EXPECT_TRUE(report.dead.empty());
}

TEST(PimSystemTest, LaunchRejectsBadIdsBeforeTouchingState) {
  // Every id is validated before a launch draw can mark its bank dead, so
  // a bad id throws instead of writing past the per-bank flags.
  PimSystem sys(small_config(), 4, nullptr,
                FaultPlan(FaultSpec::parse("launch-permanent=0.5")));
  const std::vector<std::uint32_t> ids = {1000};
  bool ran = false;
  EXPECT_THROW(
      (void)sys.launch(
          ids, [&](Dpu& /*dpu*/) { ran = true; }, &PhaseTimes::count_s),
      std::invalid_argument);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sys.dead_dpu_count(), 0u);
  EXPECT_EQ(sys.fault_stats().dead_dpus, 0u);
}

TEST(PimSystemTest, LaunchHandsOutBanksOneAtATime) {
  // Bank 0's kernel waits until the other 63 banks have run.  The workers
  // claim banks one at a time, so the other three run them all while bank
  // 0 waits; a worker handed a fixed block of banks would keep banks 1-15
  // behind bank 0 until the wait timed out.
  ThreadPool pool(4);
  PimSystem sys(small_config(), 64, &pool);
  std::vector<std::uint32_t> ids(64);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<std::atomic<int>> runs(ids.size());
  std::atomic<std::size_t> others{0};
  bool timed_out = false;  // written by bank 0's kernel alone
  const PimSystem::LaunchReport report = sys.launch(
      ids,
      [&](Dpu& dpu) {
        runs[dpu.id()].fetch_add(1);
        if (dpu.id() != 0) {
          others.fetch_add(1);
          return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (others.load() < ids.size() - 1) {
          if (std::chrono::steady_clock::now() > deadline) {
            timed_out = true;
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      &PhaseTimes::count_s);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(report.ok, ids);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "bank " << i;
  }
}

TEST(PimSystemTest, TransferTimeScalesWithBytes) {
  const PimSystemConfig cfg;
  const double t_small = cfg.transfer_seconds(1 << 20, 256, true);
  const double t_large = cfg.transfer_seconds(64 << 20, 256, true);
  EXPECT_GT(t_large, t_small);
  // Latency floor.
  EXPECT_GE(cfg.transfer_seconds(0, 256, true), cfg.host_xfer_latency_s);
}

TEST(PimSystemTest, FewRanksThrottleBandwidth) {
  const PimSystemConfig cfg;
  // Same bytes over 1 rank vs 20 ranks.
  const double narrow = cfg.transfer_seconds(256 << 20, 64, true);
  const double wide = cfg.transfer_seconds(256 << 20, 1280, true);
  EXPECT_GT(narrow, wide);
}

TEST(PimSystemTest, PullSlowerThanPush) {
  const PimSystemConfig cfg;
  EXPECT_GT(cfg.transfer_seconds(64 << 20, 2560, false),
            cfg.transfer_seconds(64 << 20, 2560, true));
}

TEST(PimSystemTest, PhaseChargesAccumulateIndependently) {
  const PimSystemConfig cfg = small_config();
  PimSystem sys(cfg, 2);
  sys.reset_times();
  sys.charge_host(0.5, &PhaseTimes::ingest_s);
  sys.charge_host(0.25, &PhaseTimes::count_s);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, 0.5);
  EXPECT_DOUBLE_EQ(sys.times().count_s, 0.25);
  EXPECT_DOUBLE_EQ(sys.times().total_s(), 0.75);
}

// ---- rank-aware transfer runtime ------------------------------------------

PimSystemConfig ranked_config(std::uint32_t dpus_per_rank) {
  PimSystemConfig cfg;
  cfg.mram_bytes = 1 << 20;
  cfg.max_dpus = 64;
  cfg.dpus_per_rank = dpus_per_rank;
  return cfg;
}

TEST(RankTopologyTest, RanksDeriveFromDpusPerRank) {
  PimSystem sys(ranked_config(4), 10);
  EXPECT_EQ(sys.dpus_per_rank(), 4u);
  EXPECT_EQ(sys.num_ranks(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(sys.rank_of(0), 0u);
  EXPECT_EQ(sys.rank_of(3), 0u);
  EXPECT_EQ(sys.rank_of(4), 1u);
  EXPECT_EQ(sys.rank_of(9), 2u);
}

TEST(RankTopologyTest, ZeroDpusPerRankRejected) {
  EXPECT_THROW(PimSystem(ranked_config(0), 4), std::invalid_argument);
}

TEST(ScatterTest, PadsEachRankToItsSlowestDpu) {
  // 2 ranks of 4 DPUs; rank 0 spans {100, 8, 0, 16}, rank 1 all zero except
  // one DPU.  dpu_push_xfer moves max-bytes to every DPU of an active rank:
  // rank 0 wire = 4 * round_up(100, 8) = 416, rank 1 wire = 4 * 8 = 32.
  PimSystem sys(ranked_config(4), 8);
  sys.reset_times();
  const std::vector<std::uint64_t> bytes = {100, 8, 0, 16, 0, 0, 8, 0};
  const double seconds =
      sys.charge_scatter(bytes, &PhaseTimes::ingest_s);

  const TransferStats& s = sys.transfer_stats();
  EXPECT_EQ(s.push_transfers, 1u);
  EXPECT_EQ(s.push_payload_bytes, 132u);
  EXPECT_EQ(s.push_wire_bytes, 416u + 32u);
  const double expected =
      sys.config().bulk_transfer_seconds(448, 2, /*push=*/true);
  EXPECT_DOUBLE_EQ(seconds, expected);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, expected);
}

TEST(ScatterTest, UniformSpansMatchTheFlatModel) {
  // With identical spans on every DPU there is no padding, and the
  // rank-aware charge degenerates to the old flat transfer_seconds().
  PimSystem sys(ranked_config(4), 8);
  sys.reset_times();
  const std::vector<std::uint64_t> bytes(8, 4096);
  const double seconds =
      sys.charge_scatter(bytes, &PhaseTimes::ingest_s);
  EXPECT_DOUBLE_EQ(seconds,
                   sys.config().transfer_seconds(8 * 4096, 8, /*push=*/true));
  EXPECT_EQ(sys.transfer_stats().push_wire_bytes,
            sys.transfer_stats().push_payload_bytes);
}

TEST(ScatterTest, NullPhaseRecordsStatsWithoutCharging) {
  PimSystem sys(ranked_config(4), 4);
  sys.reset_times();
  const std::vector<std::uint64_t> bytes(4, 64);
  const double seconds = sys.charge_scatter(bytes, nullptr);
  EXPECT_GT(seconds, 0.0);
  EXPECT_EQ(sys.transfer_stats().push_transfers, 1u);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, 0.0);
  sys.note_overlap_saved(seconds);
  EXPECT_DOUBLE_EQ(sys.transfer_stats().overlap_saved_s, seconds);
}

TEST(ScatterTest, EmptyTransferIsFree) {
  PimSystem sys(ranked_config(4), 4);
  sys.reset_times();
  const std::vector<std::uint64_t> bytes(4, 0);
  EXPECT_DOUBLE_EQ(sys.charge_scatter(bytes, &PhaseTimes::count_s), 0.0);
  EXPECT_EQ(sys.transfer_stats().push_transfers, 0u);
  EXPECT_DOUBLE_EQ(sys.times().count_s, 0.0);
}

TEST(ScatterTest, WrongSpanCountRejected) {
  PimSystem sys(ranked_config(4), 4);
  const std::vector<std::uint64_t> bytes(3, 8);
  EXPECT_THROW(sys.charge_scatter(bytes, nullptr), std::invalid_argument);
}

TEST(ScatterTest, FunctionalScatterGatherRoundTrip) {
  PimSystem sys(ranked_config(2), 4);
  sys.reset_times();
  std::vector<std::vector<std::uint64_t>> payload(4);
  std::vector<ScatterSpan> out(4);
  for (std::uint32_t d = 0; d < 4; ++d) {
    payload[d] = {d + 1ull, d + 100ull};
    out[d] = {64, payload[d].data(), payload[d].size() * 8};
  }
  sys.scatter(out, &PhaseTimes::ingest_s);

  std::vector<std::vector<std::uint64_t>> back(4, std::vector<std::uint64_t>(2));
  std::vector<GatherSpan> in(4);
  for (std::uint32_t d = 0; d < 4; ++d) {
    in[d] = {64, back[d].data(), back[d].size() * 8};
  }
  sys.gather(in, &PhaseTimes::count_s);
  for (std::uint32_t d = 0; d < 4; ++d) EXPECT_EQ(back[d], payload[d]);

  EXPECT_EQ(sys.transfer_stats().push_transfers, 1u);
  EXPECT_EQ(sys.transfer_stats().pull_transfers, 1u);
  EXPECT_EQ(sys.transfer_stats().pull_payload_bytes, 64u);
  EXPECT_GT(sys.times().ingest_s, 0.0);
  EXPECT_GT(sys.times().count_s, 0.0);
}

TEST(ScatterTest, ResetTimesClearsTransferStats) {
  PimSystem sys(ranked_config(4), 4);
  const std::vector<std::uint64_t> bytes(4, 64);
  sys.charge_scatter(bytes, &PhaseTimes::ingest_s);
  EXPECT_EQ(sys.transfer_stats().push_transfers, 1u);
  sys.reset_times();
  EXPECT_EQ(sys.transfer_stats().push_transfers, 0u);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, 0.0);
}

TEST(PimSystemTest, MaxColorsForPaperMachine) {
  // 2560 DPUs support 23 colors = 2300 used DPUs, as in Section 4.2.
  const PimSystemConfig cfg;
  EXPECT_EQ(max_colors_for_cores(cfg.max_dpus), 23u);
}

}  // namespace
}  // namespace pimtc::pim
