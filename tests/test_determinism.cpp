// Determinism suite for the sharded crossbar execution engine.
//
// The contract under test: for a fixed seed, mapped noisy inference and
// noise Monte-Carlo aggregates are *bit-identical* regardless of how many
// threads the scheduler spreads shards over -- serial (pool == nullptr),
// ThreadPool(1), ThreadPool(2) and ThreadPool(hardware_concurrency) must
// all produce the same integers and the same double bits. This is what
// makes EB_THREADS-swept CI runs meaningful.
//
// Plus statistical sanity on RngStream: forked substreams must be
// deterministic, pairwise distinct, and independent enough that shard
// noise does not correlate across shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "device/drift.hpp"
#include "device/noise.hpp"
#include "device/pcm.hpp"
#include "eval/experiments.hpp"
#include "mapping/custbinarymap.hpp"
#include "mapping/executor.hpp"
#include "mapping/scheduler.hpp"
#include "mapping/tacitmap.hpp"
#include "mapping/task.hpp"
#include "mapping/validator.hpp"
#include "xbar/crossbar.hpp"

namespace eb {
namespace {

std::vector<std::size_t> pool_sizes() {
  return {1, 2, std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

// ----------------------------------------------------------- rng streams --

TEST(RngStream, ForkIsDeterministic) {
  const RngStream base(42);
  RngStream a = base.fork(1, 2, 3);
  RngStream b = base.fork(1, 2, 3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.bits64(), b.bits64());
  }
}

TEST(RngStream, ForkDoesNotAdvanceParent) {
  RngStream a(7);
  RngStream b(7);
  (void)a.fork(0, 1, 2);
  (void)a.fork(3, 4, 5);
  EXPECT_EQ(a.bits64(), b.bits64());
}

TEST(RngStream, DistinctIndicesGiveDistinctStreams) {
  const RngStream base(1);
  // Across layers, shards and reps: first draws must differ pairwise.
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t layer = 0; layer < 4; ++layer) {
    for (std::uint64_t shard = 0; shard < 8; ++shard) {
      for (std::uint64_t rep = 0; rep < 4; ++rep) {
        RngStream s = base.fork(layer, shard, rep);
        firsts.push_back(s.bits64());
      }
    }
  }
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    for (std::size_t j = i + 1; j < firsts.size(); ++j) {
      EXPECT_NE(firsts[i], firsts[j]) << i << " vs " << j;
    }
  }
}

TEST(RngStream, SplitAdvancesParentDeterministically) {
  RngStream a(99);
  RngStream b(99);
  RngStream a1 = a.split();
  RngStream a2 = a.split();
  RngStream b1 = b.split();
  RngStream b2 = b.split();
  const std::uint64_t d1 = a1.bits64();
  const std::uint64_t d2 = a2.bits64();
  EXPECT_NE(d1, d2);  // distinct children
  // Same seed, same split sequence.
  EXPECT_EQ(d1, b1.bits64());
  EXPECT_EQ(d2, b2.bits64());
}

TEST(RngStream, DiscardLeavesTheStreamWhereDrawsWould) {
  for (const std::uint64_t n : {0u, 1u, 2u, 1000u}) {
    RngStream skipped(31);
    RngStream drawn(31);
    skipped.discard(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)drawn.bits64();
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(skipped.bits64(), drawn.bits64()) << "n=" << n;
    }
    // A fork reads the counter too, so it must agree as well.
    EXPECT_EQ(skipped.fork(1, 2, 3).bits64(), drawn.fork(1, 2, 3).bits64())
        << "n=" << n;
  }
}

TEST(RngStream, ForkedStreamsAreStatisticallyIndependent) {
  // Pooled uniforms over many forked shard streams behave like one
  // uniform sample, and adjacent streams are uncorrelated.
  const RngStream base(1234);
  StatAccumulator pooled;
  double cross = 0.0;
  const std::size_t streams = 256;
  const std::size_t draws = 64;
  std::vector<double> prev(draws, 0.0);
  for (std::size_t s = 0; s < streams; ++s) {
    RngStream rng = base.fork(0, s, 0);
    for (std::size_t d = 0; d < draws; ++d) {
      const double u = rng.uniform();
      pooled.add(u);
      if (s > 0) {
        cross += (u - 0.5) * (prev[d] - 0.5);
      }
      prev[d] = u;
    }
  }
  EXPECT_NEAR(pooled.mean(), 0.5, 0.01);
  EXPECT_NEAR(pooled.stddev(), 1.0 / std::sqrt(12.0), 0.01);
  // Correlation estimate between neighbouring shard streams ~ 0: the sum
  // of (streams-1)*draws products of variance 1/144 has stddev ~ 0.9.
  EXPECT_LT(std::abs(cross) /
                (static_cast<double>((streams - 1) * draws) / 12.0),
            0.05);
}

TEST(RngStream, GaussianMomentsOnForkedStream) {
  const RngStream base(77);
  RngStream rng = base.fork(5, 6, 7);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.add(rng.gaussian(1.0, 0.5));
  }
  EXPECT_NEAR(acc.mean(), 1.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 0.5, 0.02);
}

// ----------------------------------------- mapped execution determinism --

const dev::GaussianReadNoise kNoise(0.01);

TEST(ShardedDeterminism, TacitElectricalBitIdenticalAcrossPools) {
  Rng build_rng(10);
  // Multi-segment, multi-tile: 2m = 360 over 128 rows -> 3 segments,
  // n = 300 over 128 cols -> 3 tiles = 9 shards.
  const auto task = map::XnorPopcountTask::random(180, 300, 4, build_rng);
  map::TacitElectricalConfig cfg;
  cfg.dims = {128, 128};
  const map::TacitMapElectrical mapped(task.weights, cfg);

  Rng serial_rng(555);
  std::vector<std::vector<std::size_t>> serial;
  for (const auto& x : task.inputs) {
    serial.push_back(mapped.execute(x, kNoise, serial_rng, nullptr));
  }
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    Rng rng(555);
    for (std::size_t i = 0; i < task.inputs.size(); ++i) {
      EXPECT_EQ(mapped.execute(task.inputs[i], kNoise, rng, &pool),
                serial[i])
          << "threads=" << threads << " input=" << i;
    }
  }
}

TEST(ShardedDeterminism, TacitOpticalWdmBitIdenticalAcrossPools) {
  Rng build_rng(11);
  const auto task = map::XnorPopcountTask::random(150, 90, 8, build_rng);
  map::TacitOpticalConfig cfg;
  cfg.dims = {128, 64};
  cfg.wdm_capacity = 8;
  const map::TacitMapOptical mapped(task.weights, cfg);

  Rng serial_rng(777);
  const auto serial =
      mapped.execute_batch(task.inputs, kNoise, serial_rng, nullptr);
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    Rng rng(777);
    EXPECT_EQ(mapped.execute_batch(task.inputs, kNoise, rng, &pool), serial)
        << "threads=" << threads;
  }
}

TEST(ShardedDeterminism, TacitOpticalWdmCoalescingDoesNotChangeResults) {
  // The WDM pass serves each wavelength channel from a fork of *its
  // input's* stream base, so an input's noisy popcounts are the same
  // whether it rides a crowded WDM pass or a single-channel one.
  Rng build_rng(15);
  const auto task = map::XnorPopcountTask::random(150, 90, 8, build_rng);
  map::TacitOpticalConfig cfg;
  cfg.dims = {128, 64};
  cfg.wdm_capacity = 8;
  const map::TacitMapOptical mapped(task.weights, cfg);

  Rng loop_rng(4242);
  std::vector<std::vector<std::size_t>> serial;
  for (const auto& x : task.inputs) {
    serial.push_back(mapped.execute(x, kNoise, loop_rng, nullptr));
  }
  Rng wdm_rng(4242);
  EXPECT_EQ(mapped.execute_batch(task.inputs, kNoise, wdm_rng, nullptr),
            serial);
}

// Batch sizes the executor batch API must tile correctly around the WDM
// capacity: singleton, exactly one pass, one spilled input, several full
// passes.
std::vector<std::size_t> batch_sizes_around(std::size_t cap) {
  return {1, cap, cap + 1, 3 * cap};
}

TEST(ShardedDeterminism, TacitOpticalExecuteBatchMatchesSerialExecuteLoop) {
  Rng build_rng(16);
  map::TacitOpticalConfig cfg;
  cfg.dims = {128, 64};
  cfg.wdm_capacity = 4;  // small so 3x capacity stays cheap
  const auto task = map::XnorPopcountTask::random(
      150, 90, 3 * cfg.wdm_capacity, build_rng);
  const map::TacitMapOptical mapped(task.weights, cfg);

  for (const std::size_t batch : batch_sizes_around(cfg.wdm_capacity)) {
    const std::vector<BitVec> inputs(task.inputs.begin(),
                                     task.inputs.begin() +
                                         static_cast<std::ptrdiff_t>(batch));
    Rng loop_rng(31337);
    std::vector<std::vector<std::size_t>> serial;
    for (const auto& x : inputs) {
      serial.push_back(mapped.execute(x, kNoise, loop_rng, nullptr));
    }
    // CI runs the suite under EB_THREADS=1 and 4; ThreadPool(0) honours
    // it, and the explicit widths pin both ends locally.
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{4}}) {
      ThreadPool pool(threads);
      Rng rng(31337);
      EXPECT_EQ(mapped.execute_batch(inputs, kNoise, rng, &pool), serial)
          << "batch=" << batch << " threads=" << threads;
    }
    Rng rng_serial(31337);
    EXPECT_EQ(mapped.execute_batch(inputs, kNoise, rng_serial, nullptr),
              serial)
        << "batch=" << batch << " pool=nullptr";
  }
}

TEST(ShardedDeterminism, CustBinaryExecuteBatchMatchesSerialExecuteLoop) {
  Rng build_rng(17);
  map::CustBinaryConfig cfg;
  cfg.rows = 32;
  cfg.pairs = 32;
  const std::size_t wdm_like = 4;  // same size grid as the optical test
  const auto task =
      map::XnorPopcountTask::random(90, 100, 3 * wdm_like, build_rng);
  const map::CustBinaryMap mapped(task.weights, cfg);

  for (const std::size_t batch : batch_sizes_around(wdm_like)) {
    const std::vector<BitVec> inputs(task.inputs.begin(),
                                     task.inputs.begin() +
                                         static_cast<std::ptrdiff_t>(batch));
    Rng loop_rng(2718);
    std::vector<std::vector<std::size_t>> serial;
    for (const auto& x : inputs) {
      serial.push_back(mapped.execute(x, kNoise, loop_rng, nullptr));
    }
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{4}}) {
      ThreadPool pool(threads);
      Rng rng(2718);
      EXPECT_EQ(mapped.execute_batch(inputs, kNoise, rng, &pool), serial)
          << "batch=" << batch << " threads=" << threads;
    }
    Rng rng_serial(2718);
    EXPECT_EQ(mapped.execute_batch(inputs, kNoise, rng_serial, nullptr),
              serial)
        << "batch=" << batch << " pool=nullptr";
  }
}

TEST(ShardedDeterminism, ExecuteBatchUniformAcrossBackendsViaInterface) {
  // The polymorphic interface carries the same determinism contract for
  // every backend: drive all three through MappedExecutor and check batch
  // results against a serial interface-execute loop.
  Rng build_rng(18);
  const auto task = map::XnorPopcountTask::random(96, 60, 6, build_rng);
  map::MappedExecutorOptions opt;
  opt.xbar_rows = 64;
  opt.xbar_cols = 64;
  opt.wdm_capacity = 4;
  for (const auto& backend : map::mapped_backend_names()) {
    const auto mapped =
        map::make_mapped_executor(backend, task.weights, opt);
    ASSERT_EQ(mapped->dims().m, task.m()) << backend;
    ASSERT_EQ(mapped->dims().n, task.n()) << backend;
    Rng loop_rng(99);
    std::vector<std::vector<std::size_t>> serial;
    for (const auto& x : task.inputs) {
      serial.push_back(mapped->execute(x, kNoise, loop_rng, nullptr));
    }
    ThreadPool pool(4);
    Rng rng(99);
    EXPECT_EQ(mapped->execute_batch(task.inputs, kNoise, rng, &pool),
              serial)
        << backend;
  }
}

TEST(ShardedDeterminism, CustBinaryBitIdenticalAcrossPools) {
  Rng build_rng(12);
  const auto task = map::XnorPopcountTask::random(90, 100, 4, build_rng);
  map::CustBinaryConfig cfg;
  cfg.rows = 32;
  cfg.pairs = 32;
  const map::CustBinaryMap mapped(task.weights, cfg);

  Rng serial_rng(999);
  std::vector<std::vector<std::size_t>> serial;
  for (const auto& x : task.inputs) {
    serial.push_back(mapped.execute(x, kNoise, serial_rng, nullptr));
  }
  for (const std::size_t threads : pool_sizes()) {
    ThreadPool pool(threads);
    Rng rng(999);
    for (std::size_t i = 0; i < task.inputs.size(); ++i) {
      EXPECT_EQ(mapped.execute(task.inputs[i], kNoise, rng, &pool),
                serial[i])
          << "threads=" << threads << " input=" << i;
    }
  }
}

TEST(ShardedDeterminism, ExactnessSurvivesShardingWithoutNoise) {
  // Sharding must not change the arithmetic: ideal devices + zero noise
  // stay exact through the parallel path.
  Rng rng(13);
  const auto task = map::XnorPopcountTask::random(180, 300, 2, rng);
  map::TacitElectricalConfig cfg;
  cfg.dims = {128, 128};
  const dev::NoNoise none;
  ThreadPool pool(0);  // default_thread_count()
  const auto rep = map::validate_mapped(
      map::TacitMapElectrical(task.weights, cfg), task, none, rng, &pool);
  EXPECT_TRUE(rep.exact()) << rep.summary();
}

// ------------------------------------------------ noise-MC determinism --

TEST(ShardedDeterminism, NoiseMonteCarloAggregatesBitIdenticalAcrossPools) {
  Rng build_rng(14);
  const auto task = map::XnorPopcountTask::random(128, 64, 2, build_rng);
  map::TacitElectricalConfig cfg;
  const map::TacitMapElectrical mapped(task.weights, cfg);
  const dev::GaussianReadNoise noise(0.02);
  const auto gold = task.reference();

  // Metric: mean |error| of the mapped noisy execution for one rep.
  const auto metric = [&](std::size_t, RngStream& rng) {
    double err = 0.0;
    std::size_t outputs = 0;
    for (std::size_t i = 0; i < task.inputs.size(); ++i) {
      const auto got = mapped.execute(task.inputs[i], noise, rng, nullptr);
      for (std::size_t j = 0; j < got.size(); ++j) {
        err += std::abs(static_cast<double>(got[j]) -
                        static_cast<double>(gold[i][j]));
        ++outputs;
      }
    }
    return err / static_cast<double>(outputs);
  };

  eval::NoiseMcConfig mc;
  mc.repetitions = 12;
  mc.seed = 4242;
  mc.threads = 1;
  const auto serial = eval::run_noise_monte_carlo(metric, mc);
  ASSERT_EQ(serial.per_rep.size(), 12u);
  for (const std::size_t threads : pool_sizes()) {
    eval::NoiseMcConfig swept = mc;
    swept.threads = threads;
    const auto got = eval::run_noise_monte_carlo(metric, swept);
    EXPECT_EQ(got.per_rep, serial.per_rep) << "threads=" << threads;
    // Same inputs in the same order: the accumulator state matches bit
    // for bit.
    EXPECT_EQ(got.stats.mean(), serial.stats.mean());
    EXPECT_EQ(got.stats.stddev(), serial.stats.stddev());
  }
  // Reps differ from each other (streams really are distinct).
  EXPECT_GT(serial.stats.max(), serial.stats.min());
}

// ------------------------------------------------- noisy-stream goldens --

// PR 4 changed the optical noise-stream family and CHANGES.md had to note
// that no test pinned it. This pins the exact noisy integer popcounts
// every backend produces at a fixed seed, so a stream-family change can
// never land silently again -- an intentional change updates these
// constants in the same PR.
TEST(GoldenNoisyStreams, AllBackendsExactAtFixedSeed) {
  Rng build_rng(20);
  const auto task = map::XnorPopcountTask::random(64, 12, 1, build_rng);
  map::MappedExecutorOptions opt;
  opt.xbar_rows = 32;
  opt.xbar_cols = 32;
  opt.wdm_capacity = 4;
  const dev::GaussianReadNoise noise(0.05);
  const std::vector<std::pair<std::string, std::vector<std::size_t>>> want =
      {
          {"electrical", {14, 28, 40, 26, 6, 36, 33, 29, 33, 40, 30, 30}},
          {"optical", {36, 40, 33, 26, 34, 34, 31, 40, 37, 34, 34, 38}},
          {"cust", {36, 38, 32, 28, 33, 35, 32, 36, 35, 34, 31, 34}},
      };
  std::vector<std::string> names;
  for (const auto& [backend, golden] : want) {
    names.push_back(backend);
    const auto mapped = map::make_mapped_executor(backend, task.weights, opt);
    Rng rng(321);
    EXPECT_EQ(mapped->execute(task.inputs[0], noise, rng, nullptr), golden)
        << backend;
  }
  // A new backend must be pinned here the moment it joins the factory.
  EXPECT_EQ(map::mapped_backend_names(), names);
}

// Order-sensitive digest (FNV-1a over 64-bit words) of a read's exact
// bits, so one constant pins every column of a wide read.
std::uint64_t bits_digest(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325u;
  for (const double x : v) {
    h = (h ^ std::bit_cast<std::uint64_t>(x)) * 0x100000001b3u;
  }
  return h;
}

// The pin above uses ideal devices (sigma_program = 0), so it cannot see
// a change in programming-draw order or in drifted-read rounding. This one
// programs every backend with realistic devices and reads it pristine and
// under imposed drift; the raw crossbar reads pin the analog doubles
// (device drift power law, drift factor table) before any ADC rounding.
TEST(GoldenNoisyStreams, RealisticDevicesExactAtFixedSeed) {
  Rng build_rng(20);
  const auto task = map::XnorPopcountTask::random(64, 12, 1, build_rng);
  const dev::GaussianReadNoise noise(0.05);
  const dev::DriftModel drift(dev::DriftParams::realistic());
  const RngStream drift_base(0xD41F7);
  const double t_s = 3600.0;

  map::TacitElectricalConfig ecfg;
  ecfg.dims = {32, 32};
  ecfg.device = dev::EpcmParams::realistic();
  map::TacitOpticalConfig ocfg;
  ocfg.dims = {32, 32};
  ocfg.wdm_capacity = 4;
  ocfg.device = dev::OpcmParams::realistic();
  map::CustBinaryConfig ccfg;
  ccfg.rows = 32;
  ccfg.pairs = 16;
  ccfg.device = dev::EpcmParams::realistic();
  const map::TacitMapElectrical electrical(task.weights, ecfg);
  const map::TacitMapOptical optical(task.weights, ocfg);
  const map::CustBinaryMap cust(task.weights, ccfg);

  struct Golden {
    const map::MappedExecutor* exec;
    std::vector<std::size_t> pristine;
    std::vector<std::size_t> drifted;
  };
  const std::vector<Golden> want = {
      {&electrical,
       {14, 28, 40, 26, 6, 36, 31, 30, 33, 40, 28, 30},
       {8, 22, 32, 18, 3, 25, 22, 24, 25, 29, 18, 21}},
      {&optical,
       {36, 42, 33, 26, 34, 34, 32, 40, 37, 34, 34, 38},
       {21, 27, 19, 12, 19, 20, 18, 25, 23, 21, 21, 23}},
      {&cust,
       {36, 38, 32, 28, 33, 35, 32, 36, 35, 34, 31, 34},
       {36, 38, 32, 27, 32, 35, 32, 36, 35, 34, 31, 34}},
  };
  for (const Golden& g : want) {
    Rng rng(321);
    EXPECT_EQ(g.exec->execute(task.inputs[0], noise, rng, nullptr),
              g.pristine)
        << g.exec->descriptor();
    g.exec->set_drift(drift, t_s, drift_base);
    Rng drifted_rng(321);
    EXPECT_EQ(g.exec->execute(task.inputs[0], noise, drifted_rng, nullptr),
              g.drifted)
        << g.exec->descriptor();
    g.exec->clear_drift();
  }

  // Raw reads: 16 x 64 cells, nine rows driven, no read noise. Neither
  // drive level is a power of two, and 64 columns give a regrouped
  // product many chances to round differently. Column 0 is pinned as a
  // double, every column through its bits.
  const dev::NoNoise no_noise;
  BitVec active(16);
  for (const std::size_t r : {0, 2, 3, 5, 6, 9, 10, 12, 15}) {
    active.set(r, true);
  }
  xbar::ElectricalCrossbar exb({16, 64}, dev::EpcmParams::realistic(), 29);
  xbar::OpticalCrossbar oxb({16, 64}, dev::OpcmParams::realistic(), 31);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 64; ++c) {
      exb.program(r, c, (r + c) % 3 != 0 ? 1 : 0);
      oxb.program(r, c, (r + 2 * c) % 3 != 0 ? 1 : 0);
    }
  }
  Rng rng(5);
  const auto aged = exb.vmm_currents_bits(active, 0.2, no_noise, rng, t_s);
  RngStream* const stream = &rng;
  const auto fresh_optical =
      oxb.wdm_powers({&active, 1}, 0.37, no_noise, {&stream, 1});
  exb.set_drift(drift, t_s, drift_base);
  oxb.set_drift(drift, t_s, drift_base);
  const auto aged_drifted =
      exb.vmm_currents_bits(active, 0.2, no_noise, rng, t_s);
  const auto drifted_optical =
      oxb.wdm_powers({&active, 1}, 0.37, no_noise, {&stream, 1});
  EXPECT_EQ(aged.front(), 7.993096520683812);
  EXPECT_EQ(bits_digest(aged), 0x8db17476f660f626u);
  EXPECT_EQ(aged_drifted.front(), 5.297509580381913);
  EXPECT_EQ(bits_digest(aged_drifted), 0xa62bc486c69ccf40u);
  EXPECT_EQ(fresh_optical.front(), 1.1316333496004702);
  EXPECT_EQ(bits_digest(fresh_optical), 0x23a7734310082e60u);
  EXPECT_EQ(drifted_optical.front(), 0.7533766701235185);
  EXPECT_EQ(bits_digest(drifted_optical), 0x1ff0487262c2c38du);
}

// Order-sensitive digest (FNV-1a) of a batch's popcounts, input by input.
std::uint64_t counts_digest(const std::vector<std::vector<std::size_t>>& v) {
  std::uint64_t h = 0xcbf29ce484222325u;
  for (const auto& counts : v) {
    for (const std::size_t x : counts) {
      h = (h ^ static_cast<std::uint64_t>(x)) * 0x100000001b3u;
    }
  }
  return h;
}

// The pins above run 32 x 32 crossbars with at most four wavelengths.
// This one pins the optical executor at serving scale: MLP-S fc2 (m 500,
// n 250) on 512 x 512 crossbars with 16 wavelengths, and a batch of 17 --
// one full WDM pass plus a one-channel pass -- on realistic devices under
// shot noise, pristine and drifted, serial and on a pool. The digests
// were captured from the per-channel crossbar reads that the one-sweep
// WDM pass replaced, so they pin the sweep to the same bits.
TEST(GoldenNoisyStreams, OpticalWdmBatchAtServingScale) {
  Rng build_rng(22);
  const auto task = map::XnorPopcountTask::random(500, 250, 17, build_rng);
  map::TacitOpticalConfig cfg;
  cfg.dims = {512, 512};
  cfg.wdm_capacity = 16;
  cfg.device = dev::OpcmParams::realistic();
  const map::TacitMapOptical optical(task.weights, cfg);
  const dev::ShotNoise noise(0.02);
  ThreadPool pool(3);
  const auto digest = [&](ThreadPool* p) {
    Rng rng(323);
    return counts_digest(optical.execute_batch(task.inputs, noise, rng, p));
  };
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_EQ(digest(p), 0xb27989fd40b80236u)
        << "pristine, pool " << (p != nullptr);
  }
  optical.set_drift(dev::DriftModel(dev::DriftParams::realistic()), 3600.0,
                    RngStream(0xD41F7));
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_EQ(digest(p), 0x539fd23923e8adf0u)
        << "drifted, pool " << (p != nullptr);
  }
  optical.clear_drift();
}

// --------------------------------------------------- scheduler plumbing --

TEST(CrossbarScheduler, ReducesInFlatIndexOrderAndForksPerShard) {
  const RngStream base(5);
  ThreadPool pool(4);
  const map::CrossbarScheduler sched(&pool);
  std::vector<std::size_t> order;
  std::vector<std::uint64_t> draws(6, 0);
  sched.run(
      2, 3, base, StreamTag::TacitElectrical, 0,
      [&](const map::Shard& shard, RngStream& rng) {
        draws[shard.index] = rng.bits64();
        return shard.segment * 10 + shard.tile;
      },
      [&](const map::Shard& shard, std::size_t&& v) {
        EXPECT_EQ(v, shard.segment * 10 + shard.tile);
        order.push_back(shard.index);
      });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  for (std::size_t i = 0; i < draws.size(); ++i) {
    RngStream expect = base.fork(
        static_cast<std::uint64_t>(StreamTag::TacitElectrical), i, 0);
    EXPECT_EQ(draws[i], expect.bits64()) << "shard " << i;
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A rep fan-out whose bodies themselves shard over the same pool: the
  // help-while-waiting caller must drain nested helper tasks.
  ThreadPool pool(4);
  std::vector<std::size_t> sums(8, 0);
  pool.parallel_for(0, 8, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::vector<std::size_t> inner(64, 0);
      pool.parallel_for(0, 64, 4,
                        [&](std::size_t b2, std::size_t e2) {
                          for (std::size_t j = b2; j < e2; ++j) {
                            inner[j] = j;
                          }
                        });
      std::size_t s = 0;
      for (const std::size_t v : inner) {
        s += v;
      }
      sums[i] = s;
    }
  });
  for (const std::size_t s : sums) {
    EXPECT_EQ(s, 64u * 63u / 2u);
  }
}

TEST(ThreadPool, DefaultThreadCountHonoursEnv) {
  // EB_THREADS is how CI pins default-sized pools; the parser must accept
  // positive integers and ignore garbage. Restore whatever the process
  // was launched with so later tests keep the CI-pinned width.
  const char* launched = std::getenv("EB_THREADS");
  const std::string saved = launched != nullptr ? launched : "";
  ASSERT_EQ(setenv("EB_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  ASSERT_EQ(setenv("EB_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(default_thread_count(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  ASSERT_EQ(unsetenv("EB_THREADS"), 0);
  EXPECT_EQ(default_thread_count(),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  if (launched != nullptr) {
    ASSERT_EQ(setenv("EB_THREADS", saved.c_str(), 1), 0);
  }
}

}  // namespace
}  // namespace eb
