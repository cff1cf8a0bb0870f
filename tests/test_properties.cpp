// Cross-cutting property tests: invariants that must hold over swept
// parameter spaces rather than single examples. Complements the per-module
// suites.
#include <gtest/gtest.h>

#include <tuple>

#include "arch/cost_model.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/packed.hpp"
#include "bnn/trainer.hpp"
#include "common/bitvec.hpp"
#include "device/noise.hpp"
#include "mapping/partitioner.hpp"
#include "mapping/tacitmap.hpp"
#include "mapping/task.hpp"
#include "xbar/periph.hpp"

namespace eb {
namespace {

// --------------------------------------- bit-kernel randomized properties --
//
// The packed kernels (BitVec word loops and the BitMatrix SIMD sweeps)
// must agree with a naive bit-by-bit reference on *randomized* lengths,
// with non-multiple-of-64 tails deliberately over-represented: every past
// kernel bug class (unmasked padding, blocked-row remainders, vector
// tails) lives at those boundaries.

std::size_t random_awkward_length(Rng& rng) {
  // Half the draws hug a word boundary, the rest are uniform.
  if (rng.bernoulli(0.5)) {
    const std::size_t base =
        64 * static_cast<std::size_t>(rng.uniform_int(1, 20));
    const auto jitter = rng.uniform_int(-2, 2);
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(base) + jitter);
  }
  return static_cast<std::size_t>(rng.uniform_int(1, 1300));
}

TEST(BitKernelProperties, XnorPopcountMatchesNaiveOnRandomLengths) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t len = random_awkward_length(rng);
    const BitVec a = BitVec::random(len, rng);
    const BitVec b = BitVec::random(len, rng);
    std::size_t naive = 0;
    for (std::size_t i = 0; i < len; ++i) {
      naive += (a.get(i) == b.get(i)) ? 1 : 0;
    }
    EXPECT_EQ(a.xnor_popcount(b), naive) << "len=" << len;
    EXPECT_EQ(a.xnor(b).popcount(), naive) << "len=" << len;
  }
}

TEST(BitKernelProperties, ComplementMatchesNaiveAndPreservesPadding) {
  Rng rng(2025);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t len = random_awkward_length(rng);
    const BitVec v = BitVec::random(len, rng);
    const BitVec c = v.complemented();
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(c.get(i), !v.get(i)) << "len=" << len << " bit " << i;
    }
    EXPECT_EQ(v.popcount() + c.popcount(), len) << "padding leaked";
    EXPECT_EQ(c.complemented(), v);
  }
}

TEST(BitKernelProperties, PopcountMatchesNaiveCount) {
  Rng rng(2026);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t len = random_awkward_length(rng);
    const BitVec v = BitVec::random(len, rng);
    std::size_t naive = 0;
    for (std::size_t i = 0; i < len; ++i) {
      naive += v.get(i) ? 1 : 0;
    }
    EXPECT_EQ(v.popcount(), naive) << "len=" << len;
  }
}

TEST(BitKernelProperties, PackedSweepMatchesNaiveOnRandomShapes) {
  Rng rng(2027);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t cols = random_awkward_length(rng);
    const std::size_t wn = static_cast<std::size_t>(rng.uniform_int(1, 9));
    const BitMatrix w = BitMatrix::random(wn, cols, rng);
    const BitVec x = BitVec::random(cols, rng);
    BitMatrix xm(1, cols);
    xm.set_row(0, x);
    std::vector<std::uint32_t> got(wn);
    bnn::xnor_popcount_gemm(xm, w, got.data());
    for (std::size_t j = 0; j < wn; ++j) {
      std::size_t naive = 0;
      for (std::size_t i = 0; i < cols; ++i) {
        naive += (x.get(i) == w.get(j, i)) ? 1 : 0;
      }
      EXPECT_EQ(got[j], naive) << "cols=" << cols << " row " << j;
    }
  }
}

TEST(BitKernelProperties, PackedWordKernelHandlesTailWords) {
  Rng rng(2028);
  for (const std::size_t len : {1u, 2u, 63u, 64u, 65u, 191u, 192u, 193u,
                                255u, 256u, 257u, 511u, 513u}) {
    const BitVec a = BitVec::random(len, rng);
    const BitVec b = BitVec::random(len, rng);
    const std::size_t words = (len + 63) / 64;
    const std::size_t pad = words * 64 - len;
    EXPECT_EQ(bnn::xnor_popcount_words(a.words().data(), b.words().data(),
                                       words, pad),
              a.xnor_popcount(b))
        << "len=" << len;
  }
}

// ------------------------------------------------ partition completeness --

// Every bit of the [w ; ~w] stack must be covered by exactly one row
// segment, and every weight vector by exactly one column tile.
class TacitPartitionSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(TacitPartitionSweep, SegmentsAndTilesPartitionExactly) {
  const auto [m, n, rows, cols] = GetParam();
  const auto p = map::TacitPartition::build(
      static_cast<std::size_t>(m), static_cast<std::size_t>(n),
      {static_cast<std::size_t>(rows), static_cast<std::size_t>(cols)});

  std::vector<int> row_cover(2 * static_cast<std::size_t>(m), 0);
  for (const auto& seg : p.row_segments) {
    EXPECT_LE(seg.length, static_cast<std::size_t>(rows));
    EXPECT_GE(seg.length, 1u);
    for (std::size_t i = seg.begin; i < seg.end(); ++i) {
      ++row_cover[i];
    }
  }
  for (const int c : row_cover) {
    EXPECT_EQ(c, 1);
  }

  std::vector<int> col_cover(static_cast<std::size_t>(n), 0);
  for (const auto& tile : p.col_tiles) {
    EXPECT_LE(tile.length, static_cast<std::size_t>(cols));
    for (std::size_t i = tile.begin; i < tile.end(); ++i) {
      ++col_cover[i];
    }
  }
  for (const int c : col_cover) {
    EXPECT_EQ(c, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TacitPartitionSweep,
    ::testing::Values(std::make_tuple(1, 1, 8, 8),
                      std::make_tuple(4, 8, 8, 8),     // 2m == rows exactly
                      std::make_tuple(5, 9, 8, 8),     // both overflow by 1
                      std::make_tuple(100, 3, 64, 16),
                      std::make_tuple(784, 500, 512, 512),
                      std::make_tuple(4096, 4096, 512, 512)));

// ----------------------------------------------------- ADC quantization --

class AdcResolutionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdcResolutionSweep, QuantizationErrorBoundedByHalfLsb) {
  const unsigned bits = GetParam();
  const xbar::Adc adc(bits, 100.0);
  Rng rng(bits);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 100.0);
    const double back = adc.dequantize(adc.quantize(x));
    EXPECT_LE(std::abs(back - x), adc.lsb() / 2.0 + 1e-12)
        << "bits=" << bits << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, AdcResolutionSweep,
                         ::testing::Values(4u, 6u, 8u, 10u, 12u, 16u));

// ------------------------------------------------- Eq. 1 algebra sweeps --

class Eq1Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Eq1Sweep, ScaledPopcountEqualsSignedDot) {
  const auto len = static_cast<std::size_t>(GetParam());
  Rng rng(1234 + len);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec x = BitVec::random(len, rng);
    const BitVec w = BitVec::random(len, rng);
    const long long pc = static_cast<long long>(x.xnor_popcount(w));
    EXPECT_EQ(2 * pc - static_cast<long long>(len), x.signed_dot(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Eq1Sweep,
                         ::testing::Values(1, 3, 64, 65, 500, 720, 784, 1210,
                                           4096));

// ------------------------------------------------ cost-model monotonics --

TEST(CostMonotonicity, LatencyNonDecreasingInLayerSize) {
  const arch::CostModel model(arch::TechParams::paper_defaults());
  bnn::XnorWorkload w;
  w.windows = 1;
  double prev_base = 0.0;
  double prev_tacit = 0.0;
  for (const std::size_t n : {16u, 64u, 256u, 1024u, 4096u}) {
    w.m = 256;
    w.n = n;
    const double base = model.baseline_epcm(w).latency_ns;
    const double tacit = model.tacit_epcm(w).latency_ns;
    EXPECT_GE(base, prev_base) << "n=" << n;
    EXPECT_GE(tacit, prev_tacit) << "n=" << n;
    prev_base = base;
    prev_tacit = tacit;
  }
}

TEST(CostMonotonicity, EnergyScalesLinearlyWithPasses) {
  const arch::CostModel model(arch::TechParams::paper_defaults());
  bnn::XnorWorkload binary;
  binary.m = 500;
  binary.n = 250;
  bnn::XnorWorkload int8 = binary;
  int8.binary = false;
  int8.input_bits = 8;
  int8.weight_bits = 8;
  // 8 passes x 8 slices = 64x the bit-planes of the binary layer.
  const double e_b = model.baseline_epcm(binary).energy_pj;
  const double e_8 = model.baseline_epcm(int8).energy_pj;
  EXPECT_NEAR(e_8 / e_b, 64.0, 6.0);  // small deviation from width tiling
}

TEST(CostMonotonicity, SpillServializesWhenBudgetTooSmall) {
  arch::TechParams p = arch::TechParams::paper_defaults();
  p.vcore_budget = 4;  // tiny accelerator
  const arch::CostModel small(p);
  const arch::CostModel big(arch::TechParams::paper_defaults());
  bnn::XnorWorkload w;
  w.m = 4096;  // needs 16 row segments on 512-row crossbars
  w.n = 4096;  // and 8 column tiles -> 128 crossbars per replica
  w.windows = 1;
  EXPECT_GT(small.tacit_epcm(w).latency_ns, big.tacit_epcm(w).latency_ns);
}

TEST(CostMonotonicity, MoreWindowsNeverReduceLatency) {
  const arch::CostModel model(arch::TechParams::paper_defaults());
  bnn::XnorWorkload w;
  w.m = 27;
  w.n = 64;
  double prev_eb = 0.0;
  for (const std::size_t windows : {1u, 64u, 1024u, 16384u}) {
    w.windows = windows;
    const double eb = model.einstein_barrier(w).latency_ns;
    EXPECT_GE(eb, prev_eb) << "windows=" << windows;
    prev_eb = eb;
  }
}

// ----------------------------------------------- trainer invariants -----

TEST(TrainerInvariants, GammaStaysPositiveForThresholdFolding) {
  bnn::TrainerConfig cfg;
  cfg.dims = {784, 48, 32, 10};
  cfg.epochs = 2;
  cfg.train_samples = 300;
  cfg.learning_rate = 0.2;  // aggressive, tries to push gamma negative
  bnn::MlpTrainer trainer(cfg);
  bnn::SyntheticMnist data(42);
  trainer.train(data);
  const bnn::Network net = trainer.export_network("gamma-check");
  // Folding throws on non-positive gamma; it must succeed for every BN.
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto* bn =
        dynamic_cast<const bnn::BatchNormLayer*>(&net.layer(i));
    if (bn != nullptr) {
      // Trained exports clamp gamma > 0, so no channel needs the flipped
      // comparison direction (the compiler's ISA cannot express one).
      EXPECT_FALSE(bn->fold_to_thresholds().any_flip());
    }
  }
}

// ------------------------------------------- WDM batching equivalences --

class WdmCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(WdmCapacitySweep, AnyCapacityProducesGoldResults) {
  const auto k = static_cast<std::size_t>(GetParam());
  Rng rng(31 + k);
  const auto task = map::XnorPopcountTask::random(96, 24, 2 * k + 1, rng);
  map::TacitOpticalConfig cfg;
  cfg.dims = {256, 256};
  cfg.wdm_capacity = k;
  const map::TacitMapOptical mapped(task.weights, cfg);
  const auto gold = task.reference();
  const dev::NoNoise no_noise;
  std::size_t i = 0;
  while (i < task.inputs.size()) {
    const std::size_t batch = std::min(k, task.inputs.size() - i);
    const std::vector<BitVec> inputs(task.inputs.begin() + i,
                                     task.inputs.begin() + i + batch);
    const auto got = mapped.execute_wdm(inputs, no_noise, rng);
    for (std::size_t j = 0; j < batch; ++j) {
      EXPECT_EQ(got[j], gold[i + j]) << "k=" << k << " input " << i + j;
    }
    i += batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, WdmCapacitySweep,
                         ::testing::Values(1, 2, 3, 8, 16));

// ------------------------------------------------ MlBench spec sanity ---

TEST(MlBenchSpecs, EveryNetworkHasInt8EndsAndBinaryMiddle) {
  for (const auto& net : bnn::mlbench_specs()) {
    const auto workloads = net.crossbar_workloads();
    ASSERT_GE(workloads.size(), 3u) << net.name;
    EXPECT_FALSE(workloads.front().binary) << net.name << " first layer";
    EXPECT_FALSE(workloads.back().binary) << net.name << " last layer";
    bool any_binary = false;
    for (std::size_t i = 1; i + 1 < workloads.size(); ++i) {
      any_binary = any_binary || workloads[i].binary;
    }
    EXPECT_TRUE(any_binary) << net.name << " has no binarized layers";
    EXPECT_EQ(workloads.back().n, 10u) << net.name << " 10-class output";
  }
}

TEST(MlBenchSpecs, ConvWindowsMatchSpatialDims) {
  const auto cnn2 = bnn::cnn2_spec().crossbar_workloads();
  EXPECT_EQ(cnn2[0].windows, 22u * 22u);  // 28 - 7 + 1 = 22
  const auto vgg = bnn::vgg_d_spec().crossbar_workloads();
  EXPECT_EQ(vgg[0].windows, 32u * 32u);  // padded 3x3 keeps dims
  EXPECT_EQ(vgg[1].windows, 32u * 32u);
}

}  // namespace
}  // namespace eb
