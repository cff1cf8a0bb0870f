// Unit + property tests for eb::map -- TacitMap, CustBinaryMap, tiling and
// functional equivalence against the packed-kernel gold model.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "arch/cost_model.hpp"
#include "bnn/spec.hpp"
#include "common/error.hpp"
#include "device/noise.hpp"
#include "mapping/custbinarymap.hpp"
#include "mapping/executor.hpp"
#include "mapping/partitioner.hpp"
#include "mapping/tacitmap.hpp"
#include "mapping/task.hpp"
#include "mapping/validator.hpp"

namespace eb::map {
namespace {

const dev::NoNoise kNoNoise;

// ------------------------------------------------------------- executor --

TEST(MappedExecutor, FactoryBuildsEveryBackendAndValidates) {
  Rng rng(51);
  const auto task = XnorPopcountTask::random(64, 40, 4, rng);
  MappedExecutorOptions opt;
  opt.xbar_rows = 64;
  opt.xbar_cols = 64;
  opt.wdm_capacity = 4;
  for (const auto& backend : mapped_backend_names()) {
    const auto mapped = make_mapped_executor(backend, task.weights, opt);
    ASSERT_NE(mapped, nullptr) << backend;
    EXPECT_EQ(mapped->dims().m, task.m()) << backend;
    EXPECT_EQ(mapped->dims().n, task.n()) << backend;
    EXPECT_NE(mapped->descriptor().find(backend == "cust" ? "custbinarymap"
                                                          : backend),
              std::string::npos)
        << mapped->descriptor();
    // Ideal devices + zero noise: the polymorphic validator entry point
    // must report bit-exactness through the batch API for every backend.
    Rng vrng(52);
    const auto rep = validate_mapped(*mapped, task, kNoNoise, vrng);
    EXPECT_TRUE(rep.exact()) << backend << ": " << rep.summary();
  }
}

TEST(MappedExecutor, FactoryRejectsUnknownBackend) {
  Rng rng(53);
  const auto task = XnorPopcountTask::random(16, 4, 1, rng);
  EXPECT_THROW(
      static_cast<void>(make_mapped_executor("quantum", task.weights)),
      Error);
}

// ------------------------------------------------------------------ task --

TEST(Task, ReferenceMatchesManualPopcount) {
  Rng rng(1);
  const auto task = XnorPopcountTask::random(40, 7, 3, rng);
  const auto gold = task.reference();
  ASSERT_EQ(gold.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_EQ(gold[i][j],
                task.inputs[i].xnor(task.weights.row(j)).popcount());
    }
  }
}

// ----------------------------------------------------------- partitioner --

TEST(Partitioner, SplitRangesCoverExactly) {
  const auto ranges = split_ranges(1000, 512);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].length, 512u);
  EXPECT_EQ(ranges[1].begin, 512u);
  EXPECT_EQ(ranges[1].length, 488u);
  EXPECT_THROW(split_ranges(0, 8), Error);
}

TEST(Partitioner, TacitUsesTwoMRows) {
  // 2m = 1568 rows over 512-row crossbars -> 4 segments; n = 500 cols fits.
  const auto p = TacitPartition::build(784, 500, {512, 512});
  EXPECT_EQ(p.row_segments.size(), 4u);
  EXPECT_EQ(p.col_tiles.size(), 1u);
  EXPECT_EQ(p.crossbars(), 4u);
  std::size_t covered = 0;
  for (const auto& s : p.row_segments) {
    covered += s.length;
  }
  EXPECT_EQ(covered, 2u * 784u);
}

TEST(Partitioner, CustUsesRowPerVector) {
  // n = 1000 vectors over 512 rows -> 2 groups; m = 784 bits over 256
  // pairs -> 4 width tiles.
  const auto p = CustPartition::build(784, 1000, 512, 256);
  EXPECT_EQ(p.row_groups.size(), 2u);
  EXPECT_EQ(p.width_tiles.size(), 4u);
  EXPECT_EQ(p.steps_per_input(), 512u);  // longest group
}

TEST(Partitioner, StepAsymmetryIsTheHeadlineClaim) {
  // Section III: CustBinaryMap needs n steps where TacitMap needs 1.
  for (std::size_t n : {10u, 100u, 500u}) {
    const auto cust = CustPartition::build(256, n, 512, 256);
    EXPECT_EQ(cust.steps_per_input(), n);  // fits in one crossbar: n steps
    EXPECT_EQ(TacitMapElectrical::steps_per_input(), 1u);
  }
}

// --------------------------------------------------- functional: tacit --

TEST(TacitLayout, ColumnStackAndRowDrive) {
  const BitVec w = BitVec::from_bits({1, 0, 1});
  const BitVec stack = tacit_column_stack(w);
  EXPECT_EQ(stack.to_string(), "101010");  // w then ~w
  const BitVec x = BitVec::from_bits({0, 1, 1});
  EXPECT_EQ(tacit_row_drive(x).to_string(), "011100");
}

TEST(TacitElectrical, ExactOnSingleCrossbar) {
  Rng rng(2);
  const auto task = XnorPopcountTask::random(100, 30, 4, rng);
  TacitElectricalConfig cfg;
  cfg.dims = {512, 512};
  const auto rep = validate_mapped(TacitMapElectrical(task.weights, cfg),
                                   task, kNoNoise, rng);
  EXPECT_TRUE(rep.exact()) << rep.summary();
}

TEST(TacitElectrical, ExactAcrossRowSegmentsAndColTiles) {
  Rng rng(3);
  // 2m = 360 rows on a 128-row crossbar -> 3 segments;
  // n = 300 on 128 cols -> 3 col tiles.
  const auto task = XnorPopcountTask::random(180, 300, 2, rng);
  TacitElectricalConfig cfg;
  cfg.dims = {128, 128};
  cfg.adc_bits = 10;
  const auto rep = validate_mapped(TacitMapElectrical(task.weights, cfg),
                                   task, kNoNoise, rng);
  EXPECT_TRUE(rep.exact()) << rep.summary();
}

TEST(TacitElectrical, RejectsWrongInputLength) {
  Rng rng(4);
  const auto task = XnorPopcountTask::random(64, 8, 1, rng);
  TacitMapElectrical mapped(task.weights, TacitElectricalConfig{});
  EXPECT_THROW(
      static_cast<void>(mapped.execute(BitVec(32), kNoNoise, rng)),
      Error);
}

TEST(TacitElectrical, InsufficientAdcResolutionBreaksExactness) {
  // Failure injection: a 4-bit ADC cannot resolve 200 active rows, so the
  // validator must detect mismatches (this guards against the validator
  // silently passing).
  Rng rng(5);
  const auto task = XnorPopcountTask::random(200, 16, 2, rng);
  TacitElectricalConfig cfg;
  cfg.adc_bits = 4;
  const auto rep = validate_mapped(TacitMapElectrical(task.weights, cfg),
                                   task, kNoNoise, rng);
  EXPECT_FALSE(rep.exact());
  EXPECT_GT(rep.max_abs_error, 0);
}

// -------------------------------------------------- functional: optical --

TEST(TacitOptical, ExactSingleWavelength) {
  Rng rng(6);
  const auto task = XnorPopcountTask::random(120, 20, 3, rng);
  TacitOpticalConfig cfg;
  const auto rep =
      validate_mapped(TacitMapOptical(task.weights, cfg), task, kNoNoise, rng);
  EXPECT_TRUE(rep.exact()) << rep.summary();
}

TEST(TacitOptical, WdmBatchMatchesSequentialExecution) {
  Rng rng(7);
  const auto task = XnorPopcountTask::random(80, 12, 16, rng);
  TacitOpticalConfig cfg;
  cfg.wdm_capacity = 16;
  const TacitMapOptical mapped(task.weights, cfg);
  const auto batched = mapped.execute_batch(task.inputs, kNoNoise, rng);
  for (std::size_t i = 0; i < task.inputs.size(); ++i) {
    EXPECT_EQ(batched[i], mapped.execute(task.inputs[i], kNoNoise, rng))
        << "input " << i;
  }
}

TEST(TacitOptical, ExactAcrossSegmentsWithWdm) {
  Rng rng(9);
  // 2m = 300 rows on 128-row optical crossbars -> 3 segments, K = 8.
  const auto task = XnorPopcountTask::random(150, 40, 8, rng);
  TacitOpticalConfig cfg;
  cfg.dims = {128, 128};
  cfg.wdm_capacity = 8;
  const auto rep =
      validate_mapped(TacitMapOptical(task.weights, cfg), task, kNoNoise, rng);
  EXPECT_TRUE(rep.exact()) << rep.summary();
}

// ------------------------------------------------- functional: baseline --

TEST(CustBinary, ExactOnSingleCrossbar) {
  Rng rng(10);
  const auto task = XnorPopcountTask::random(100, 30, 4, rng);
  CustBinaryConfig cfg;
  const auto rep =
      validate_mapped(CustBinaryMap(task.weights, cfg), task, kNoNoise, rng);
  EXPECT_TRUE(rep.exact()) << rep.summary();
}

TEST(CustBinary, ExactAcrossGroupsAndWidthTiles) {
  Rng rng(11);
  // n = 100 vectors on 32-row crossbars -> 4 groups; m = 90 bits on 32
  // pairs -> 3 width tiles.
  const auto task = XnorPopcountTask::random(90, 100, 2, rng);
  CustBinaryConfig cfg;
  cfg.rows = 32;
  cfg.pairs = 32;
  const auto rep =
      validate_mapped(CustBinaryMap(task.weights, cfg), task, kNoNoise, rng);
  EXPECT_TRUE(rep.exact()) << rep.summary();
}

TEST(CustBinary, StepsEqualWeightVectorCount) {
  Rng rng(12);
  const auto task = XnorPopcountTask::random(64, 37, 1, rng);
  const CustBinaryMap mapped(task.weights, CustBinaryConfig{});
  EXPECT_EQ(mapped.steps_per_input(), 37u);
}

// --------------------------------------------- cross-mapping equivalence --

// The core scientific claim at the functional level: both mappings compute
// the same XNOR+Popcounts (TacitMap just does it in 1 step). Sweep task
// shapes including crossbar-boundary edge cases.
class MappingEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MappingEquivalence, AllThreeExecutorsAgreeWithGold) {
  const auto [m, n, windows] = GetParam();
  Rng rng(100 + m * 7 + n * 3 + windows);
  const auto task = XnorPopcountTask::random(
      static_cast<std::size_t>(m), static_cast<std::size_t>(n),
      static_cast<std::size_t>(windows), rng);

  TacitElectricalConfig te;
  te.dims = {64, 64};
  EXPECT_TRUE(validate_mapped(TacitMapElectrical(task.weights, te), task,
                              kNoNoise, rng)
                  .exact());

  TacitOpticalConfig to;
  to.dims = {64, 64};
  to.wdm_capacity = 4;
  EXPECT_TRUE(
      validate_mapped(TacitMapOptical(task.weights, to), task, kNoNoise, rng)
          .exact());

  CustBinaryConfig cb;
  cb.rows = 64;
  cb.pairs = 32;
  EXPECT_TRUE(
      validate_mapped(CustBinaryMap(task.weights, cb), task, kNoNoise, rng)
          .exact());
}

INSTANTIATE_TEST_SUITE_P(
    TaskShapes, MappingEquivalence,
    ::testing::Values(std::make_tuple(1, 1, 1),     // degenerate
                      std::make_tuple(32, 64, 2),   // 2m == rows exactly
                      std::make_tuple(33, 65, 2),   // one past the boundary
                      std::make_tuple(31, 63, 3),   // one short
                      std::make_tuple(64, 10, 1),   // wide vector, few outs
                      std::make_tuple(10, 200, 2),  // many outputs
                      std::make_tuple(100, 100, 5)  // multi-tile both ways
                      ));

// ---------------------------------------------------- noise degradation --

TEST(NoiseDegradation, MismatchRateGrowsWithNoise) {
  Rng rng(13);
  const auto task = XnorPopcountTask::random(128, 32, 4, rng);
  TacitElectricalConfig cfg;
  double prev_rate = -1.0;
  for (const double sigma : {0.0, 0.02, 0.10}) {
    const dev::GaussianReadNoise noise(sigma);
    Rng trial_rng(99);
    const auto rep = validate_mapped(TacitMapElectrical(task.weights, cfg),
                                     task, noise, trial_rng);
    EXPECT_GE(rep.mismatch_rate(), prev_rate)
        << "noise sigma " << sigma << ": " << rep.summary();
    prev_rate = rep.mismatch_rate();
  }
  EXPECT_GT(prev_rate, 0.0);  // 10% read noise must corrupt something
}

TEST(NoiseDegradation, CorruptedComplementBitIsDetected) {
  // Failure injection: violate the TacitMap layout invariant (flip one
  // complement bit) and confirm the validator catches the mismatch.
  Rng rng(14);
  const auto task = XnorPopcountTask::random(16, 4, 2, rng);
  TacitElectricalConfig cfg;
  cfg.dims = {64, 64};
  TacitMapElectrical good(task.weights, cfg);

  // Build a corrupted weight matrix: one bit of one weight vector flipped
  // *only* in the complement half. We emulate by flipping a weight bit and
  // checking results change -- the executor derives both halves from the
  // weights, so corrupt weights == corrupt layout.
  BitMatrix corrupted = task.weights;
  corrupted.set(2, 5, !corrupted.get(2, 5));
  TacitMapElectrical bad(corrupted, cfg);

  const auto want = task.reference();
  bool any_difference = false;
  for (std::size_t i = 0; i < task.inputs.size(); ++i) {
    const auto got = bad.execute(task.inputs[i], kNoNoise, rng);
    if (got != want[i]) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

// --------------------------------------- executed vs modeled conversions --

// Counts its apply() calls, one per analog value converted, and perturbs
// nothing.
class CountingNoise final : public dev::NoiseModel {
 public:
  [[nodiscard]] double apply(double x, double /*full_scale*/,
                             RngStream& /*rng*/) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return x;
  }
  [[nodiscard]] std::size_t draws() const override { return 0; }
  [[nodiscard]] std::size_t calls() const { return calls_.load(); }

 private:
  mutable std::atomic<std::size_t> calls_{0};
};

// The ADC conversions arch::CostModel charges `windows` inputs of an m x n
// binary layer on 512 x 512 crossbars: the layer's energy when one
// conversion costs 1 pJ and every other event nothing.
double modeled_conversions(bool optical, std::size_t m, std::size_t n,
                           std::size_t windows) {
  arch::TechParams p;
  p.e_dac_row_fj = 0.0;
  p.e_cell_read_fj = 0.0;
  p.e_adder_pj = 0.0;
  p.e_mod_fj = 0.0;
  p.laser_mw = 0.0;
  p.e_adc_pj = optical ? 0.0 : 1.0;
  p.e_adc_opt_pj = optical ? 1.0 : 0.0;
  const arch::CostModel model(p);
  const bnn::XnorWorkload w{"fc2", m, n, windows};
  return (optical ? model.einstein_barrier(w) : model.tacit_epcm(w))
      .energy_pj;
}

// The PCSA senses arch::CostModel charges `windows` inputs of an m x n
// binary layer on CustBinaryMap's 512-row x 256-pair crossbars, m per row
// activation: the layer's energy when one sense costs 1 pJ and every
// other event nothing.
double modeled_senses(std::size_t m, std::size_t n, std::size_t windows) {
  arch::TechParams p;
  p.e_pcsa_sense_fj = 1000.0;
  p.e_cell_read_fj = 0.0;
  p.e_counter_fj = 0.0;
  p.e_wordline_fj = 0.0;
  p.e_adder_pj = 0.0;
  const arch::CostModel model(p);
  return model.baseline_epcm({"fc2", m, n, windows}).energy_pj;
}

// The repository benchmark's wdm-mapped shape: MLP-S fc2 (m 500, n 250),
// two row segments of one 250-column tile each.
constexpr std::size_t kFc2M = 500;
constexpr std::size_t kFc2N = 250;

// Noise applications of one execute_batch over the task's first `batch`
// inputs, whose popcounts must be exact.
std::size_t noise_applications(const MappedExecutor& mapped,
                               const XnorPopcountTask& task,
                               std::size_t batch) {
  const std::vector<BitVec> inputs(task.inputs.begin(),
                                   task.inputs.begin() + batch);
  const CountingNoise noise;
  RngStream stream(72);
  const auto got = mapped.execute_batch(inputs, noise, stream);
  const auto want = task.reference();
  for (std::size_t i = 0; i < batch; ++i) {
    EXPECT_EQ(got[i], want[i]) << mapped.descriptor() << " input " << i;
  }
  return noise.calls();
}

TEST(ExecutedConversions, EqualWhatCostModelCharges) {
  Rng rng(71);
  const auto task = XnorPopcountTask::random(kFc2M, kFc2N, 17, rng);
  TacitOpticalConfig optical_cfg;
  optical_cfg.dims = {512, 512};
  optical_cfg.wdm_capacity = 16;
  TacitElectricalConfig electrical_cfg;
  electrical_cfg.dims = {512, 512};
  const TacitMapOptical optical(task.weights, optical_cfg);
  const TacitMapElectrical electrical(task.weights, electrical_cfg);
  // 512 rows x 256 pairs: one row group of 250 rows over two width tiles.
  const CustBinaryMap cust(task.weights, CustBinaryConfig{});
  // Below, at and past one WDM pass of 16; at 17 the model charges
  // 17 x 2 x 250 = 8,500 conversions.
  for (const std::size_t batch : {1u, 15u, 16u, 17u}) {
    // The optical path noises each converted column twice: the column
    // read, then the receiver's TIA.
    EXPECT_EQ(static_cast<double>(noise_applications(optical, task, batch)),
              2.0 * modeled_conversions(true, kFc2M, kFc2N, batch))
        << "batch " << batch;
    EXPECT_EQ(
        static_cast<double>(noise_applications(electrical, task, batch)),
        modeled_conversions(false, kFc2M, kFc2N, batch))
        << "batch " << batch;
    // Cust noises each PCSA sense once: batch x n rows x m pairs, 125,000
    // per input.
    EXPECT_EQ(static_cast<double>(noise_applications(cust, task, batch)),
              modeled_senses(kFc2M, kFc2N, batch))
        << "batch " << batch;
  }
}

}  // namespace
}  // namespace eb::map
