// Unit tests for eb::dev -- PCM device models and noise sources.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "device/drift.hpp"
#include "device/noise.hpp"
#include "device/pcm.hpp"

namespace eb::dev {
namespace {

// ------------------------------------------------------------------ ePCM --

TEST(Epcm, BinaryLevelsMapToOnOff) {
  Rng rng(1);
  const EpcmParams p = EpcmParams::ideal();
  EXPECT_DOUBLE_EQ(program_conductance(p, 0, rng), p.g_off_us);
  EXPECT_DOUBLE_EQ(program_conductance(p, 1, rng), p.g_on_us);
}

TEST(Epcm, MultiLevelSpacingIsUniform) {
  EpcmParams p = EpcmParams::ideal();
  p.levels = 5;
  validate(p);
  const double step = nominal_conductance(p, 1) - nominal_conductance(p, 0);
  for (std::size_t l = 1; l < 5; ++l) {
    EXPECT_NEAR(nominal_conductance(p, l) - nominal_conductance(p, l - 1),
                step, 1e-12);
  }
  EXPECT_THROW(static_cast<void>(nominal_conductance(p, 5)), Error);
}

TEST(Epcm, ProgrammingVariabilityHasExpectedSpread) {
  EpcmParams p = EpcmParams::ideal();
  p.sigma_program = 0.1;
  Rng rng(2);
  StatAccumulator acc;
  for (int i = 0; i < 5000; ++i) {
    acc.add(std::log(program_conductance(p, 1, rng) / p.g_on_us));
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.01);
  EXPECT_NEAR(acc.stddev(), 0.1, 0.01);
}

TEST(Epcm, DriftReducesConductanceMonotonically) {
  EpcmParams p = EpcmParams::ideal();
  p.drift_nu = 0.05;
  Rng rng(3);
  const double g = program_conductance(p, 1, rng);
  const double g0 = g * drift_factor(p, 0.0);
  const double g1 = g * drift_factor(p, 10.0);
  const double g2 = g * drift_factor(p, 1000.0);
  EXPECT_GT(g0, g1);
  EXPECT_GT(g1, g2);
}

TEST(Epcm, NoDriftWhenDisabled) {
  Rng rng(4);
  const EpcmParams p = EpcmParams::ideal();
  const double g = program_conductance(p, 1, rng);
  EXPECT_DOUBLE_EQ(g * drift_factor(p, 0.0), g * drift_factor(p, 1e6));
}

// ------------------------------------------------------------ drift model --

TEST(DriftModel, FactorDecaysMonotonicallyAndMatchesPowerLaw) {
  DriftParams p;
  p.nu = 0.05;
  p.nu_sigma = 0.0;  // exact law: no per-cell spread
  p.t0_s = 1.0;
  const DriftModel m(p);
  const RngStream base(0x5EED);
  // At the reference time the factor is exactly 1; past it the power law
  // applies verbatim.
  EXPECT_DOUBLE_EQ(m.factor(1.0, 0, base), 1.0);
  const double f10 = m.factor(10.0, 0, base);
  const double f1000 = m.factor(1000.0, 0, base);
  EXPECT_DOUBLE_EQ(f10, std::pow(10.0, -0.05));
  EXPECT_DOUBLE_EQ(f1000, std::pow(1000.0, -0.05));
  EXPECT_GT(1.0, f10);
  EXPECT_GT(f10, f1000);
}

TEST(DriftModel, T0NormalizesTheClock) {
  // Drift is a function of t/t0 only: stretching t0 by 10x and t by 10x
  // lands on the same factor, cell by cell.
  DriftParams fast;
  fast.nu = 0.05;
  fast.nu_sigma = 0.01;
  fast.t0_s = 1.0;
  DriftParams slow = fast;
  slow.t0_s = 10.0;
  const RngStream base(0xAB);
  const DriftModel mf(fast);
  const DriftModel ms(slow);
  for (std::size_t cell = 0; cell < 16; ++cell) {
    EXPECT_DOUBLE_EQ(mf.factor(10.0, cell, base),
                     ms.factor(100.0, cell, base))
        << "cell " << cell;
  }
}

TEST(DriftModel, NoneIsExactIdentity) {
  const DriftModel m(DriftParams::none());
  EXPECT_FALSE(m.active(1e6));
  const RngStream base(1);
  EXPECT_DOUBLE_EQ(m.factor(1e6, 3, base), 1.0);
  EXPECT_TRUE(m.factors(1e6, 64, base).empty());
  // Freshly programmed (t <= 0) is inactive even with realistic drift.
  EXPECT_FALSE(DriftModel(DriftParams::realistic()).active(0.0));
}

TEST(DriftModel, FactorTablesAreDeterministicPerForkAndSpreadPerCell) {
  const DriftModel m(DriftParams::realistic());
  const RngStream base(0xD41F7);
  const auto a = m.factors(100.0, 256, base.fork(7, 0, 0));
  const auto b = m.factors(100.0, 256, base.fork(7, 0, 0));
  ASSERT_EQ(a.size(), 256u);
  // Same fork -> bit-identical table, regardless of when/where computed.
  EXPECT_EQ(a, b);
  // Different generation fork -> a different table.
  EXPECT_NE(a, m.factors(100.0, 256, base.fork(8, 0, 0)));
  // nu_sigma > 0: cells decay differentially (the corruption mechanism).
  bool any_differ = false;
  for (std::size_t i = 1; i < a.size(); ++i) {
    any_differ = any_differ || a[i] != a[0];
  }
  EXPECT_TRUE(any_differ);
}

// ------------------------------------------------------------------ oPCM --

TEST(Opcm, BinaryLevelsMapToTransmissions) {
  Rng rng(5);
  const OpcmParams p = OpcmParams::ideal();
  const double loss = insertion_loss_factor(p);
  EXPECT_NEAR(program_transmission(p, 0, rng) * loss,
              p.t_crystalline * std::pow(10.0, -p.insertion_loss_db / 10.0),
              1e-12);
  EXPECT_NEAR(program_transmission(p, 1, rng) * loss,
              p.t_amorphous * std::pow(10.0, -p.insertion_loss_db / 10.0),
              1e-12);
}

TEST(Opcm, MultiLevelSeparationShrinksWithLevels) {
  // The Cardoso DATE'23 motivation: more levels -> smaller separation.
  auto separation = [](std::size_t levels) {
    OpcmParams p = OpcmParams::ideal();
    p.levels = levels;
    validate(p);
    return nominal_transmission(p, 1) - nominal_transmission(p, 0);
  };
  EXPECT_GT(separation(2), separation(4));
  EXPECT_GT(separation(4), separation(8));
  EXPECT_GT(separation(8), separation(16));
}

TEST(Opcm, TransmissionStaysInUnitInterval) {
  OpcmParams p = OpcmParams::ideal();
  p.sigma_program = 0.5;  // absurdly noisy programming
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const double t = program_transmission(p, 1, rng) * insertion_loss_factor(p);
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 1.0);
  }
}

TEST(Opcm, RejectsDegenerateParams) {
  OpcmParams p = OpcmParams::ideal();
  p.t_crystalline = 0.9;
  p.t_amorphous = 0.5;
  EXPECT_THROW(validate(p), Error);
}

// ----------------------------------------------------------------- noise --

TEST(Noise, NoNoiseIsIdentity) {
  Rng rng(7);
  NoNoise n;
  EXPECT_DOUBLE_EQ(n.apply(3.25, 100.0, rng), 3.25);
}

TEST(Noise, GaussianStatisticsMatchSigma) {
  Rng rng(8);
  GaussianReadNoise n(0.02);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.add(n.apply(5.0, 10.0, rng));
  }
  EXPECT_NEAR(acc.mean(), 5.0, 0.01);
  EXPECT_NEAR(acc.stddev(), 0.02 * 10.0, 0.01);
}

TEST(Noise, ShotNoiseScalesWithSignal) {
  Rng rng(9);
  ShotNoise n(0.05);
  StatAccumulator weak, strong;
  for (int i = 0; i < 20000; ++i) {
    weak.add(n.apply(1.0, 100.0, rng));
    strong.add(n.apply(50.0, 100.0, rng));
  }
  // sigma = k*sqrt(x*fs): sqrt(50)/sqrt(1) ~ 7.07x larger.
  EXPECT_NEAR(strong.stddev() / weak.stddev(), std::sqrt(50.0), 0.7);
}

TEST(Noise, ShotNoiseLeavesZeroSignalAlone) {
  Rng rng(10);
  ShotNoise n(0.05);
  EXPECT_DOUBLE_EQ(n.apply(0.0, 100.0, rng), 0.0);
}

TEST(Noise, CompositeAppliesAllParts) {
  Rng rng(11);
  CompositeNoise c;
  c.add(std::make_unique<GaussianReadNoise>(0.01));
  c.add(std::make_unique<TiaThermalNoise>(0.1));
  EXPECT_EQ(c.components(), 2u);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.add(c.apply(0.0, 10.0, rng));
  }
  // Variances add: sqrt(0.1^2 + 0.1^2).
  EXPECT_NEAR(acc.stddev(), std::sqrt(0.01 + 0.01), 0.01);
}

// apply() must take exactly draws() 64-bit draws from its stream: the
// stream afterwards continues where draws() bits64() calls leave it.
void expect_apply_takes_draws(const NoiseModel& n, double x,
                              const std::string& where) {
  Rng applied(12);
  Rng drawn(12);
  (void)n.apply(x, 100.0, applied);
  for (std::size_t i = 0; i < n.draws(); ++i) {
    (void)drawn.bits64();
  }
  EXPECT_EQ(applied.bits64(), drawn.bits64()) << where << " x=" << x;
}

TEST(Noise, ApplyTakesExactlyDrawsWhateverTheSignal) {
  const NoNoise none;
  const GaussianReadNoise gaussian0(0.0);
  const GaussianReadNoise gaussian(0.02);
  const ShotNoise shot0(0.0);
  const ShotNoise shot(0.05);
  const TiaThermalNoise thermal0(0.0);
  const TiaThermalNoise thermal(0.1);
  CompositeNoise composite;
  composite.add(std::make_unique<ShotNoise>(0.03));
  composite.add(std::make_unique<GaussianReadNoise>(0.0));
  composite.add(std::make_unique<GaussianReadNoise>(0.01));
  composite.add(std::make_unique<TiaThermalNoise>(0.1));
  const std::pair<const char*, const NoiseModel*> models[] = {
      {"none", &none},           {"gaussian sigma 0", &gaussian0},
      {"gaussian", &gaussian},   {"shot k 0", &shot0},
      {"shot", &shot},           {"thermal sigma 0", &thermal0},
      {"thermal", &thermal},     {"composite", &composite}};
  for (const auto& [name, model] : models) {
    for (const double x : {-2.5, 0.0, 3.25}) {
      expect_apply_takes_draws(*model, x, name);
    }
  }
  EXPECT_EQ(none.draws(), 0u);
  EXPECT_EQ(gaussian0.draws(), 0u);
  EXPECT_EQ(gaussian.draws(), 2u);
  EXPECT_EQ(shot0.draws(), 0u);
  EXPECT_EQ(shot.draws(), 2u);
  EXPECT_EQ(thermal0.draws(), 0u);
  EXPECT_EQ(thermal.draws(), 2u);
  EXPECT_EQ(composite.draws(), shot.draws() + gaussian0.draws() +
                                   gaussian.draws() + thermal.draws());
  // Shot noise still leaves a non-positive signal as it is.
  Rng rng(13);
  EXPECT_DOUBLE_EQ(shot.apply(-1.5, 100.0, rng), -1.5);
}

TEST(Noise, RejectsNegativeSigmas) {
  EXPECT_THROW(GaussianReadNoise{-0.1}, Error);
  EXPECT_THROW(ShotNoise{-1.0}, Error);
  EXPECT_THROW(TiaThermalNoise{-0.5}, Error);
}

}  // namespace
}  // namespace eb::dev
