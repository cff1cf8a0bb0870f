// Unit tests for eb::phot -- WDM, transmitter (Eq. 3), receiver (Eq. 2),
// link budget.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "device/noise.hpp"
#include "photonics/link_budget.hpp"
#include "photonics/receiver.hpp"
#include "photonics/transmitter.hpp"
#include "photonics/wdm.hpp"

namespace eb::phot {
namespace {

const dev::NoNoise kNoNoise;

// ------------------------------------------------------------------ WDM --

TEST(WavelengthGrid, ChannelsCenteredOnCBand) {
  WavelengthGrid grid(16, 100.0);
  EXPECT_EQ(grid.channels(), 16u);
  // Mean of first/last frequencies equals the center.
  const double f0 = grid.frequency_thz(0);
  const double f15 = grid.frequency_thz(15);
  EXPECT_NEAR((f0 + f15) / 2.0, 193.4, 1e-9);
  // Spacing is 100 GHz = 0.1 THz.
  EXPECT_NEAR(grid.frequency_thz(1) - f0, 0.1, 1e-9);
  // Wavelengths are in the 1.5 um telecom band.
  EXPECT_GT(grid.wavelength_nm(0), 1500.0);
  EXPECT_LT(grid.wavelength_nm(0), 1600.0);
}

// ---------------------------------------------------------- transmitter --

TEST(Transmitter, EquationThreeLiteralValues) {
  // P_total = P_laser + 3*K*M + 3*(K*M+1)/K * 45  [mW]
  EXPECT_DOUBLE_EQ(transmitter_power_mw(100.0, 1, 1),
                   100.0 + 3.0 + 3.0 * 2.0 / 1.0 * 45.0);
  EXPECT_DOUBLE_EQ(transmitter_power_mw(100.0, 16, 512),
                   100.0 + 3.0 * 16.0 * 512.0 +
                       3.0 * (16.0 * 512.0 + 1.0) / 16.0 * 45.0);
}

TEST(Transmitter, TermsSumToTotal) {
  Transmitter tx(TransmitterParams::defaults(), 16, 512);
  EXPECT_NEAR(tx.laser_term_mw() + tx.modulator_term_mw() +
                  tx.tuning_term_mw(),
              tx.total_power_mw(), 1e-9);
}

TEST(Transmitter, PowerGrowsWithCapacityAndRows) {
  const double p_k1 = transmitter_power_mw(100.0, 1, 256);
  const double p_k16 = transmitter_power_mw(100.0, 16, 256);
  EXPECT_GT(p_k16, p_k1);
  const double p_m128 = transmitter_power_mw(100.0, 8, 128);
  const double p_m512 = transmitter_power_mw(100.0, 8, 512);
  EXPECT_GT(p_m512, p_m128);
}

TEST(Transmitter, PerWdmInputPowerDecreasesWithK) {
  // The WDM win: power per *simultaneous input vector* shrinks as K grows
  // even though total transmitter power rises.
  const double per_input_k1 = transmitter_power_mw(100.0, 1, 512) / 1.0;
  const double per_input_k16 = transmitter_power_mw(100.0, 16, 512) / 16.0;
  EXPECT_LT(per_input_k16, per_input_k1);
}

TEST(Transmitter, ChannelPowerReflectsLossChain) {
  TransmitterParams p = TransmitterParams::defaults();
  Transmitter tx(p, 4, 64);
  const double expected = p.laser_power_mw * p.laser_efficiency / 4.0 *
                          std::pow(10.0, -(p.comb_loss_db + p.mux_loss_db +
                                           p.voa_loss_db) /
                                             10.0);
  EXPECT_NEAR(tx.channel_power_mw(), expected, 1e-12);
}

// ------------------------------------------------------------- receiver --

TEST(Receiver, EquationTwoTiaPower) {
  // Paper Eq. 2: P_crossbar = N * 2 mW.
  EXPECT_DOUBLE_EQ(crossbar_tia_power_mw(512), 1024.0);
  EXPECT_DOUBLE_EQ(crossbar_tia_power_mw(100, 2.0), 200.0);
  Receiver rx(ReceiverParams::defaults(), 16, 1.0, 0.1);
  EXPECT_DOUBLE_EQ(rx.power_mw(512), 1024.0);
}

TEST(Receiver, DecodesExactPopcountsNoiselessly) {
  // 64 active rows, on/off contrast 10:1.
  Receiver rx(ReceiverParams::defaults(), 64, 1.0, 0.1);
  Rng rng(3);
  for (std::size_t n_on = 0; n_on <= 64; n_on += 8) {
    const double p = static_cast<double>(n_on) * 1.0 +
                     static_cast<double>(64 - n_on) * 0.1;
    EXPECT_EQ(rx.decode_popcount(p, kNoNoise, rng), n_on);
  }
}

TEST(Receiver, RejectsInvertedContrast) {
  EXPECT_THROW(Receiver(ReceiverParams::defaults(), 8, 0.1, 1.0), Error);
}

// ---------------------------------------------------------- link budget --

TEST(LinkBudget, FeasibleAtSmallKInfeasibleAtHugeK) {
  TransmitterParams tx = TransmitterParams::defaults();
  LinkBudgetParams lb = LinkBudgetParams::defaults();
  lb.receiver_noise_floor_mw = 2e-4;
  LinkBudget budget(tx, lb);
  const auto small = budget.evaluate(1, 512, 0.95, 0.10);
  EXPECT_TRUE(small.feasible);
  // Splitting the same laser over many channels starves each one.
  const auto large = budget.evaluate(4096, 512, 0.95, 0.10);
  EXPECT_FALSE(large.feasible);
  EXPECT_GT(small.margin_db, large.margin_db);
}

TEST(LinkBudget, MaxFeasibleKIsMonotoneBoundary) {
  TransmitterParams tx = TransmitterParams::defaults();
  LinkBudgetParams lb = LinkBudgetParams::defaults();
  lb.receiver_noise_floor_mw = 2e-4;
  LinkBudget budget(tx, lb);
  const std::size_t k_max = budget.max_feasible_k(64, 512, 0.95, 0.10);
  ASSERT_GE(k_max, 1u);
  EXPECT_TRUE(budget.evaluate(k_max, 512, 0.95, 0.10).feasible);
  if (k_max < 64) {
    EXPECT_FALSE(budget.evaluate(k_max + 1, 512, 0.95, 0.10).feasible);
  }
}

TEST(LinkBudget, MarginImprovesWithBrighterLaser) {
  LinkBudgetParams lb = LinkBudgetParams::defaults();
  TransmitterParams dim = TransmitterParams::defaults();
  dim.laser_power_mw = 10.0;
  TransmitterParams bright = TransmitterParams::defaults();
  bright.laser_power_mw = 1000.0;
  const auto r_dim = LinkBudget(dim, lb).evaluate(16, 512, 0.95, 0.10);
  const auto r_bright = LinkBudget(bright, lb).evaluate(16, 512, 0.95, 0.10);
  EXPECT_GT(r_bright.margin_db, r_dim.margin_db);
}

}  // namespace
}  // namespace eb::phot
