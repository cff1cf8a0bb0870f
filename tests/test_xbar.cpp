// Unit tests for eb::xbar -- crossbar arrays and peripherals.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "device/drift.hpp"
#include "device/noise.hpp"
#include "device/pcm.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/periph.hpp"

// The per-channel reference below must round its products and sums
// separately, as the crossbar does; a fused multiply-add would make it
// the odd one out.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace eb::xbar {
namespace {

const dev::NoNoise kNoNoise;

// ------------------------------------------------------------------- ADC --

TEST(Adc, QuantizeDequantizeRoundTripOnGrid) {
  Adc adc(8, 255.0);  // LSB = 1.0
  EXPECT_DOUBLE_EQ(adc.lsb(), 1.0);
  for (std::size_t code : {0u, 1u, 100u, 255u}) {
    EXPECT_EQ(adc.quantize(adc.dequantize(code)), code);
  }
}

TEST(Adc, ClampsOutOfRange) {
  Adc adc(4, 15.0);
  EXPECT_EQ(adc.quantize(-3.0), 0u);
  EXPECT_EQ(adc.quantize(1000.0), 15u);
}

TEST(Adc, RoundsToNearestCode) {
  Adc adc(4, 15.0);  // LSB = 1
  EXPECT_EQ(adc.quantize(3.4), 3u);
  EXPECT_EQ(adc.quantize(3.6), 4u);
}

TEST(Adc, BitsForLevels) {
  EXPECT_EQ(Adc::bits_for_levels(2), 1u);
  EXPECT_EQ(Adc::bits_for_levels(3), 2u);
  EXPECT_EQ(Adc::bits_for_levels(256), 8u);
  EXPECT_EQ(Adc::bits_for_levels(257), 9u);
  EXPECT_EQ(Adc::bits_for_levels(513), 10u);  // 512-row popcount
}

TEST(Adc, RejectsBadConfig) {
  EXPECT_THROW(Adc(0, 1.0), Error);
  EXPECT_THROW(Adc(8, -1.0), Error);
}

// ------------------------------------------------------------------ PCSA --

TEST(Pcsa, IdealComparatorDecidesBySign) {
  Rng rng(1);
  PrechargeSenseAmp sa;
  EXPECT_TRUE(sa.sense(2.0, 1.0, 10.0, rng));
  EXPECT_FALSE(sa.sense(1.0, 2.0, 10.0, rng));
}

// ------------------------------------------------------- electrical xbar --

TEST(ElectricalCrossbar, IdealVmmEqualsMatrixProduct) {
  CrossbarDims dims{8, 6};
  ElectricalCrossbar xb(dims, dev::EpcmParams::ideal());
  Rng rng(2);
  // Random binary pattern.
  const BitMatrix cols = BitMatrix::random(6, 8, rng);  // [col][row]
  for (std::size_t c = 0; c < 6; ++c) {
    xb.program_column(c, cols.row(c));
  }
  const BitVec active = BitVec::random(8, rng);
  const auto currents =
      xb.vmm_currents_bits(active, 0.2, kNoNoise, rng);
  const double i_on = xb.on_current(0.2);
  const double i_off = xb.off_current(0.2);
  for (std::size_t c = 0; c < 6; ++c) {
    double want = 0.0;
    for (std::size_t r = 0; r < 8; ++r) {
      if (active.get(r)) {
        want += cols.get(c, r) ? i_on : i_off;
      }
    }
    EXPECT_NEAR(currents[c], want, 1e-9) << "col " << c;
  }
}

TEST(ElectricalCrossbar, InactiveRowsContributeNothing) {
  CrossbarDims dims{4, 2};
  ElectricalCrossbar xb(dims, dev::EpcmParams::ideal());
  Rng rng(3);
  for (std::size_t r = 0; r < 4; ++r) {
    xb.program(r, 0, 1);
  }
  const auto currents =
      xb.vmm_currents_bits(BitVec(4), 0.2, kNoNoise, rng);
  EXPECT_DOUBLE_EQ(currents[0], 0.0);
}

TEST(ElectricalCrossbar, BoundsChecked) {
  CrossbarDims dims{4, 4};
  ElectricalCrossbar xb(dims, dev::EpcmParams::ideal());
  EXPECT_THROW(xb.program(4, 0, 1), Error);
  EXPECT_THROW(xb.program(0, 4, 1), Error);
  Rng rng(4);
  EXPECT_THROW(static_cast<void>(xb.vmm_currents_bits(BitVec(5), 0.2,
                                                      kNoNoise, rng)),
               Error);
}

TEST(ElectricalCrossbar, ProgrammingVariabilityPerturbsVmm) {
  CrossbarDims dims{32, 1};
  dev::EpcmParams p = dev::EpcmParams::ideal();
  p.sigma_program = 0.1;
  ElectricalCrossbar xb(dims, p, 99);
  Rng rng(5);
  BitVec ones(32);
  for (std::size_t r = 0; r < 32; ++r) {
    xb.program(r, 0, 1);
    ones.set(r, true);
  }
  const auto currents = xb.vmm_currents_bits(ones, 0.2, kNoNoise, rng);
  const double nominal = 32.0 * xb.on_current(0.2);
  EXPECT_NE(currents[0], nominal);           // variability did something
  EXPECT_NEAR(currents[0], nominal, 0.3 * nominal);  // but stayed plausible
}

// ---------------------------------------------------------- optical xbar --

TEST(OpticalCrossbar, WavelengthChannelsAreIndependent) {
  CrossbarDims dims{16, 4};
  OpticalCrossbar xb(dims, dev::OpcmParams::ideal());
  Rng rng(6);
  const BitMatrix cols = BitMatrix::random(4, 16, rng);
  for (std::size_t c = 0; c < 4; ++c) {
    xb.program_column(c, cols.row(c));
  }
  const BitVec in_a = BitVec::random(16, rng);
  const BitVec in_b = BitVec::random(16, rng);
  // MMM with both channels (one pass) == two separate VMMs (one-channel
  // passes).
  const std::vector<BitVec> inputs = {in_a, in_b};
  RngStream* const both[] = {&rng, &rng};
  RngStream* const one[] = {&rng};
  const auto mmm = xb.wdm_powers(inputs, 1.0, kNoNoise, both);
  const auto vmm_a = xb.wdm_powers({&in_a, 1}, 1.0, kNoNoise, one);
  const auto vmm_b = xb.wdm_powers({&in_b, 1}, 1.0, kNoNoise, one);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(mmm[c], vmm_a[c]);
    EXPECT_DOUBLE_EQ(mmm[4 + c], vmm_b[c]);
  }
}

TEST(OpticalCrossbar, PowerSumMatchesTransmissions) {
  CrossbarDims dims{8, 1};
  OpticalCrossbar xb(dims, dev::OpcmParams::ideal());
  Rng rng(7);
  BitVec w(8);
  for (std::size_t r = 0; r < 8; r += 2) {
    w.set(r, true);  // alternate ON cells
  }
  xb.program_column(0, w);
  BitVec all(8);
  for (std::size_t r = 0; r < 8; ++r) {
    all.set(r, true);
  }
  RngStream* const one[] = {&rng};
  const auto p = xb.wdm_powers({&all, 1}, 2.0, kNoNoise, one);
  EXPECT_NEAR(p[0], 4.0 * xb.on_power(2.0) + 4.0 * xb.off_power(2.0), 1e-12);
}

// ------------------------------------------------- WDM pass (one sweep) --

// An optical crossbar next to a copy of its cell table and drift factors,
// rebuilt from the same device draws: every cell is programmed in
// row-major order from the crossbar's seed, and drift factors come from
// the same model, time and base.
struct MirroredCrossbar {
  OpticalCrossbar xb;
  std::vector<double> t_eff;
  std::vector<double> f;  // empty when pristine

  MirroredCrossbar(CrossbarDims dims, const dev::OpcmParams& params,
                   bool drifted, Rng& pattern)
      : xb(dims, params, 41), t_eff(dims.cells()) {
    RngStream program_rng(41);
    const double loss = dev::insertion_loss_factor(params);
    for (std::size_t r = 0; r < dims.rows; ++r) {
      for (std::size_t c = 0; c < dims.cols; ++c) {
        const std::size_t level = pattern.bits64() % params.levels;
        xb.program(r, c, level);
        t_eff[r * dims.cols + c] =
            dev::program_transmission(params, level, program_rng) * loss;
      }
    }
    if (drifted) {
      const dev::DriftModel model(dev::DriftParams::realistic());
      const RngStream base(0xD41F7);
      xb.set_drift(model, 3600.0, base);
      f = model.factors(3600.0, dims.cells(), base);
    }
  }
};

// One channel read the way a single-channel read summed it before the
// one-sweep pass: rows in ascending order, (p * t) * f, then every
// column noised in order from the channel's stream.
std::vector<double> reference_channel(const MirroredCrossbar& m,
                                      const BitVec& input, double p_in_mw,
                                      const dev::NoiseModel& noise,
                                      RngStream& rng) {
  const std::size_t n_cols = m.xb.dims().cols;
  std::vector<double> cols(n_cols, 0.0);
  for (std::size_t r = 0; r < input.size(); ++r) {
    if (!input.get(r)) {
      continue;
    }
    const double* t = m.t_eff.data() + r * n_cols;
    if (!m.f.empty()) {
      const double* f = m.f.data() + r * n_cols;
      for (std::size_t c = 0; c < n_cols; ++c) {
        cols[c] += p_in_mw * t[c] * f[c];
      }
    } else {
      for (std::size_t c = 0; c < n_cols; ++c) {
        cols[c] += p_in_mw * t[c];
      }
    }
  }
  const double full_scale =
      static_cast<double>(m.xb.dims().rows) * m.xb.on_power(p_in_mw);
  for (auto& p : cols) {
    p = noise.apply(p, full_scale, rng);
  }
  return cols;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Channel k's drive: dense, sparse, all rows, dense, or empty, in turn,
// and shorter than the crossbar for k mod 4 != 0.
std::vector<BitVec> wdm_drives(std::size_t channels, std::size_t rows,
                               Rng& rng) {
  std::vector<BitVec> drives;
  for (std::size_t k = 0; k < channels; ++k) {
    const std::size_t len = rows - std::min(rows, (k % 4) * 29);
    BitVec d = BitVec::random(len, rng);
    switch (k % 5) {
      case 1:
        d = d.and_with(BitVec::random(len, rng));
        break;
      case 2:
        d = BitVec(len).complemented();
        break;
      case 4:
        d = BitVec(len);
        break;
      default:
        break;
    }
    drives.push_back(std::move(d));
  }
  return drives;
}

std::vector<const WdmKernel*> supported_wdm_kernels() {
  std::vector<const WdmKernel*> out;
  for (const auto& kernel : wdm_kernels()) {
    if (kernel.supported) {
      out.push_back(&kernel);
    }
  }
  return out;
}

// Every channel of one wdm_powers pass on `kernel`, each drawing from
// its own stream, against the per-channel reference; the streams must
// also end where the reference leaves them.
void expect_pass_matches_reference(const MirroredCrossbar& m,
                                   const WdmKernel& kernel,
                                   const std::vector<BitVec>& drives,
                                   double p_in_mw,
                                   const dev::NoiseModel& noise,
                                   const std::string& where) {
  std::vector<RngStream> streams;
  for (std::size_t k = 0; k < drives.size(); ++k) {
    streams.emplace_back(1000 + k);
  }
  std::vector<RngStream> ref_streams = streams;
  std::vector<RngStream*> rngs;
  for (auto& r : streams) {
    rngs.push_back(&r);
  }
  const auto got = m.xb.wdm_powers(kernel, drives, p_in_mw, noise, rngs);
  const std::size_t n_cols = m.xb.dims().cols;
  ASSERT_EQ(got.size(), drives.size() * n_cols) << where;
  for (std::size_t k = 0; k < drives.size(); ++k) {
    const auto want =
        reference_channel(m, drives[k], p_in_mw, noise, ref_streams[k]);
    EXPECT_TRUE(same_bits(got.data() + k * n_cols, want.data(), n_cols))
        << where << " channel " << k;
    EXPECT_EQ(streams[k].bits64(), ref_streams[k].bits64())
        << where << " channel " << k << " drew a different count";
  }
}

TEST(OpticalWdmPass, PortableIsAlwaysACandidate) {
  const auto& kernels = wdm_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "portable");
  EXPECT_TRUE(kernels.back().supported);
}

TEST(OpticalWdmPass, EveryCandidateMatchesThePerChannelLoop) {
  // Channel counts: one register group, partial groups, several full
  // groups plus a one-channel group, and past 64. Column counts: below,
  // at and past each candidate's block width. 300 rows cross the sweep's
  // 128-row chunks and the drives' 64-bit words.
  const std::size_t rows = 300;
  const dev::ShotNoise noise(0.05);
  Rng rng(51);
  for (const std::size_t n_cols : {1u, 7u, 32u, 37u, 64u, 100u, 512u}) {
    const MirroredCrossbar m({rows, n_cols}, dev::OpcmParams::realistic(),
                             /*drifted=*/true, rng);
    for (const std::size_t channels :
         {1u, 2u, 3u, 4u, 5u, 16u, 17u, 64u, 65u}) {
      const auto drives = wdm_drives(channels, rows, rng);
      for (const WdmKernel* kernel : supported_wdm_kernels()) {
        expect_pass_matches_reference(
            m, *kernel, drives, 0.37,
            noise, std::string(kernel->name) + " cols=" +
                       std::to_string(n_cols) +
                       " channels=" + std::to_string(channels));
      }
    }
  }
}

TEST(OpticalWdmPass, EveryCandidateMatchesUnderEveryNoiseAndDevice) {
  const std::size_t rows = 300;
  dev::CompositeNoise composite;
  composite.add(std::make_unique<dev::ShotNoise>(0.03));
  composite.add(std::make_unique<dev::GaussianReadNoise>(0.01));
  const dev::NoNoise none;
  const dev::ShotNoise shot(0.05);
  const dev::GaussianReadNoise gaussian(0.02);
  const std::pair<const char*, const dev::NoiseModel*> noises[] = {
      {"none", &none},
      {"shot", &shot},
      {"gaussian", &gaussian},
      {"composite", &composite}};
  Rng rng(52);
  for (const bool realistic : {false, true}) {
    const dev::OpcmParams params = realistic ? dev::OpcmParams::realistic()
                                             : dev::OpcmParams::ideal();
    for (const bool drifted : {false, true}) {
      for (const std::size_t n_cols : {37u, 512u}) {
        const MirroredCrossbar m({rows, n_cols}, params, drifted, rng);
        for (const std::size_t channels : {5u, 17u}) {
          const auto drives = wdm_drives(channels, rows, rng);
          for (const auto& [name, noise] : noises) {
            for (const WdmKernel* kernel : supported_wdm_kernels()) {
              expect_pass_matches_reference(
                  m, *kernel, drives, 0.37, *noise,
                  std::string(kernel->name) + " " + name +
                      (realistic ? " realistic" : " ideal") +
                      (drifted ? " drifted" : " pristine") +
                      " cols=" + std::to_string(n_cols) +
                      " channels=" + std::to_string(channels));
            }
          }
        }
      }
    }
  }
}

TEST(OpticalWdmPass, MmmAndVmmDrawChannelMajorFromOneStream) {
  Rng rng(53);
  const MirroredCrossbar m({150, 40}, dev::OpcmParams::realistic(),
                           /*drifted=*/false, rng);
  const dev::GaussianReadNoise noise(0.02);
  const auto drives = wdm_drives(6, 150, rng);  // channel 4 is empty
  RngStream stream(7);
  RngStream ref_stream(7);
  // Every channel of a six-channel pass (an MMM) draws from one stream,
  // then a one-channel pass (a VMM) continues it.
  const std::vector<RngStream*> shared(drives.size(), &stream);
  const auto mmm = m.xb.wdm_powers(drives, 0.5, noise, shared);
  const std::size_t n_cols = m.xb.dims().cols;
  ASSERT_EQ(mmm.size(), drives.size() * n_cols);
  for (std::size_t k = 0; k < drives.size(); ++k) {
    const auto want = reference_channel(m, drives[k], 0.5, noise, ref_stream);
    EXPECT_TRUE(same_bits(mmm.data() + k * n_cols, want.data(), n_cols))
        << "channel " << k;
  }
  RngStream* const one[] = {&stream};
  const auto vmm = m.xb.wdm_powers({&drives[0], 1}, 0.5, noise, one);
  const auto want = reference_channel(m, drives[0], 0.5, noise, ref_stream);
  EXPECT_TRUE(same_bits(vmm.data(), want.data(), want.size()));
  EXPECT_EQ(stream.bits64(), ref_stream.bits64());
}

TEST(OpticalWdmPass, RejectsMismatchedStreamsAndLongDrives) {
  OpticalCrossbar xb({8, 4}, dev::OpcmParams::ideal());
  RngStream stream(8);
  RngStream* const one[] = {&stream};
  const std::vector<BitVec> two(2, BitVec(8));
  EXPECT_THROW(static_cast<void>(xb.wdm_powers(two, 1.0, kNoNoise, one)),
               Error);
  const std::vector<BitVec> long_drive(1, BitVec(9));
  EXPECT_THROW(
      static_cast<void>(xb.wdm_powers(long_drive, 1.0, kNoNoise, one)),
      Error);
}

// ------------------------------------------- reads of the leading columns --

// One model of each kind, and a composite of all of them.
struct EveryNoise {
  dev::NoNoise none;
  dev::ShotNoise shot{0.05};
  dev::GaussianReadNoise gaussian{0.02};
  dev::TiaThermalNoise thermal{0.01};
  dev::CompositeNoise composite;

  EveryNoise() {
    composite.add(std::make_unique<dev::ShotNoise>(0.03));
    composite.add(std::make_unique<dev::GaussianReadNoise>(0.01));
    composite.add(std::make_unique<dev::TiaThermalNoise>(0.005));
  }

  [[nodiscard]] std::vector<std::pair<const char*, const dev::NoiseModel*>>
  models() const {
    return {{"none", &none},
            {"shot", &shot},
            {"gaussian", &gaussian},
            {"thermal", &thermal},
            {"composite", &composite}};
  }
};

// Column counts below, at and past each candidate's block widths, the
// wdm-mapped tile width, and the whole crossbar.
constexpr std::size_t kLeadingCols[] = {1, 7, 31, 32, 33, 250, 512};

TEST(OpticalWdmPass, LeadingColumnsMatchTheFullReadAndItsStreams) {
  const std::size_t rows = 300;
  const std::size_t width = 512;
  const EveryNoise noises;
  Rng rng(54);
  for (const bool drifted : {false, true}) {
    const MirroredCrossbar m({rows, width}, dev::OpcmParams::realistic(),
                             drifted, rng);
    for (const std::size_t channels : {1u, 5u, 17u}) {
      const auto drives = wdm_drives(channels, rows, rng);
      for (const auto& [name, noise] : noises.models()) {
        for (const WdmKernel* kernel : supported_wdm_kernels()) {
          std::vector<RngStream> full_streams;
          std::vector<RngStream*> full_rngs;
          full_streams.reserve(channels);
          for (std::size_t k = 0; k < channels; ++k) {
            full_streams.emplace_back(2000 + k);
            full_rngs.push_back(&full_streams.back());
          }
          const auto full =
              m.xb.wdm_powers(*kernel, drives, 0.37, *noise, full_rngs);
          for (const std::size_t cols : kLeadingCols) {
            const std::string where =
                std::string(kernel->name) + " " + name +
                (drifted ? " drifted" : " pristine") +
                " channels=" + std::to_string(channels) +
                " cols=" + std::to_string(cols);
            std::vector<RngStream> streams;
            std::vector<RngStream*> rngs;
            streams.reserve(channels);
            for (std::size_t k = 0; k < channels; ++k) {
              streams.emplace_back(2000 + k);
              rngs.push_back(&streams.back());
            }
            const auto got =
                m.xb.wdm_powers(*kernel, drives, 0.37, *noise, rngs, cols);
            ASSERT_EQ(got.size(), channels * cols) << where;
            for (std::size_t k = 0; k < channels; ++k) {
              EXPECT_TRUE(same_bits(got.data() + k * cols,
                                    full.data() + k * width, cols))
                  << where << " channel " << k;
              RngStream after_full = full_streams[k];
              EXPECT_EQ(streams[k].bits64(), after_full.bits64())
                  << where << " channel " << k << " ends elsewhere";
            }
          }
        }
      }
    }
  }
  const OpticalCrossbar narrow({8, 4}, dev::OpcmParams::ideal());
  RngStream stream(9);
  RngStream* const one[] = {&stream};
  EXPECT_THROW(static_cast<void>(narrow.wdm_powers(
                   std::vector<BitVec>(1, BitVec(8)), 1.0, kNoNoise, one, 5)),
               Error);
}

TEST(ElectricalCrossbar, LeadingColumnsMatchTheFullReadAndItsStream) {
  const std::size_t rows = 300;
  const std::size_t width = 512;
  const EveryNoise noises;
  Rng rng(55);
  ElectricalCrossbar xb({rows, width}, dev::EpcmParams::realistic());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      xb.program(r, c, rng.bits64() % 2);
    }
  }
  for (const bool drifted : {false, true}) {
    if (drifted) {
      xb.set_drift(dev::DriftModel(dev::DriftParams::realistic()), 3600.0,
                   RngStream(0xD41F7));
    }
    for (const auto& [name, noise] : noises.models()) {
      const BitVec active = BitVec::random(rows - 17, rng);
      RngStream full_rng(77);
      const auto full =
          xb.vmm_currents_bits(active, 0.2, *noise, full_rng, 3600.0);
      for (const std::size_t cols : kLeadingCols) {
        const std::string where = std::string(name) +
                                  (drifted ? " drifted" : " pristine") +
                                  " cols=" + std::to_string(cols);
        RngStream lead_rng(77);
        const auto got =
            xb.vmm_currents_bits(active, 0.2, *noise, lead_rng, 3600.0, cols);
        ASSERT_EQ(got.size(), cols) << where;
        EXPECT_TRUE(same_bits(got.data(), full.data(), cols)) << where;
        RngStream after_full = full_rng;
        EXPECT_EQ(lead_rng.bits64(), after_full.bits64())
            << where << " ends elsewhere";
      }
    }
  }
  RngStream stream(9);
  EXPECT_THROW(static_cast<void>(xb.vmm_currents_bits(
                   BitVec(rows), 0.2, kNoNoise, stream, 0.0, width + 1)),
               Error);
}

// ------------------------------------------------------------------- TIA --

TEST(Tia, GainAndDefaultPowerMatchEqTwo) {
  Tia tia;
  EXPECT_DOUBLE_EQ(tia.power_mw(), 2.0);  // paper Eq. 2: 2 mW per TIA
  Rng rng(8);
  EXPECT_DOUBLE_EQ(tia.convert(1.5, kNoNoise, 10.0, rng), 1.5);
  Tia tia5(5.0);
  EXPECT_DOUBLE_EQ(tia5.convert(1.5, kNoNoise, 10.0, rng), 7.5);
}

// ------------------------------------------------- differential (2T2R) --

TEST(DifferentialCrossbar, PcsaReadsXnorExactly) {
  Rng rng(9);
  DifferentialCrossbar xb(4, 16, dev::EpcmParams::ideal());
  const BitMatrix ws = BitMatrix::random(4, 16, rng);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t p = 0; p < 16; ++p) {
      xb.program_pair(r, p, ws.get(r, p));
    }
  }
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec x = BitVec::random(16, rng);
    for (std::size_t r = 0; r < 4; ++r) {
      const BitVec got = xb.read_row_xnor(r, x, 0.2, kNoNoise, rng);
      EXPECT_EQ(got, x.xnor(ws.row(r))) << "row " << r;
    }
  }
}

TEST(DifferentialCrossbar, InputWiderThanPairsThrows) {
  DifferentialCrossbar xb(2, 8, dev::EpcmParams::ideal());
  Rng rng(10);
  EXPECT_THROW(
      static_cast<void>(xb.read_row_xnor(0, BitVec(16), 0.2, kNoNoise, rng)),
      Error);
  // Narrower inputs are fine (partial width tiles) and return their width.
  const BitVec got = xb.read_row_xnor(0, BitVec(4), 0.2, kNoNoise, rng);
  EXPECT_EQ(got.size(), 4u);
}

// Parameterized: PCSA XNOR correctness across device contrast ratios.
class PcsaContrast : public ::testing::TestWithParam<double> {};

TEST_P(PcsaContrast, XnorSurvivesLowContrast) {
  dev::EpcmParams p = dev::EpcmParams::ideal();
  p.g_off_us = p.g_on_us / GetParam();  // contrast ratio from the sweep
  Rng rng(11);
  DifferentialCrossbar xb(1, 32, p);
  const BitVec w = BitVec::random(32, rng);
  for (std::size_t i = 0; i < 32; ++i) {
    xb.program_pair(0, i, w.get(i));
  }
  const BitVec x = BitVec::random(32, rng);
  EXPECT_EQ(xb.read_row_xnor(0, x, 0.2, kNoNoise, rng), x.xnor(w));
}

INSTANTIATE_TEST_SUITE_P(ContrastRatios, PcsaContrast,
                         ::testing::Values(2.0, 5.0, 10.0, 100.0, 1000.0));

}  // namespace
}  // namespace eb::xbar
