// EinsteinBarrier receiver chain: per-column photodiode -> TIA -> ADC,
// with per-wavelength demultiplexing for MMM readout (paper section
// IV-A1: "EinsteinBarrier uses TIA to feed ADCs, acting as a
// deserialization stage in the output").
//
// The receiver recovers integer popcounts from optical column powers: with
// ideal devices a column receiving p = n_on * P_on + n_off * P_off is
// inverted to n_on by digital calibration against the known P_on/P_off.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "device/noise.hpp"
#include "xbar/periph.hpp"

namespace eb::phot {

struct ReceiverParams {
  double tia_gain = 1.0;
  double tia_power_mw = 2.0;      // per column, paper Eq. 2
  unsigned adc_bits = 10;         // >= log2(rows+1) for exact popcounts
  double photodiode_responsivity = 1.0;  // A/W (folded into gain here)

  [[nodiscard]] static ReceiverParams defaults() { return {}; }
};

class Receiver {
 public:
  // `rows_spanned`: number of *simultaneously active* rows a column
  // accumulates -- constant under TacitMap's [x ; ~x] drive (= m, the
  // vector length), which is what makes exact calibration possible. Sets
  // the ADC full scale. `p_on` / `p_off`: received power from one ON / OFF
  // cell at the operating channel power.
  Receiver(ReceiverParams params, std::size_t rows_spanned, double p_on,
           double p_off);

  // Converts one column's received optical power into a popcount estimate:
  // TIA (+noise) -> ADC -> digital calibration. Exact for ideal devices
  // and zero noise. The receiver's one decode: a WDM pass calls it per
  // (channel, column), each channel drawing from its own stream. Builds
  // nothing: the TIA, its full scale and the calibration terms are fixed
  // at construction.
  [[nodiscard]] std::size_t decode_popcount(double power_mw,
                                            const dev::NoiseModel& noise,
                                            RngStream& rng) const;

  // Total receiver power for `n_cols` columns (paper Eq. 2).
  [[nodiscard]] double power_mw(std::size_t n_cols) const;

  [[nodiscard]] const ReceiverParams& params() const { return params_; }

 private:
  ReceiverParams params_;
  std::size_t rows_;
  xbar::Adc adc_;
  xbar::Tia tia_;
  double full_scale_;  // tia_gain * rows * p_on: the TIA noise reference
  double rows_p_off_;  // rows * p_off: the all-OFF pedestal
  double contrast_;    // p_on - p_off
};

}  // namespace eb::phot
