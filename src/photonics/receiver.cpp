#include "photonics/receiver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "photonics/transmitter.hpp"

namespace eb::phot {

Receiver::Receiver(ReceiverParams params, std::size_t rows_spanned,
                   double p_on, double p_off)
    : params_(params),
      rows_(rows_spanned),
      adc_(params.adc_bits,
           params.tia_gain * static_cast<double>(rows_spanned) *
               std::max(p_on, 1e-12)),
      tia_(params.tia_gain, params.tia_power_mw),
      full_scale_(params.tia_gain * static_cast<double>(rows_spanned) * p_on),
      rows_p_off_(static_cast<double>(rows_spanned) * p_off),
      contrast_(p_on - p_off) {
  EB_REQUIRE(rows_ >= 1, "receiver must span at least one row");
  EB_REQUIRE(p_on > p_off, "ON power must exceed OFF power");
  EB_REQUIRE(p_off >= 0.0, "OFF power must be non-negative");
}

std::size_t Receiver::decode_popcount(double power_mw,
                                      const dev::NoiseModel& noise,
                                      RngStream& rng) const {
  const double v = tia_.convert(power_mw, noise, full_scale_, rng);
  const double analog = adc_.dequantize(adc_.quantize(v));
  // Calibration: v = gain * (n_on * p_on + n_off * p_off) where
  // n_on + n_off = active rows is unknown per column; but for TacitMap the
  // total active-row count is constant (= rows_), so
  //   n_on = (v/gain - rows*p_off) / (p_on - p_off).
  const double n_on =
      (analog / params_.tia_gain - rows_p_off_) / contrast_;
  const double clamped =
      std::clamp(n_on, 0.0, static_cast<double>(rows_));
  return static_cast<std::size_t>(std::llround(clamped));
}

double Receiver::power_mw(std::size_t n_cols) const {
  return crossbar_tia_power_mw(n_cols, params_.tia_power_mw);
}

}  // namespace eb::phot
