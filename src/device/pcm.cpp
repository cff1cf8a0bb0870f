#include "device/pcm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace eb::dev {

EpcmParams EpcmParams::ideal() { return EpcmParams{}; }

EpcmParams EpcmParams::realistic() {
  EpcmParams p;
  p.sigma_program = 0.05;  // ~5% log-normal programming spread
  p.drift_nu = 0.05;       // typical GST drift exponent
  return p;
}

void validate(const EpcmParams& p) {
  EB_REQUIRE(p.levels >= 2, "device needs at least two levels");
  EB_REQUIRE(p.g_on_us > p.g_off_us, "ON conductance must exceed OFF");
}

double nominal_conductance(const EpcmParams& p, std::size_t level) {
  EB_REQUIRE(level < p.levels, "level out of range");
  const double frac =
      static_cast<double>(level) / static_cast<double>(p.levels - 1);
  return p.g_off_us + frac * (p.g_on_us - p.g_off_us);
}

double program_conductance(const EpcmParams& p, std::size_t level,
                           RngStream& rng) {
  const double nominal = nominal_conductance(p, level);
  if (p.sigma_program > 0.0) {
    return nominal * rng.lognormal(0.0, p.sigma_program);
  }
  return nominal;
}

double drift_factor(const EpcmParams& p, double t_s) {
  if (p.drift_nu <= 0.0 || t_s <= 0.0) {
    return 1.0;
  }
  // Conductance drift: resistance grows as (t/t0)^nu, so G shrinks.
  return std::pow(std::max(t_s, 1e-9) / p.t0_s, -p.drift_nu);
}

// ------------------------------------------------------------------------

OpcmParams OpcmParams::ideal() { return OpcmParams{}; }

OpcmParams OpcmParams::realistic() {
  OpcmParams p;
  p.sigma_program = 0.01;  // ~1% absolute transmission spread
  return p;
}

void validate(const OpcmParams& p) {
  EB_REQUIRE(p.levels >= 2, "device needs at least two levels");
  EB_REQUIRE(p.t_amorphous > p.t_crystalline,
             "amorphous transmission must exceed crystalline");
  EB_REQUIRE(p.t_crystalline >= 0.0 && p.t_amorphous <= 1.0,
             "transmission must lie in [0,1]");
}

double nominal_transmission(const OpcmParams& p, std::size_t level) {
  EB_REQUIRE(level < p.levels, "level out of range");
  const double frac =
      static_cast<double>(level) / static_cast<double>(p.levels - 1);
  return p.t_crystalline + frac * (p.t_amorphous - p.t_crystalline);
}

double program_transmission(const OpcmParams& p, std::size_t level,
                            RngStream& rng) {
  double t = nominal_transmission(p, level);
  if (p.sigma_program > 0.0) {
    t += rng.gaussian(0.0, p.sigma_program);
  }
  return std::clamp(t, 0.0, 1.0);
}

double insertion_loss_factor(const OpcmParams& p) {
  return db_to_linear(-p.insertion_loss_db);
}

}  // namespace eb::dev
