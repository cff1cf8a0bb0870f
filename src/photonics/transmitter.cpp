#include "photonics/transmitter.hpp"

#include "common/error.hpp"
#include "common/units.hpp"

namespace eb::phot {

Transmitter::Transmitter(TransmitterParams params, std::size_t wdm_capacity,
                         std::size_t rows)
    : params_(params), k_(wdm_capacity), m_(rows) {
  EB_REQUIRE(k_ >= 1, "WDM capacity must be >= 1");
  EB_REQUIRE(m_ >= 1, "row count must be >= 1");
  EB_REQUIRE(params_.laser_power_mw > 0.0, "laser power must be positive");
}

double Transmitter::channel_power_mw() const {
  const double optical =
      params_.laser_power_mw * params_.laser_efficiency;
  const double per_channel = optical / static_cast<double>(k_);
  const double chain_loss_db =
      params_.comb_loss_db + params_.mux_loss_db + params_.voa_loss_db;
  return per_channel * db_to_linear(-chain_loss_db);
}

double Transmitter::laser_term_mw() const { return params_.laser_power_mw; }

double Transmitter::modulator_term_mw() const {
  return params_.modulator_mw_per_elem * static_cast<double>(k_ * m_);
}

double Transmitter::tuning_term_mw() const {
  const double km1 = static_cast<double>(k_ * m_ + 1);
  return 3.0 * km1 / static_cast<double>(k_) * params_.tuning_mw_per_elem;
}

double Transmitter::total_power_mw() const {
  return transmitter_power_mw(params_.laser_power_mw, k_, m_,
                              params_.modulator_mw_per_elem,
                              params_.tuning_mw_per_elem);
}

double crossbar_tia_power_mw(std::size_t n_cols, double tia_mw) {
  EB_REQUIRE(n_cols >= 1, "need at least one column");
  return static_cast<double>(n_cols) * tia_mw;  // paper Eq. 2
}

double transmitter_power_mw(double p_laser_mw, std::size_t k, std::size_t m,
                            double modulator_mw, double tuning_mw) {
  EB_REQUIRE(k >= 1 && m >= 1, "K and M must be >= 1");
  const double km = static_cast<double>(k * m);
  // Paper Eq. 3: P_laser + 3*K*M [mW] + 3*(K*M+1)/K * 45 [mW], with the
  // modulator coefficient (3 mW) and tuning coefficient (45 mW) exposed as
  // parameters.
  return p_laser_mw + modulator_mw * km +
         3.0 * (km + 1.0) / static_cast<double>(k) * tuning_mw;
}

}  // namespace eb::phot
