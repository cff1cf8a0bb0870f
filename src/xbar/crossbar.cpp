#include "xbar/crossbar.hpp"

#include "common/error.hpp"
#include "xbar/periph.hpp"

namespace eb::xbar {

std::size_t CrossbarDims::index(std::size_t r, std::size_t c) const {
  EB_REQUIRE(r < rows && c < cols, "cell index out of range");
  return r * cols + c;
}

// ----------------------------------------------------------- DriftTable --

void DriftTable::set(const dev::DriftModel& model, double t_s,
                     std::size_t cells, const RngStream& base) {
  auto factors = model.factors(t_s, cells, base);
  std::shared_ptr<const std::vector<double>> table;
  if (!factors.empty()) {
    table = std::make_shared<const std::vector<double>>(std::move(factors));
  }
  std::lock_guard<std::mutex> g(mu_);
  table_ = std::move(table);
}

void DriftTable::clear() {
  std::lock_guard<std::mutex> g(mu_);
  table_.reset();
}

std::shared_ptr<const std::vector<double>> DriftTable::get() const {
  std::lock_guard<std::mutex> g(mu_);
  return table_;
}

// ------------------------------------------------------- ElectricalXbar --

ElectricalCrossbar::ElectricalCrossbar(CrossbarDims dims,
                                       dev::EpcmParams dev_params,
                                       std::uint64_t seed)
    : dims_(dims),
      params_(dev_params),
      g_us_(dims.cells(), dev_params.g_off_us),
      rng_(seed) {
  dev::validate(params_);
  EB_REQUIRE(dims.rows > 0 && dims.cols > 0, "crossbar must be non-empty");
}

void ElectricalCrossbar::program(std::size_t row, std::size_t col,
                                 std::size_t level) {
  const std::size_t i = dims_.index(row, col);
  g_us_[i] = dev::program_conductance(params_, level, rng_);
}

void ElectricalCrossbar::program_column(std::size_t col, const BitVec& bits) {
  EB_REQUIRE(bits.size() <= dims_.rows,
             "bit vector longer than crossbar column");
  for (std::size_t r = 0; r < bits.size(); ++r) {
    program(r, col, bits.get(r) ? 1 : 0);
  }
  // Rows beyond the vector stay untouched (caller owns layout policy).
}

std::vector<double> ElectricalCrossbar::vmm_currents(
    const std::vector<double>& v_rows, const dev::NoiseModel& noise, RngStream& rng,
    double t_s) const {
  EB_REQUIRE(v_rows.size() <= dims_.rows, "too many row voltages");
  const auto drift = drift_.get();
  // Device drift scales every cell alike: one power law per read.
  const double k = dev::drift_factor(params_, t_s);
  std::vector<double> out(dims_.cols, 0.0);
  for (std::size_t r = 0; r < v_rows.size(); ++r) {
    const double v = v_rows[r];
    if (v == 0.0) {
      continue;
    }
    const double* g = g_us_.data() + r * dims_.cols;
    if (drift) {
      const double* f = drift->data() + r * dims_.cols;
      for (std::size_t c = 0; c < dims_.cols; ++c) {
        out[c] += v * (g[c] * k) * f[c];
      }
    } else {
      for (std::size_t c = 0; c < dims_.cols; ++c) {
        out[c] += v * (g[c] * k);
      }
    }
  }
  const double full_scale =
      static_cast<double>(dims_.rows) * on_current(1.0);
  for (auto& i : out) {
    i = noise.apply(i, full_scale, rng);
  }
  return out;
}

std::vector<double> ElectricalCrossbar::vmm_currents_bits(
    const BitVec& active, double v_read, const dev::NoiseModel& noise,
    RngStream& rng, double t_s) const {
  EB_REQUIRE(active.size() <= dims_.rows, "too many active rows");
  std::vector<double> v(active.size(), 0.0);
  for (std::size_t r = 0; r < active.size(); ++r) {
    v[r] = active.get(r) ? v_read : 0.0;
  }
  return vmm_currents(v, noise, rng, t_s);
}

double ElectricalCrossbar::on_current(double v_read) const {
  return v_read * params_.g_on_us;
}

double ElectricalCrossbar::off_current(double v_read) const {
  return v_read * params_.g_off_us;
}

void ElectricalCrossbar::set_drift(const dev::DriftModel& model, double t_s,
                                   const RngStream& base) {
  drift_.set(model, t_s, g_us_.size(), base);
}

void ElectricalCrossbar::clear_drift() { drift_.clear(); }

// --------------------------------------------------------- OpticalXbar --

OpticalCrossbar::OpticalCrossbar(CrossbarDims dims, dev::OpcmParams dev_params,
                                 std::uint64_t seed)
    : dims_(dims),
      params_(dev_params),
      loss_(dev::insertion_loss_factor(dev_params)),
      t_eff_(dims.cells(), dev_params.t_crystalline * loss_),
      rng_(seed) {
  dev::validate(params_);
  EB_REQUIRE(dims.rows > 0 && dims.cols > 0, "crossbar must be non-empty");
}

void OpticalCrossbar::program(std::size_t row, std::size_t col,
                              std::size_t level) {
  const std::size_t i = dims_.index(row, col);
  t_eff_[i] = dev::program_transmission(params_, level, rng_) * loss_;
}

void OpticalCrossbar::program_column(std::size_t col, const BitVec& bits) {
  EB_REQUIRE(bits.size() <= dims_.rows,
             "bit vector longer than crossbar column");
  for (std::size_t r = 0; r < bits.size(); ++r) {
    program(r, col, bits.get(r) ? (params_.levels - 1) : 0);
  }
}

std::vector<std::vector<double>> OpticalCrossbar::mmm_powers(
    const std::vector<BitVec>& wavelength_inputs, double p_in_mw,
    const dev::NoiseModel& noise, RngStream& rng) const {
  // Channels are physically independent; draws stay channel-major, so
  // this is exactly a sequence of single-channel passes.
  std::vector<std::vector<double>> out;
  out.reserve(wavelength_inputs.size());
  for (const BitVec& input : wavelength_inputs) {
    out.push_back(vmm_powers(input, p_in_mw, noise, rng));
  }
  return out;
}

std::vector<double> OpticalCrossbar::vmm_powers(const BitVec& input,
                                                double p_in_mw,
                                                const dev::NoiseModel& noise,
                                                RngStream& rng) const {
  // Direct single-channel path: the WDM executor calls this once per
  // (shard, wavelength) on the simulator's hottest loop, so it must not
  // pay mmm_powers' temporary input vector + result-row copy. Draw order
  // is identical to a one-channel mmm_powers call.
  EB_REQUIRE(input.size() <= dims_.rows, "too many active rows");
  const auto drift = drift_.get();
  const double full_scale =
      static_cast<double>(dims_.rows) * on_power(p_in_mw);
  std::vector<double> cols(dims_.cols, 0.0);
  for (std::size_t r = 0; r < input.size(); ++r) {
    if (!input.get(r)) {
      continue;
    }
    const double* t = t_eff_.data() + r * dims_.cols;
    if (drift) {
      const double* f = drift->data() + r * dims_.cols;
      for (std::size_t c = 0; c < dims_.cols; ++c) {
        cols[c] += p_in_mw * t[c] * f[c];
      }
    } else {
      for (std::size_t c = 0; c < dims_.cols; ++c) {
        cols[c] += p_in_mw * t[c];
      }
    }
  }
  for (auto& p : cols) {
    p = noise.apply(p, full_scale, rng);
  }
  return cols;
}

double OpticalCrossbar::on_power(double p_in_mw) const {
  return p_in_mw * params_.t_amorphous * loss_;
}

double OpticalCrossbar::off_power(double p_in_mw) const {
  return p_in_mw * params_.t_crystalline * loss_;
}

void OpticalCrossbar::set_drift(const dev::DriftModel& model, double t_s,
                                const RngStream& base) {
  drift_.set(model, t_s, t_eff_.size(), base);
}

void OpticalCrossbar::clear_drift() { drift_.clear(); }

// ----------------------------------------------------- DifferentialXbar --

DifferentialCrossbar::DifferentialCrossbar(std::size_t rows, std::size_t pairs,
                                           dev::EpcmParams dev_params,
                                           std::uint64_t seed)
    : rows_(rows),
      pairs_(pairs),
      params_(dev_params),
      g_us_(rows * pairs * 2, dev_params.g_off_us),
      rng_(seed) {
  dev::validate(params_);
  EB_REQUIRE(rows > 0 && pairs > 0, "crossbar must be non-empty");
}

void DifferentialCrossbar::program_pair(std::size_t row, std::size_t pair,
                                        bool w) {
  EB_REQUIRE(row < rows_ && pair < pairs_, "pair index out of range");
  const std::size_t base = (row * pairs_ + pair) * 2;
  g_us_[base] = dev::program_conductance(params_, w ? 1 : 0, rng_);
  g_us_[base + 1] = dev::program_conductance(params_, w ? 0 : 1, rng_);
}

BitVec DifferentialCrossbar::read_row_xnor(std::size_t row, const BitVec& x,
                                           double v_read,
                                           const dev::NoiseModel& noise,
                                           RngStream& rng) const {
  EB_REQUIRE(row < rows_, "row out of range");
  EB_REQUIRE(x.size() <= pairs_, "input wider than pair count");
  const double i_on = v_read * params_.g_on_us;
  const double i_off = v_read * params_.g_off_us;
  const double i_ref = 0.5 * (i_on + i_off);
  const PrechargeSenseAmp pcsa;

  const auto drift = drift_.get();
  BitVec out(x.size());
  for (std::size_t p = 0; p < x.size(); ++p) {
    const std::size_t base = (row * pairs_ + p) * 2;
    const double f_w = drift ? (*drift)[base] : 1.0;
    const double f_wb = drift ? (*drift)[base + 1] : 1.0;
    // Complementary bit-line drive: x selects the w branch, ~x the ~w
    // branch; the summed pair current is high iff XNOR(x, w) = 1.
    const double i = (x.get(p) ? v_read : 0.0) * g_us_[base] * f_w +
                     (x.get(p) ? 0.0 : v_read) * g_us_[base + 1] * f_wb;
    const double i_noisy = noise.apply(i, i_on, rng);
    out.set(p, pcsa.sense(i_noisy, i_ref, i_on, rng));
  }
  return out;
}

void DifferentialCrossbar::set_drift(const dev::DriftModel& model, double t_s,
                                     const RngStream& base) {
  drift_.set(model, t_s, g_us_.size(), base);
}

void DifferentialCrossbar::clear_drift() { drift_.clear(); }

}  // namespace eb::xbar
