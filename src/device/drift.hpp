// Time-dependent PCM conductance drift over programmed crossbars.
//
// dev::drift_factor models single-device drift as G(t) = G0 * (t/t0)^-nu
// (Ielmini-style); DriftModel lifts that to a whole crossbar the way the
// serving layer needs it: a *pure* per-cell multiplicative factor table
// computed from (params, t_s, cell index, RngStream base). Cells do not
// drift in lockstep -- the drift exponent itself varies device to device
// (nu_sigma), and that differential decay is what corrupts calibrated
// readouts rather than merely rescaling them -- so every cell draws its
// own exponent from base.fork(StreamTag::Drift, cell, 0). fork() is a
// pure function of the base state and the indices, which makes a factor
// table bit-identical for any evaluation order and any thread count:
// the same determinism discipline the sharded executors ride.
//
// The factor table is imposed on a crossbar via
// {Electrical,Optical,Differential}Crossbar::set_drift and swapped
// atomically, so a serving-time drift epoch never tears an in-flight
// read. A rewrite (online recalibration) simply clears the table and
// restarts t at zero with a fresh fork generation.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace eb::dev {

struct DriftParams {
  double nu = 0.05;       // mean drift exponent (0 = no drift)
  double nu_sigma = 0.0;  // per-cell Gaussian spread of the exponent
  double t0_s = 1.0;      // drift reference time, seconds

  // No drift at all: every factor is exactly 1.
  [[nodiscard]] static DriftParams none();
  // Published-magnitude GST drift with device-to-device exponent spread.
  [[nodiscard]] static DriftParams realistic();
};

// The crossbar-level drift law: factor(t_s, cell, base) is the
// multiplicative conductance (or transmission) decay of one cell at
// `t_s` seconds after programming.
class DriftModel {
 public:
  explicit DriftModel(DriftParams p = DriftParams::realistic());

  [[nodiscard]] const DriftParams& params() const { return params_; }

  // True when this model can change any cell value at `t_s` (false for
  // nu <= 0 with no spread, or t_s <= 0 -- freshly programmed).
  [[nodiscard]] bool active(double t_s) const;

  // Multiplicative factor of cell `cell` at `t_s` seconds after
  // programming: (max(t_s, eps)/t0)^-nu_cell with
  // nu_cell = max(0, nu + nu_sigma * N(0,1)) drawn from
  // base.fork(StreamTag::Drift, cell, 0). Pure in all arguments.
  [[nodiscard]] double factor(double t_s, std::size_t cell,
                              const RngStream& base) const;

  // Bulk form: the factor table for `cells` cells (what a crossbar's
  // set_drift installs). Returns an empty vector when !active(t_s).
  [[nodiscard]] std::vector<double> factors(double t_s, std::size_t cells,
                                            const RngStream& base) const;

 private:
  DriftParams params_;
};

}  // namespace eb::dev
