// Phase-change-memory device models.
//
// Two families, matching paper section II-C:
//
//  * ePCM -- electronic PCM: the stored state maps to a conductance (read
//    as current under a read voltage). Models programming levels,
//    log-normal programming variability, and resistance drift
//    G(t) = G0 * (t/t0)^-nu (Ielmini-style), both of which the paper cites
//    as ePCM design burdens that oPCM avoids.
//
//  * oPCM -- optical PCM cell on a waveguide: the stored state maps to an
//    optical transmission factor in [0,1] (amorphous = transparent,
//    crystalline = absorbing). Supports multi-level operation for the
//    robustness ablation (Cardoso DATE'23): more levels => smaller level
//    separation => more noise-sensitive. The paper's designs use it in
//    binary mode.
//
// A device is its params struct plus one programmed value; the functions
// below are the whole device model. Crossbars keep one params struct and
// a flat table of programmed values, so no per-cell object exists.
#pragma once

#include <cstddef>

#include "common/rng.hpp"

namespace eb::dev {

struct EpcmParams {
  double g_on_us = 20.0;      // ON conductance, microsiemens
  double g_off_us = 0.1;      // OFF conductance, microsiemens
  double sigma_program = 0.0; // log-normal sigma of programmed conductance
  double drift_nu = 0.0;      // drift exponent (0 = no drift)
  double t0_s = 1.0;          // drift reference time, seconds
  std::size_t levels = 2;     // programmable levels (2 = binary)

  // MNEMOSENE-class characterization defaults (idealized: no variation).
  [[nodiscard]] static EpcmParams ideal();
  // With published-magnitude variability and drift enabled.
  [[nodiscard]] static EpcmParams realistic();
};

struct OpcmParams {
  double t_amorphous = 0.95;   // transmission in the fully amorphous state
  double t_crystalline = 0.10; // transmission in the fully crystalline state
  double insertion_loss_db = 0.5;  // fixed waveguide coupling loss
  double sigma_program = 0.0;      // Gaussian sigma on programmed transmission
  std::size_t levels = 2;

  [[nodiscard]] static OpcmParams ideal();
  [[nodiscard]] static OpcmParams realistic();
};

// Throws eb::Error unless the params describe a usable device (at least
// two levels, ON above OFF, transmissions inside [0,1]).
void validate(const EpcmParams& p);
void validate(const OpcmParams& p);

// Nominal (noise-free) conductance for a level in [0, levels-1], in
// microsiemens; level 0 = OFF, max = fully ON.
[[nodiscard]] double nominal_conductance(const EpcmParams& p,
                                         std::size_t level);

// Nominal transmission for a level (before insertion loss); level 0 =
// crystalline (low T), max = amorphous.
[[nodiscard]] double nominal_transmission(const OpcmParams& p,
                                          std::size_t level);

// One programming event: the level's nominal conductance times a fresh
// log-normal factor drawn from `rng` (no draw when sigma_program = 0).
[[nodiscard]] double program_conductance(const EpcmParams& p,
                                         std::size_t level, RngStream& rng);

// One programming event: the level's nominal transmission plus a Gaussian
// offset drawn from `rng` (no draw when sigma_program = 0), clamped to
// [0,1]. Insertion loss is not applied.
[[nodiscard]] double program_transmission(const OpcmParams& p,
                                          std::size_t level, RngStream& rng);

// Linear transmission factor of the fixed waveguide insertion loss.
[[nodiscard]] double insertion_loss_factor(const OpcmParams& p);

// Device conductance drift at `t_s` seconds after programming: the
// factor (t/t0)^-nu every programmed conductance is multiplied by.
// Exactly 1 with drift disabled (drift_nu <= 0) or at t_s <= 0.
[[nodiscard]] double drift_factor(const EpcmParams& p, double t_s);

}  // namespace eb::dev
