// Functional crossbar array models.
//
//  * ElectricalCrossbar -- 1T1R memristive array (ePCM/ReRAM class).
//    Cells hold ePCM conductances; an analog VMM accumulates
//    I_col = sum_rows V_row * G(row,col) per Kirchhoff/Ohm (paper Fig. 1).
//
//  * OpticalCrossbar -- oPCM array on a photonic mesh. Cells hold oPCM
//    transmissions; each wavelength channel propagates independently, so
//    K wavelength inputs produce K independent column sums in one pass --
//    the physical basis of the paper's WDM MMM (Fig. 5-(b)).
//
// Every crossbar is one device-params struct plus one flat row-major
// table holding, per cell, the value a read multiplies by (programmed
// conductance, or programmed transmission x insertion loss), and exactly
// one read: ElectricalCrossbar::vmm_currents_bits,
// OpticalCrossbar::wdm_powers and DifferentialCrossbar::read_row_xnor.
// Reads keep a fixed operand grouping -- (v * (g * k)) * f electrically,
// (p * t) * f optically, k the device drift power law, f the imposed
// drift factor -- and sum each column in ascending row order, so noisy
// outputs are reproducible to the bit.
//
// An optical read is one WDM pass, however many channels it carries
// (in hardware the channels share one linear medium): a single sweep of
// the cell table, 128 rows at a time, sums every channel's read columns.
// The avx512f candidate forms the product p * t of a driven row once and
// adds it into the register-held sums of every channel of a group of up
// to four that drives the row; the portable one forms it per channel
// while the rows are still cached. Each (channel, column) sum still runs
// over the channel's rows in ascending order, so the candidates
// (wdm_kernels()) agree to the bit with each other and with a
// channel-by-channel loop. The sweep is the only loop that sums optical
// table rows, and it never fuses a multiply with an add: a fused
// multiply-add rounds once where the grouping above rounds twice, so
// crossbar.cpp switches contraction off with a pragma, as
// bnn/real_gemm.cpp does.
//
// A read covers the columns its caller converts: electrical and optical
// reads take a count of leading columns (every column by default), sum
// and noise only those, and then discard from the noise stream the draws
// the other columns would have taken (NoiseModel::draws() each). The
// stream thus ends where a read of every column leaves it, and the read
// columns come out bit-identical to that full read.
//
// These are *functional* models: they compute values (with optional device
// variability and read noise). Latency/energy live in arch::TechParams and
// the mapping/compiler cost models, keeping physics and accounting
// separable and testable.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "device/drift.hpp"
#include "device/noise.hpp"
#include "device/pcm.hpp"

namespace eb::xbar {

struct CrossbarDims {
  std::size_t rows = 0;
  std::size_t cols = 0;

  [[nodiscard]] std::size_t cells() const { return rows * cols; }
  // Row-major flat index of (r, c); throws eb::Error when out of range.
  [[nodiscard]] std::size_t index(std::size_t r, std::size_t c) const;
};

// Serving-time drift imposed on a crossbar: one multiplicative factor per
// cell (null = pristine). set() swaps the table under a mutex, so a
// concurrent read sees the old table or the new one, never a mix.
class DriftTable {
 public:
  // Installs model.factors(t_s, cells, base); an inactive model (or
  // t_s <= 0) clears the table.
  void set(const dev::DriftModel& model, double t_s, std::size_t cells,
           const RngStream& base);
  void clear();
  // The current table, held alive for the duration of one read.
  [[nodiscard]] std::shared_ptr<const std::vector<double>> get() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const std::vector<double>> table_;
};

class ElectricalCrossbar {
 public:
  ElectricalCrossbar(CrossbarDims dims, dev::EpcmParams dev_params,
                     std::uint64_t seed = 11);

  [[nodiscard]] const CrossbarDims& dims() const { return dims_; }

  // Program one cell to a device level (0 = OFF).
  void program(std::size_t row, std::size_t col, std::size_t level);

  // Program a whole column from a bit vector (bit -> ON level).
  void program_column(std::size_t col, const BitVec& bits);

  // Analog VMM of a binary drive: the rows `active` sets are driven at
  // v_read volts, the others at 0 (`active` may be shorter than rows();
  // missing rows are inactive). Returns the currents of the `cols` leading
  // columns (every column if unset) in microamps (uS * V), each summed over
  // the driven rows in ascending order, then noised in column order from
  // `rng`, which then skips the draws of the columns left unread. `t_s` =
  // seconds since programming (device drift power law).
  [[nodiscard]] std::vector<double> vmm_currents_bits(
      const BitVec& active, double v_read, const dev::NoiseModel& noise,
      RngStream& rng, double t_s = 0.0,
      std::optional<std::size_t> cols = std::nullopt) const;

  // Current a single fully-ON cell contributes at v_read (for full-scale
  // and calibration computations). Pristine (undrifted) values: the
  // controller calibrates against what it *programmed*, which is exactly
  // why imposed drift corrupts the digital popcount recovery.
  [[nodiscard]] double on_current(double v_read) const;
  [[nodiscard]] double off_current(double v_read) const;

  // Imposes serving-time drift: every cell's conductance is multiplied
  // by model.factors(t_s, cells, base) until the next set_drift /
  // clear_drift. An inactive model (or t_s <= 0) clears the state. Safe
  // against concurrent vmm_* readers: the factor table is swapped
  // atomically -- a read sees the old table or the new one, never a mix.
  void set_drift(const dev::DriftModel& model, double t_s,
                 const RngStream& base);
  // Restores pristine programmed conductances (a rewrite at t = 0).
  void clear_drift();

 private:
  CrossbarDims dims_;
  dev::EpcmParams params_;
  std::vector<double> g_us_;  // programmed conductance per cell, row-major
  RngStream rng_;             // programming-variability draws
  DriftTable drift_;
};

struct WdmSweep;  // one pass's operands, as handed to a kernel

// One compiled candidate for the optical table sweep and whether the
// host can run it.
struct WdmKernel {
  const char* name;                 // "avx512f" or "portable"
  void (*sweep)(const WdmSweep&);  // sums every channel's read columns
  bool supported;                   // host CPU can execute it
};

// Every candidate compiled into this build, fastest first; "portable" is
// last and supported everywhere.
[[nodiscard]] const std::vector<WdmKernel>& wdm_kernels();

class OpticalCrossbar {
 public:
  OpticalCrossbar(CrossbarDims dims, dev::OpcmParams dev_params,
                  std::uint64_t seed = 13);

  [[nodiscard]] const CrossbarDims& dims() const { return dims_; }

  void program(std::size_t row, std::size_t col, std::size_t level);
  void program_column(std::size_t col, const BitVec& bits);

  // One WDM pass, the read every optical read goes through. drives[k] is
  // wavelength channel k's binary row drive: an active row carries
  // p_in_mw of optical power on that channel (a drive may be shorter than
  // rows(); missing rows are inactive). The pass reads the `cols` leading
  // columns (every column if unset). One sweep of the cell table sums
  // every channel: out[k * cols + c] accumulates p * t_eff(r, c) --
  // (p * t_eff(r, c)) * f(r, c) under imposed drift -- over the rows r
  // that drives[k] sets, in ascending row order. Then each channel's
  // `cols` sums are noised in column order from *rngs[k], which skips
  // the draws of the dims().cols - cols unread columns, channel after
  // channel, so rngs that all point at one stream draw channel-major.
  // Returns the channels x cols powers, channel-major.
  [[nodiscard]] std::vector<double> wdm_powers(
      std::span<const BitVec> drives, double p_in_mw,
      const dev::NoiseModel& noise, std::span<RngStream* const> rngs,
      std::optional<std::size_t> cols = std::nullopt) const;

  // As above on a caller-chosen sweep candidate (tests and benches;
  // eb::Error if the host cannot run it). Bit-identical across candidates.
  [[nodiscard]] std::vector<double> wdm_powers(
      const WdmKernel& kernel, std::span<const BitVec> drives,
      double p_in_mw, const dev::NoiseModel& noise,
      std::span<RngStream* const> rngs,
      std::optional<std::size_t> cols = std::nullopt) const;

  // Received power from a single amorphous (transparent) cell at p_in.
  // Pristine values -- the receiver's calibration reference.
  [[nodiscard]] double on_power(double p_in_mw) const;
  [[nodiscard]] double off_power(double p_in_mw) const;

  // Imposes serving-time aging: every cell's transmission is multiplied
  // by the model's per-cell factor until the next set_drift /
  // clear_drift (same contract as ElectricalCrossbar::set_drift).
  void set_drift(const dev::DriftModel& model, double t_s,
                 const RngStream& base);
  // Restores pristine programmed transmissions.
  void clear_drift();

 private:
  CrossbarDims dims_;
  dev::OpcmParams params_;
  double loss_;  // insertion-loss factor, computed once per crossbar
  // Effective transmission per cell (programmed x loss_), row-major.
  std::vector<double> t_eff_;
  RngStream rng_;
  DriftTable drift_;
};

// A 2T2R differential array as used by CustBinaryMap (paper Fig. 2-(a)).
// Each logical cell stores a (w, ~w) device pair; a read drives one row
// with the interleaved input (x, ~x) pattern on the bit-line pairs and the
// PCSA emits one XNOR bit per pair.
class DifferentialCrossbar {
 public:
  // `pairs` logical columns (2*pairs physical devices per row).
  DifferentialCrossbar(std::size_t rows, std::size_t pairs,
                       dev::EpcmParams dev_params, std::uint64_t seed = 17);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t pairs() const { return pairs_; }

  // Store weight bit `w` at (row, pair): programs the pair (w, ~w).
  void program_pair(std::size_t row, std::size_t pair, bool w);

  // Activate `row` with input bits x (one per pair, interleaved with the
  // complement on the paired bit line); returns the PCSA output bits,
  // which equal XNOR(x, w) per pair for ideal devices.
  [[nodiscard]] BitVec read_row_xnor(std::size_t row, const BitVec& x,
                                     double v_read,
                                     const dev::NoiseModel& noise,
                                     RngStream& rng) const;

  // Imposes serving-time drift on the 2 * rows * pairs devices (same
  // contract as ElectricalCrossbar::set_drift). The PCSA's reference
  // current stays pristine, so drift past the i_ref midpoint flips
  // sense-amp decisions.
  void set_drift(const dev::DriftModel& model, double t_s,
                 const RngStream& base);
  // Restores pristine programmed conductances.
  void clear_drift();

 private:
  std::size_t rows_;
  std::size_t pairs_;
  dev::EpcmParams params_;
  std::vector<double> g_us_;  // programmed conductance, [row][pair][branch]
  RngStream rng_;
  DriftTable drift_;
};

}  // namespace eb::xbar
