/// \file
/// \brief CustBinaryMap -- the SotA baseline mapping (Hirtzlin et al. 2020;
/// paper Fig. 2-(a) / Fig. 3-(a)).
///
/// Layout: weight vector W_j occupies *row* j of a 2T2R array, interleaved
/// bitwise with its complement: [w1 ~w1 w2 ~w2 ... wm ~wm]. The input is
/// applied on the bit-line pairs as (x, ~x); activating row j makes the
/// precharge sense amplifiers emit XNOR(x, W_j) one bit per column pair.
/// The popcount is then computed in digital logic: a 5-bit counter per
/// column chunk plus a tree-based global popcount across connected
/// crossbars. Functionally that is a popcount of the row's XNOR bits; the
/// counters' and the tree's cost lives in arch::CostModel
/// (TechParams::e_counter_fj, e_adder_pj).
///
/// Consequences the paper builds on:
///  * one row activation per weight vector => n sequential steps per input
///    (TacitMap needs 1),
///  * extra digital circuitry (counters + tree) on every readout,
///  * a customized 2T2R cell + modified SA microarchitecture.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "device/pcm.hpp"
#include "mapping/executor.hpp"
#include "mapping/partitioner.hpp"
#include "mapping/scheduler.hpp"
#include "xbar/crossbar.hpp"

namespace eb::map {

/// Configuration of the CustBinaryMap baseline executor.
struct CustBinaryConfig {
  std::size_t rows = 512;   ///< Word lines per crossbar.
  std::size_t pairs = 256;  ///< 2T2R column pairs per crossbar (512 devices).
  dev::EpcmParams device = dev::EpcmParams::ideal();  ///< Device model.
  double v_read = 0.2;  ///< Read voltage, volts.
  std::uint64_t seed = 107;  ///< Device-variability seed.
};

/// The 2T2R + PCSA baseline mapping, implementing map::MappedExecutor via
/// sequential row activation and digital popcount.
class CustBinaryMap final : public MappedExecutor {
 public:
  /// Programs the task's weights into the partition's crossbars.
  CustBinaryMap(const BitMatrix& weights, CustBinaryConfig cfg);

  /// XNOR+Popcounts of every input against all n weight vectors via
  /// sequential row activation + digital popcount, exact for ideal
  /// devices. Inputs fan out across `pool` and each input's independent
  /// (row group x width tile) crossbars nest into the same re-entrant pool
  /// (the scheme TacitMapElectrical::execute_batch uses). Bit-identical to
  /// a serial execute(inputs[i]) loop for any pool width.
  [[nodiscard]] std::vector<std::vector<std::size_t>> execute_batch(
      std::span<const BitVec> inputs, const dev::NoiseModel& noise,
      RngStream& rng, ThreadPool* pool = nullptr) const override;

  /// Task shape (m input bits, n weight vectors).
  [[nodiscard]] ExecutorDims dims() const override;

  /// "custbinarymap RxP (G grp x T tiles)".
  [[nodiscard]] std::string descriptor() const override;

  /// Row-activation steps one input vector needs (row groups on distinct
  /// crossbars run in parallel): max rows used in a crossbar.
  [[nodiscard]] std::size_t steps_per_input() const {
    return part_.steps_per_input();
  }

  /// Tiling of the task over crossbars.
  [[nodiscard]] const CustPartition& partition() const { return part_; }

  /// Configuration the executor was built with.
  [[nodiscard]] const CustBinaryConfig& config() const { return cfg_; }

  /// Imposes drift on every tile's crossbar (map::set_drift_each: tile k
  /// forks base.fork(StreamTag::Drift, k, 0)).
  void set_drift(const dev::DriftModel& model, double t_s,
                 const RngStream& base) const override;

  /// Restores pristine programmed conductances (online rewrite).
  void clear_drift() const override;

 private:
  // One input's popcounts, every shard drawing from a fork of `base`.
  [[nodiscard]] std::vector<std::size_t> run_input(
      const BitVec& x, const dev::NoiseModel& noise, const RngStream& base,
      ThreadPool* pool) const;

  CustBinaryConfig cfg_;
  CustPartition part_;
  // crossbars_[group * width_tiles + tile]
  std::vector<std::unique_ptr<xbar::DifferentialCrossbar>> crossbars_;
};

}  // namespace eb::map
