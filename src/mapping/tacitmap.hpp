/// \file
/// \brief TacitMap -- the paper's proposed data mapping (section III).
///
/// Layout (Fig. 2-(b) / Fig. 3-(b)): weight vector W_j of length m occupies
/// *column* j as the 2m-bit stack [W_j ; ~W_j] on 1T1R cells. The input
/// drive is the concatenation [X ; ~X]. Since
///
///   popcount(X XNOR W) = X.W + ~X.~W          (0/1 dot products)
///
/// one analog VMM step accumulates the full XNOR+Popcount of X against all
/// n weight columns at once, read out by the per-column ADCs -- no PCSA, no
/// digital popcount circuitry, and n results per step instead of 1.
///
/// Two functional executors are provided, both implementing
/// map::MappedExecutor:
///  * TacitMapElectrical -- ePCM crossbars (TacitMap-ePCM configuration),
///    one VMM per input;
///  * TacitMapOptical    -- oPCM crossbars + transmitter/receiver, with
///    WDM MMM execution of up to K input vectors per step (EinsteinBarrier
///    VCore behaviour); execute_batch tiles a batch into ceil(B / K) WDM
///    passes.
///
/// Both program the same [w ; ~w] column stacks, split oversize tasks with
/// TacitPartition and accumulate partial popcounts across row segments
/// digitally (the ECore output-register adder in the real design).
///
/// Execution model: each (row segment x column tile) crossbar step is an
/// independent shard; an input (electrical) or a WDM pass (optical)
/// flattens the grid through map::CrossbarScheduler, which runs shards
/// across an optional ThreadPool (pool == nullptr -> serial) and reduces
/// the partial popcounts deterministically. Every shard draws read-noise
/// from its own RngStream derived from the caller's stream -- per shard
/// for the electrical path, per (shard, wavelength channel) for the
/// optical one -- so noisy results are bit-identical for any thread count
/// and any WDM batch tiling. An
/// optical shard reads all of its pass's wavelength channels at once, in
/// one OpticalCrossbar::wdm_powers sweep of the crossbar's cell table, as
/// the hardware does; a channel whose segment drive is empty is left out
/// of the sweep and draws nothing.
///
/// A shard reads only its tile's columns, the ones its ADCs convert, so
/// per input it performs segments x n conversions, the count
/// arch::CostModel charges: the electrical read noises each converted
/// column once, and the optical path noises it twice (the column read,
/// then the receiver's TIA). The crossbar's unread columns draw no noise;
/// their draws are skipped, which keeps every noisy result where a read
/// of every column put it.
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
#include "mapping/task.hpp"
#include "photonics/receiver.hpp"
#include "photonics/transmitter.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/periph.hpp"

namespace eb::map {

/// Configuration of the electrical (ePCM) TacitMap executor.
struct TacitElectricalConfig {
  xbar::CrossbarDims dims{512, 512};  ///< Crossbar geometry per tile.
  dev::EpcmParams device = dev::EpcmParams::ideal();  ///< Device model.
  double v_read = 0.2;      ///< Read voltage, volts.
  unsigned adc_bits = 10;   ///< >= log2(active rows + 1) for exact popcounts.
  std::uint64_t seed = 101;  ///< Device-variability seed.
};

/// TacitMap on 1T1R ePCM crossbars (the paper's TacitMap-ePCM design).
class TacitMapElectrical final : public MappedExecutor {
 public:
  /// Programs the task's weights into as many crossbars as the partition
  /// requires (row segments x column tiles).
  TacitMapElectrical(const BitMatrix& weights, TacitElectricalConfig cfg);

  /// One analog VMM per input: out[i][j] = popcount(inputs[i] XNOR w_j),
  /// exact for ideal devices / zero noise. Inputs fan out across `pool`
  /// and each input's independent (segment x tile) crossbar steps nest
  /// into the same pool (parallel_for is re-entrant) -- the serving
  /// layer's batch-fan-out x crossbar-shard overlap. Bit-identical to a
  /// serial execute(inputs[i]) loop for any pool width.
  [[nodiscard]] std::vector<std::vector<std::size_t>> execute_batch(
      std::span<const BitVec> inputs, const dev::NoiseModel& noise,
      RngStream& rng, ThreadPool* pool = nullptr) const override;

  /// Task shape (m input bits, n weight vectors).
  [[nodiscard]] ExecutorDims dims() const override;

  /// "tacitmap-electrical RxC (S seg x T tiles)".
  [[nodiscard]] std::string descriptor() const override;

  /// Tiling of the task over crossbars.
  [[nodiscard]] const TacitPartition& partition() const { return part_; }

  /// Configuration the executor was built with.
  [[nodiscard]] const TacitElectricalConfig& config() const { return cfg_; }

  /// Crossbar VMM passes one input takes (row segments run on distinct
  /// crossbars in parallel; this counts the sequential passes: 1).
  [[nodiscard]] static constexpr std::size_t steps_per_input() { return 1; }

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

  TacitElectricalConfig cfg_;
  TacitPartition part_;
  // crossbars_[segment * col_tiles + tile]
  std::vector<std::unique_ptr<xbar::ElectricalCrossbar>> crossbars_;
};

/// Configuration of the optical (oPCM + WDM) TacitMap executor.
struct TacitOpticalConfig {
  xbar::CrossbarDims dims{512, 512};  ///< Crossbar geometry per tile.
  dev::OpcmParams device = dev::OpcmParams::ideal();  ///< Device model.
  std::size_t wdm_capacity = 16;  ///< Wavelength channels per crossbar pass.
  phot::TransmitterParams tx = phot::TransmitterParams::defaults();  ///< Laser/modulator bank.
  phot::ReceiverParams rx = phot::ReceiverParams::defaults();  ///< Photodiode/TIA/ADC chain.
  std::uint64_t seed = 103;  ///< Device-variability seed.
};

/// TacitMap on oPCM photonic crossbars with WDM multi-input execution
/// (the EinsteinBarrier VCore). The WDM channel set is the hardware's
/// native batch dimension: execute_batch maps batches onto wavelengths
/// first (passes of up to wdm_capacity inputs) and thread-pool fan-out
/// second.
class TacitMapOptical final : public MappedExecutor {
 public:
  /// Programs the task's weights into the partition's crossbars.
  TacitMapOptical(const BitMatrix& weights, TacitOpticalConfig cfg);

  /// WDM MMM: tiles the batch into ceil(B / wdm_capacity) WDM passes, each
  /// carrying up to `wdm_capacity` inputs on distinct wavelengths through
  /// one crossbar pass, and fans the passes across `pool`; each pass's
  /// crossbar shards nest into the same re-entrant pool. out[i][j] =
  /// popcount(inputs[i] XNOR w_j). Every input owns a private stream split
  /// off `rng` in input order and every shard derives per-channel forks
  /// from it, so out[i] is bit-identical to execute(inputs[i]) run against
  /// the same stream family -- WDM coalescing and pass tiling never change
  /// a request's result, for any pool width.
  [[nodiscard]] std::vector<std::vector<std::size_t>> execute_batch(
      std::span<const BitVec> inputs, const dev::NoiseModel& noise,
      RngStream& rng, ThreadPool* pool = nullptr) const override;

  /// Task shape (m input bits, n weight vectors).
  [[nodiscard]] ExecutorDims dims() const override;

  /// "tacitmap-optical RxC wdm=K (S seg x T tiles)".
  [[nodiscard]] std::string descriptor() const override;

  /// Tiling of the task over crossbars.
  [[nodiscard]] const TacitPartition& partition() const { return part_; }

  /// Configuration the executor was built with.
  [[nodiscard]] const TacitOpticalConfig& config() const { return cfg_; }

  /// Imposes drift on every tile's crossbar (map::set_drift_each: tile k
  /// forks base.fork(StreamTag::Drift, k, 0)).
  void set_drift(const dev::DriftModel& model, double t_s,
                 const RngStream& base) const override;

  /// Restores pristine programmed transmissions (online rewrite).
  void clear_drift() const override;

 private:
  // One WDM pass over `inputs` (<= wdm_capacity of them) where inputs[i]
  // draws every stochastic sample from streams forked off bases[i]. Each
  // shard makes one wdm_powers call for all its channels.
  [[nodiscard]] std::vector<std::vector<std::size_t>> wdm_pass(
      std::span<const BitVec> inputs, const dev::NoiseModel& noise,
      std::span<const RngStream> bases, ThreadPool* pool) const;

  TacitOpticalConfig cfg_;
  TacitPartition part_;
  std::vector<std::unique_ptr<xbar::OpticalCrossbar>> crossbars_;
};

/// Builds the [w ; ~w] column stack for a weight vector (layout primitive,
/// exposed for tests and the compiler's program generator).
[[nodiscard]] BitVec tacit_column_stack(const BitVec& w);

/// Builds the [x ; ~x] row drive for an input vector.
[[nodiscard]] BitVec tacit_row_drive(const BitVec& x);

}  // namespace eb::map
