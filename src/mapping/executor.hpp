/// \file
/// \brief The polymorphic mapped-executor interface every crossbar mapping
/// implements.
///
/// The paper evaluates three crossbar organizations -- TacitMap on ePCM,
/// TacitMap on oPCM + WDM (the EinsteinBarrier VCore), and the
/// CustBinaryMap SotA baseline. They differ in layout and physics but
/// consume the same workload unit (map::XnorPopcountTask shapes: n binary
/// weight vectors of length m hit by m-bit inputs) and produce the same
/// result shape (one popcount per weight vector). MappedExecutor captures
/// that contract so the serving layer, the validator and the eval sweeps
/// can drive *any* mapping through one interface -- a backend becomes a
/// constructor choice instead of a code path.
///
/// An executor implements one run, execute_batch; execute(x) is the
/// one-input batch, defined once here. Every implementation runs its
/// batch through map::fan_out_batch (scheduler.hpp), which splits one
/// RngStream base per input off the caller's stream, in input order,
/// before anything is dispatched (see the determinism contract in
/// docs/ARCHITECTURE.md). So out[i] of execute_batch(inputs) is
/// bit-identical to a serial loop of execute(inputs[i]) calls for any
/// thread-pool width, including the fully serial pool == nullptr path.
/// What the batch dimension maps onto is implementation-defined -- WDM
/// wavelengths first for the optical executor, thread-pool fan-out for
/// the electrical and Cust ones.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/drift.hpp"
#include "device/noise.hpp"

namespace eb::map {

/// Logical task shape an executor was programmed with.
struct ExecutorDims {
  std::size_t m = 0;  ///< Input length in bits (weight-vector length).
  std::size_t n = 0;  ///< Number of weight vectors == outputs per input.
};

/// Abstract XNOR+Popcount crossbar executor: one programmed weight matrix,
/// executed against batches of inputs (or one), with injectable device
/// noise and a splittable RngStream for every stochastic draw.
///
/// Implementations: TacitMapElectrical, TacitMapOptical, CustBinaryMap.
class MappedExecutor {
 public:
  /// Executors are owned polymorphically (factory + serving layer).
  virtual ~MappedExecutor() = default;

  /// XNOR+Popcounts of one input vector against all n weight vectors:
  /// out[j] = popcount(x XNOR w_j). Exact for ideal devices / zero noise.
  /// The one-input execute_batch: it takes one split() off `rng`, and its
  /// crossbar shards spread across `pool` (nullptr = serial; results are
  /// bit-identical for any pool width).
  [[nodiscard]] std::vector<std::size_t> execute(
      const BitVec& x, const dev::NoiseModel& noise, RngStream& rng,
      ThreadPool* pool = nullptr) const;

  /// The one run every executor implements. out[i][j] =
  /// popcount(inputs[i] XNOR w_j), bit-identical to a serial loop of
  /// execute(inputs[i], ...) calls for any pool width (per-input streams
  /// are split off `rng` up front, in input order). The pool works at
  /// every level the mapping exposes: batch fan-out, WDM passes and
  /// nested crossbar shards share one re-entrant pool.
  [[nodiscard]] virtual std::vector<std::vector<std::size_t>> execute_batch(
      std::span<const BitVec> inputs, const dev::NoiseModel& noise,
      RngStream& rng, ThreadPool* pool = nullptr) const = 0;

  /// Task shape this executor was programmed with (inputs must be
  /// dims().m bits; every result row has dims().n popcounts).
  [[nodiscard]] virtual ExecutorDims dims() const = 0;

  /// Short human-readable identity: mapping name, crossbar geometry and
  /// tiling, e.g. "tacitmap-optical 128x64 wdm=8 (3 seg x 2 tiles)".
  /// Serving logs and bench reports print this.
  [[nodiscard]] virtual std::string descriptor() const = 0;

  /// Imposes serving-time device drift: every crossbar's cell values decay
  /// by `model`'s per-cell factor at `t_s` seconds after programming,
  /// derived deterministically from `base` (per-crossbar forks off
  /// StreamTag::Drift). Calibration references stay pristine, so drifted
  /// executors return degraded popcounts -- exactly what the serving
  /// layer's canary monitor detects. Thread-safe against concurrent
  /// execute_batch() calls (the factor tables swap atomically); `const`
  /// because drift is imposed on executors the serving layer shares as
  /// `shared_ptr<const MappedExecutor>`. Default: no-op (an executor
  /// without device state simply never degrades).
  virtual void set_drift(const dev::DriftModel& model, double t_s,
                         const RngStream& base) const;

  /// Rewrites the array: restores pristine programmed cell values (the
  /// functional effect of re-programming every device at t = 0). Default:
  /// no-op.
  virtual void clear_drift() const;
};

/// Geometry knobs for make_mapped_executor (kept to plain integers so CLI
/// front-ends like bench/serve_load can populate them from key=value
/// flags without pulling in every backend's config struct).
struct MappedExecutorOptions {
  std::size_t xbar_rows = 512;     ///< Crossbar rows (Cust: word lines).
  std::size_t xbar_cols = 512;     ///< Crossbar cols (Cust: devices = 2 x pairs).
  std::size_t wdm_capacity = 16;   ///< Optical backend only: wavelengths/pass.
  std::uint64_t seed = 0;          ///< Device-variability seed; 0 = backend default.
};

/// Builds the named backend ("electrical", "optical" or "cust") programmed
/// with `weights`, using each backend's default device parameters and the
/// geometry in `opt`. Throws eb::Error on an unknown backend name.
[[nodiscard]] std::unique_ptr<MappedExecutor> make_mapped_executor(
    const std::string& backend, const BitMatrix& weights,
    const MappedExecutorOptions& opt = {});

/// Backend names make_mapped_executor accepts, for CLI help strings.
[[nodiscard]] const std::vector<std::string>& mapped_backend_names();

}  // namespace eb::map
