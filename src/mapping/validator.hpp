/// \file
/// \brief Mapping validation: mapped execution vs the packed-kernel gold
/// model.
///
/// With ideal devices and zero noise every mapping must reproduce the
/// reference XNOR+Popcounts bit-exactly; with noise injected, the validator
/// reports an error-rate summary instead (used by the robustness ablation).
/// Every mapping validates through one entry point, validate_mapped, which
/// takes the executor itself and runs it through the MappedExecutor batch
/// API -- exactly the path the serving layer runs:
///
///   validate_mapped(TacitMapElectrical(task.weights, cfg), task, noise, rng)
#pragma once

#include <cstddef>
#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "mapping/executor.hpp"
#include "mapping/task.hpp"

namespace eb::map {

/// Aggregate error statistics of one mapped execution vs the reference.
struct ValidationReport {
  std::size_t total_outputs = 0;  ///< Popcounts compared.
  std::size_t mismatches = 0;     ///< Popcounts that differed.
  long long max_abs_error = 0;    ///< Largest |mapped - reference|.
  double mean_abs_error = 0.0;    ///< Mean |mapped - reference|.

  /// True when every output matched bit-exactly.
  [[nodiscard]] bool exact() const { return mismatches == 0; }

  /// Fraction of mismatched outputs (0 when nothing was compared).
  [[nodiscard]] double mismatch_rate() const {
    return total_outputs == 0
               ? 0.0
               : static_cast<double>(mismatches) /
                     static_cast<double>(total_outputs);
  }

  /// One-line human-readable digest.
  [[nodiscard]] std::string summary() const;
};

/// Runs every task input through `mapped` (one execute_batch call -- the
/// schedule serving backends use) and compares with task.reference().
/// `pool` shards the batch fan-out and the nested crossbar steps
/// (nullptr = serial; results are bit-identical either way).
[[nodiscard]] ValidationReport validate_mapped(const MappedExecutor& mapped,
                                               const XnorPopcountTask& task,
                                               const dev::NoiseModel& noise,
                                               RngStream& rng,
                                               ThreadPool* pool = nullptr);

}  // namespace eb::map
