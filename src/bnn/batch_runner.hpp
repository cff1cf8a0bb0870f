// Batched bit-parallel inference engine.
//
// The reference path (Network::forward) pushes one Tensor at a time
// through every layer -- the right tool for tracing and mapping
// validation, but a per-sample schedule. BatchRunner drives a whole batch
// per layer step instead: binary layers pack the batch's activations into
// a BitMatrix and run one fused XNOR+Popcount GEMM against the layer's
// weight rows; every other layer kind fans the batch out across a
// thread pool. Outputs are bit-identical to the per-sample path (the
// binary kernels are exact integer popcounts and the float layers run the
// very same per-sample code).
//
// This is the engine the accuracy sweeps, the throughput benches, and the
// serving layer (serve::Server) use. Two pool modes:
//
//  * standalone -- the runner owns a private pool sized by cfg.threads
//    (the original single-caller mode);
//  * shared -- construct with an external ThreadPool&; the serving layer
//    gives every worker runner the same re-entrant pool so one request's
//    crossbar shards can overlap another batch's fan-out instead of
//    oversubscribing the machine with per-runner pools.
//
// The run methods are const and touch no shared mutable state beyond the
// stats slot, which is lock-guarded: concurrent forward_all calls on the
// same instance are data-race-free (each call's stats land in the slot in
// completion order; last_stats() returns a consistent copy). Serving
// workers still hold one runner each so per-worker stats stay meaningful.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "bnn/dataset.hpp"
#include "bnn/network.hpp"
#include "bnn/tensor.hpp"
#include "common/thread_pool.hpp"

namespace eb::bnn {

struct BatchRunnerConfig {
  // Samples per GEMM batch. 64 keeps a 1024-wide layer's activation slab
  // inside L2 while amortizing the weight stream across the batch.
  std::size_t batch_size = 64;
  // Total concurrency of the owned pool (1 = inline/deterministic
  // single-thread, 0 = hardware concurrency). Ignored when an external
  // pool is supplied.
  std::size_t threads = 1;
};

struct BatchStats {
  std::size_t samples = 0;
  std::size_t batches = 0;
  double wall_ns = 0.0;

  [[nodiscard]] double samples_per_s() const {
    return wall_ns > 0.0 ? samples / (wall_ns * 1e-9) : 0.0;
  }
};

class BatchRunner {
 public:
  explicit BatchRunner(const Network& net, BatchRunnerConfig cfg = {});

  // Shares `pool` instead of owning one: nested parallel_for is
  // re-entrant, so many runners (e.g. serve::Server workers) can fan
  // batches into one pool concurrently.
  BatchRunner(const Network& net, ThreadPool& pool,
              BatchRunnerConfig cfg = {});

  // Forward every input; out[i] is bit-identical to net.forward(inputs[i]).
  [[nodiscard]] std::vector<Tensor> forward_all(
      const std::vector<Tensor>& inputs) const;

  // argmax readout per input.
  [[nodiscard]] std::vector<std::size_t> predict_all(
      const std::vector<Tensor>& inputs) const;

  // Classification accuracy over labeled samples.
  [[nodiscard]] double accuracy(const std::vector<Sample>& samples) const;

  [[nodiscard]] const BatchRunnerConfig& config() const { return cfg_; }
  // The pool batches fan out over (owned or shared).
  [[nodiscard]] ThreadPool& pool() const { return *pool_; }
  // Wall-clock and batch counters of the most recent completed run,
  // copied out under the stats lock (race-free under concurrent runs).
  [[nodiscard]] BatchStats last_stats() const;

 private:
  const Network* net_;
  BatchRunnerConfig cfg_;
  std::unique_ptr<ThreadPool> owned_pool_;  // null in shared-pool mode
  ThreadPool* pool_;
  mutable std::mutex stats_mu_;
  mutable BatchStats stats_;
};

}  // namespace eb::bnn
