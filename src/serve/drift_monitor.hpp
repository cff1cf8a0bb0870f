/// \file
/// \brief Canary-driven online recalibration of drifting mapped models.
///
/// A PCM crossbar's conductances decay after programming (device-layer
/// dev::DriftModel), so a mapped model that served bit-exact popcounts at
/// deploy time silently degrades as it ages. The DriftMonitor closes the
/// loop at serving time:
///
///     every interval_us (on the injected eb::Clock):
///       1. age the model's crossbars -- exec->set_drift(model, t_s, fork)
///          where t_s = clock time since the last (re)programming
///       2. submit the canary inputs through *normal gateway admission*
///          (same queues, same deadline classes as tenant traffic)
///       3. score the answers against the packed gold popcounts
///          (map::XnorPopcountTask::reference ground truth, element-exact
///          match)
///       4. below the accuracy floor: *rewrite* -- restore pristine
///          conductances (re-program every device), restart the drift
///          epoch at t = 0 and advance the fork generation
///
/// The rewrite is an in-place swap beneath the registry entry: the model
/// stays registered, its server keeps draining, and in-flight requests see
/// either the old or the new factor table per crossbar -- never a torn
/// mix, never a dropped future. Canary rounds and rewrites are reported
/// to the gateway (GatewaySnapshot::canaries_sent / canary_failures /
/// rewrites / rewrite_us_last) and travel the wire stats frame, so a
/// balancer sees replica health decay and recover.
///
/// Time discipline: drift ages and canary cadence follow the injected
/// clock (a VirtualClock compresses hours of aging into milliseconds of
/// test time); only rewrite_us_last is measured on the real clock, since
/// a rewrite consumes real work, not simulated time. When driving the
/// monitor from a VirtualClock, keep advancing virtual time until an
/// epoch completes -- canary batches need the model server's batching
/// window to expire, which is also virtual-clock driven.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bnn/tensor.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "device/drift.hpp"
#include "mapping/executor.hpp"
#include "serve/gateway.hpp"
#include "serve/router.hpp"

namespace eb::serve {

/// One canary probe: a fixed input plus its packed gold reference
/// (popcount(input bits XNOR weight row) per output, e.g. from
/// map::XnorPopcountTask::reference()).
struct Canary {
  bnn::Tensor input;              ///< Request tensor (executor dims().m wide).
  std::vector<std::size_t> gold;  ///< Expected popcount per output element.
};

/// Tuning knobs of the canary/recalibration loop.
struct DriftMonitorConfig {
  /// Registered gateway model id the canaries target.
  std::string model;
  /// The model's executor (the same shared_ptr the registration holds);
  /// the monitor ages and rewrites its crossbars in place.
  std::shared_ptr<const map::MappedExecutor> exec;
  /// Device drift law imposed each epoch.
  dev::DriftParams drift = dev::DriftParams::realistic();
  /// Canary probes; at least one is required.
  std::vector<Canary> canaries;
  /// Canary cadence on the injected clock, microseconds.
  std::uint64_t interval_us = 100000;
  /// Mean element-exact-match fraction below which a rewrite triggers.
  double min_accuracy = 0.99;
  /// Deadline for canary submissions (0 = class default / none).
  std::uint64_t canary_deadline_us = 0;
  /// Admission class canaries ride in (best-effort: probes must not
  /// displace interactive tenant traffic under saturation).
  DeadlineClass canary_class = DeadlineClass::kBestEffort;
  /// Base seed of the drift-table stream family; generation g forks
  /// base.fork(g, 0, 0) so every rewrite re-programs onto fresh
  /// deterministic device exponents.
  std::uint64_t seed = 0xD41F7ULL;
  /// Time source for drift ages and canary cadence. nullptr =
  /// eb::Clock::real(); tests inject the same VirtualClock the gateway
  /// runs on. Must outlive the monitor.
  Clock* clock = nullptr;
};

/// The serving-time drift watchdog: one background thread per monitored
/// model, probing through the gateway's front door and rewriting the
/// crossbars when the canaries say the array has aged out of spec.
class DriftMonitor {
 public:
  /// Starts monitoring immediately; first epoch fires interval_us after
  /// construction. The gateway, executor, and clock must outlive the
  /// monitor; stop the monitor before shutting the gateway down.
  DriftMonitor(Gateway& gateway, DriftMonitorConfig cfg);
  /// stop() if still running.
  ~DriftMonitor();

  DriftMonitor(const DriftMonitor&) = delete;             ///< Owns a thread.
  DriftMonitor& operator=(const DriftMonitor&) = delete;  ///< Owns a thread.

  /// Joins the monitor thread after its current epoch (if any) finishes.
  /// Idempotent.
  void stop();

  /// Completed canary epochs (drift aged + canaries scored).
  [[nodiscard]] std::size_t epochs() const;
  /// Rewrites this monitor performed.
  [[nodiscard]] std::size_t rewrites() const;
  /// Mean element-exact-match fraction of the most recent epoch's
  /// canaries (1.0 before the first epoch completes).
  [[nodiscard]] double last_accuracy() const;
  /// Current programming generation (bumps on every rewrite).
  [[nodiscard]] std::uint64_t generation() const;

 private:
  [[nodiscard]] Clock& clk() const {
    return cfg_.clock != nullptr ? *cfg_.clock : Clock::real();
  }
  void loop();
  // One epoch: age the crossbars, probe, score, maybe rewrite.
  void tick();
  // Mean element-exact-match fraction across all canaries (a non-ok
  // canary result scores 0: a probe the model cannot answer in time is
  // indistinguishable from a wrong answer to the recalibration policy).
  [[nodiscard]] double run_canaries();
  void rewrite();

  Gateway& gateway_;
  DriftMonitorConfig cfg_;
  RngStream base_;
  dev::DriftModel model_;

  Clock::time_point programmed_at_;  // start of the current drift epoch

  std::atomic<std::size_t> epochs_{0};
  std::atomic<std::size_t> rewrites_{0};
  std::atomic<double> last_accuracy_{1.0};
  std::atomic<std::uint64_t> generation_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace eb::serve
