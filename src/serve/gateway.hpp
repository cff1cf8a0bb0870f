/// \file
/// \brief Multi-model serving gateway: a named-model registry with
/// deadline-class admission in front of per-model serve::Servers.
///
/// serve::Server fronts exactly one model. A photonic accelerator
/// deployment is inherently multi-tenant -- crossbar/wavelength resources
/// are shared across workloads -- so the Gateway schedules many *named*
/// models over one machine:
///
///     submit("mlp-a", x, kInteractive) ─┐                  model servers:
///     submit("mlp-b", x, kBatch) ───────┼─> admission ─┐   one lane per class
///     TcpFrontend (wire frames) ────────┘   (shape,    │  ┌──────────────┐
///                                           class cap, ├─>│ mlp-a  i b e │─┐
///                                           deadline)  │  ├──────────────┤ ├─> ONE
///                                                      └─>│ mlp-b  i b e │─┘  shared
///                                                         └──────────────┘  ThreadPool
///                                                a free worker pops its batch
///                                                from its lanes by weighted DRR
///
///  * **Registry** -- register_model(id, ...) accepts a bnn::Network, any
///    serve::BatchHandler, or a map::MappedExecutor (adapted via
///    serve::make_mapped_handler), each with its own batching config.
///    Every model gets its own serve::Server whose workers all share the
///    gateway's single re-entrant ThreadPool, so N models never
///    oversubscribe the machine. unregister_model() removes the model and
///    drains its server: every admitted request is served.
///  * **Admission** -- submit() runs the shape gate and checks the
///    request's DeadlineClass (interactive | batch | besteffort) against
///    the class's capacity partition, which bounds the class's requests
///    admitted and not yet completed across all models. It then hands the
///    request straight to its model's server, into the lane of its class,
///    the only queue the request waits in. A request without an explicit
///    deadline inherits its class default; the server stamps the request
///    on arrival, so deadlines and Result::queue_us run from admission.
///  * **Weighted scheduling** -- every model server's lanes carry the
///    class weights, and a free worker pops its batch from them by
///    deficit round-robin: under saturation a model's served-throughput
///    ratio between two classes matches their weight ratio. Each request
///    is deadline-gated once, when its batch forms.
///  * **Metrics** -- per-class gateway Metrics (admission-to-completion
///    latency), per-model server snapshots, and an aggregated
///    GatewaySnapshot for dashboards and the gateway_load CI gate.
///
/// The wire protocol in serve/wire.hpp and the socket frontend in
/// serve/tcp_frontend.hpp let a separate client process drive submit()
/// remotely. docs/SERVING.md#gateway walks through the whole subsystem.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bnn/network.hpp"
#include "bnn/tensor.hpp"
#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "mapping/executor.hpp"
#include "serve/mapped_backend.hpp"
#include "serve/metrics.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace eb::serve {

/// How one registered model is hosted.
struct ModelConfig {
  /// Batching knobs of the model's own serve::Server. The gateway
  /// ignores pool_threads (all models share the gateway pool) and
  /// queue_capacity (the class partitions bound admission), and sets
  /// class_weights from GatewayConfig::classes.
  ServerConfig server;
  /// Expected request tensor element count; a mismatching submission is
  /// rejected at admission with kInvalidArgument instead of reaching a
  /// batch (where one malformed co-tenant request would fail every
  /// request batched with it). 0 = unchecked. Auto-derived when left 0:
  /// mapped-executor registrations use dims().m, Network registrations
  /// use the first layer's in_features when it is a dense layer.
  std::size_t input_size = 0;
};

/// Gateway-wide knobs.
struct GatewayConfig {
  /// Shared pool concurrency for every model's intra-batch fan-out
  /// (0 = EB_THREADS / hardware concurrency, 1 = inline).
  std::size_t pool_threads = 0;
  /// Per-class scheduling weight, default deadline and admission-capacity
  /// partition (indexed by DeadlineClass).
  std::array<ClassConfig, kNumClasses> classes = default_class_configs();
  /// Time source for admission stamps, deadlines and batching windows:
  /// every registered model's server ticks on it (unless its
  /// ServerConfig sets its own). nullptr = eb::Clock::real(). Must
  /// outlive the gateway.
  Clock* clock = nullptr;
  /// Directory load_model() (and therefore the wire's type-7 load op)
  /// resolves .ebm file names against. Empty disables model loading:
  /// load_model throws and remote loads are rejected.
  std::string model_dir;
};

/// One registered model's slice of a GatewaySnapshot.
struct ModelSnapshot {
  std::string id;                 ///< Registry name.
  /// ModelConfig::input_size after auto-derivation (0 = unchecked).
  /// Exported over the wire stats frame so a balancer can run the
  /// admission-time shape gate before picking a replica.
  std::size_t input_size = 0;
  MetricsSnapshot server;         ///< The model server's own metrics.
};

/// Consistent cut of everything the gateway recorded: per-class admission
/// metrics (latencies are end-to-end from gateway admission), per-model
/// server snapshots, and class-summed aggregates.
struct GatewaySnapshot {
  /// Indexed by DeadlineClass; queue_depth is the class's requests
  /// admitted and not yet completed, across all models (the count its
  /// ClassConfig::queue_capacity bounds).
  std::array<MetricsSnapshot, kNumClasses> classes;
  /// Per-class kInternalError completions (handler exceptions).
  std::array<std::size_t, kNumClasses> errors{};
  /// Per-class kInvalidArgument completions (shape mismatches, bad
  /// requests) -- client mistakes, counted apart from `errors` so a
  /// frontend fuzzing run does not trip an internal-error alarm.
  std::array<std::size_t, kNumClasses> invalid{};
  std::vector<ModelSnapshot> models;  ///< Sorted by model id.

  std::size_t submitted = 0;          ///< Sum over classes.
  std::size_t completed = 0;          ///< Sum over classes.
  std::size_t deadline_exceeded = 0;  ///< Sum over classes.
  std::size_t rejected = 0;           ///< Sum over classes.

  /// Canary probes a serve::DriftMonitor submitted through admission.
  std::size_t canaries_sent = 0;
  /// Canary rounds that scored below the monitor's accuracy floor.
  std::size_t canary_failures = 0;
  /// Online crossbar rewrites (recalibrations) triggered by failures.
  std::size_t rewrites = 0;
  /// Wall-clock duration of the most recent rewrite, microseconds.
  std::uint64_t rewrite_us_last = 0;

  /// One-line human-readable digest.
  [[nodiscard]] std::string summary() const;
};

/// The multi-model registry + deadline-class admission.
class Gateway {
 public:
  explicit Gateway(GatewayConfig cfg = {});
  /// Graceful: shutdown() if still running.
  ~Gateway();

  Gateway(const Gateway&) = delete;             ///< Owns threads.
  Gateway& operator=(const Gateway&) = delete;  ///< Owns threads.

  /// Registers `net` under `id` (bit-exact BatchRunner serving). The
  /// network must outlive the registration. Throws on a duplicate id or
  /// after shutdown.
  void register_model(const std::string& id, const bnn::Network& net,
                      ModelConfig mcfg = {});
  /// Registers an arbitrary batch handler under `id`.
  void register_model(const std::string& id, BatchHandler handler,
                      ModelConfig mcfg = {});
  /// Registers a mapped crossbar executor under `id` (adapted via
  /// serve::make_mapped_handler; any factory-built backend works).
  void register_model(const std::string& id,
                      std::shared_ptr<const map::MappedExecutor> exec,
                      std::shared_ptr<const dev::NoiseModel> noise,
                      ModelConfig mcfg = {});
  /// Loads the EBM file `file` -- a plain file name (no path separators,
  /// no "..") resolved against cfg.model_dir -- and registers the decoded
  /// network under `id`, with the gateway owning the network for the
  /// registration's lifetime. This is the wire type-7 load op's backend.
  /// Serving starts warmed: registration constructs the model's
  /// BatchRunners, which prime the XNOR-GEMM autotuner for the model's
  /// shapes. Throws eb::Error when model_dir is unset, the name is not a
  /// plain file name, the file is missing/corrupt, or `id` is taken.
  void load_model(const std::string& id, const std::string& file,
                  ModelConfig mcfg = {});
  /// Removes `id` from the registry, then drains its server: every
  /// admitted request is served. A submission racing the removal
  /// completes with kRejected. Returns false when no such model exists.
  bool unregister_model(const std::string& id);
  /// Registered model ids, sorted.
  [[nodiscard]] std::vector<std::string> model_ids() const;
  [[nodiscard]] bool has_model(const std::string& id) const;

  /// Admits one request for `model` under `cls`. deadline_us == 0 applies
  /// the class default (end-to-end from admission; 0 there = none). The
  /// future is always fulfilled: kOk, kDeadlineExceeded, kRejected
  /// (unknown/unregistered model, class partition full, after shutdown),
  /// kInvalidArgument (request shape does not match the model's declared
  /// input_size) or kInternalError.
  std::future<Result> submit(const std::string& model, bnn::Tensor input,
                             DeadlineClass cls = DeadlineClass::kInteractive,
                             std::uint64_t deadline_us = 0);
  /// Callback flavor (the wire frontend's path): `done` runs exactly once
  /// with the terminal Result -- inline on the calling thread when the
  /// request is rejected at admission (or by a server that a racing
  /// unregister_model()/shutdown() is draining), otherwise on a worker of
  /// the model's server.
  void submit_async(const std::string& model, bnn::Tensor input,
                    DeadlineClass cls, std::uint64_t deadline_us,
                    Completion done);

  /// Stops admissions, then drains every model server (all admitted
  /// requests fulfilled). Idempotent; called by the destructor.
  void shutdown();

  /// Consistent cut of per-class, per-model and aggregate metrics.
  [[nodiscard]] GatewaySnapshot metrics() const;
  /// Drift-monitor hooks: a serve::DriftMonitor reports every canary
  /// round (`ok` = scored at or above its accuracy floor) ...
  void record_canary(bool ok);
  /// ... and every online rewrite it performed, with the rewrite's
  /// wall-clock duration. Both surface in GatewaySnapshot and the wire
  /// stats frame.
  void record_rewrite(std::uint64_t duration_us);
  /// The one pool every model server fans batches into.
  [[nodiscard]] ThreadPool& pool() { return pool_; }
  /// Configuration the gateway was built with.
  [[nodiscard]] const GatewayConfig& config() const { return cfg_; }

 private:
  struct ModelEntry;  // registry slot; defined in gateway.cpp

  void install_entry(
      const std::string& id, const ModelConfig& mcfg,
      const std::function<std::unique_ptr<Server>(const ServerConfig&)>&
          make_server,
      std::shared_ptr<const bnn::Network> owned = nullptr);
  void finish(DeadlineClass cls, Completion& done, Result res);

  GatewayConfig cfg_;
  ThreadPool pool_;

  mutable std::mutex mu_;  // registry + draining_ + raising class_depth_
  std::map<std::string, std::shared_ptr<ModelEntry>> models_;
  bool draining_ = false;
  // Per class: requests admitted and not yet completed. Raised under mu_
  // (so the partition check is exact), lowered lock-free on completion.
  std::array<std::atomic<std::size_t>, kNumClasses> class_depth_{};

  std::array<Metrics, kNumClasses> class_metrics_;
  std::array<std::atomic<std::size_t>, kNumClasses> class_errors_{};
  std::array<std::atomic<std::size_t>, kNumClasses> class_invalid_{};

  std::atomic<std::size_t> canaries_sent_{0};
  std::atomic<std::size_t> canary_failures_{0};
  std::atomic<std::size_t> rewrites_{0};
  std::atomic<std::uint64_t> rewrite_us_last_{0};
};

}  // namespace eb::serve
