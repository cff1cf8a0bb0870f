/// \file
/// \brief Shared-nothing scale-out tier: a Balancer fronts N gateway
/// replica processes over the framed wire protocol and routes each
/// request to the least loaded of two sampled replicas.
///
/// Topology (every box its own process, every edge the wire protocol):
///
///     clients ──┐                      ┌─> replica 0 (Gateway+TcpFrontend)
///     clients ──┼─> Balancer ──────────┼─> replica 1 (Gateway+TcpFrontend)
///     clients ──┘   (WireService       └─> replica 2 (Gateway+TcpFrontend)
///                    behind its own
///                    TcpFrontend)
///
/// Routing: power-of-two-choices -- sample two live replicas, score each
/// by `in-flight requests + queue depth` (the replica's requests admitted
/// and not yet completed, riding the periodic type-6 stats responses each
/// ReplicaClient polls), send to the lower score. With one live replica
/// the choice is forced; with none the request fails kRejected
/// immediately ("failed loudly" -- the balancer never buffers requests
/// for a future replica).
///
/// Health + retries: a replica is dead while its ReplicaClient is
/// disconnected (ping timeout or connection loss -- see
/// serve/replica_client.hpp). A request in flight on a dying replica is
/// retried on another live replica, preferring ones it has not tried,
/// up to `max_attempts` total sends. The admission-time shape gate runs
/// *in the balancer* against the per-model input_size learned from
/// stats frames, so a malformed request fails exactly once with
/// kInvalidArgument instead of burning a retry per replica.
///
/// The Balancer implements WireService, so `TcpFrontend front(balancer)`
/// exposes the whole tier over the same wire protocol the replicas
/// speak -- including ping and aggregated stats.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "serve/replica_client.hpp"
#include "serve/tcp_frontend.hpp"

namespace eb::serve {

/// Balancer knobs.
struct BalancerConfig {
  /// The replica fleet (one pipelined connection each).
  std::vector<ReplicaAddress> replicas;
  /// Per-replica connection knobs (`address` is overwritten per replica).
  ReplicaClientConfig client;
  /// Total sends per request, first try included. 0 = one per replica.
  std::size_t max_attempts = 0;
  /// Seed of the power-of-two-choices sampler (deterministic routing
  /// for a fixed seed + arrival order).
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// How long handle_model_admin waits for the fleet's type-7 acks
  /// before reporting the stragglers as failures.
  std::uint32_t admin_timeout_ms = 5000;
};

/// One replica's slice of a BalancerSnapshot.
struct ReplicaSnapshot {
  ReplicaAddress address;       ///< Where the replica listens.
  bool alive = false;           ///< Connection currently healthy.
  std::size_t in_flight = 0;    ///< Requests awaiting this replica.
  std::uint64_t queue_depth = 0;  ///< Last reported admission backlog.
  std::size_t requests = 0;     ///< Frames sent over the lifetime.
  std::size_t deaths = 0;       ///< Connection teardowns.
};

/// Aggregated balancer counters + per-replica state.
struct BalancerSnapshot {
  std::size_t submitted = 0;    ///< Requests accepted by submit().
  std::size_t completed = 0;    ///< Requests finished with a Result.
  std::size_t rejected = 0;     ///< kRejected terminals (no live replica
                                ///< or attempts exhausted).
  std::size_t shape_gated = 0;  ///< kInvalidArgument at the balancer's
                                ///< own admission gate (never retried).
  std::size_t retries = 0;      ///< Re-sends after a replica death.
  std::vector<ReplicaSnapshot> replicas;  ///< Fleet state, config order.
};

/// The scale-out tier. Thread-safe; completions run on ReplicaClient
/// I/O threads (or inline for admission-time failures).
class Balancer : public WireService {
 public:
  /// Dials every replica and starts routing. Replicas may come up
  /// later; until one is connected, requests fail kRejected.
  explicit Balancer(BalancerConfig cfg);
  /// shutdown() if still running.
  ~Balancer() override;

  Balancer(const Balancer&) = delete;             ///< Owns clients.
  Balancer& operator=(const Balancer&) = delete;  ///< Owns clients.

  /// Future flavor of submit_async.
  std::future<Result> submit(const std::string& model, bnn::Tensor input,
                             DeadlineClass cls = DeadlineClass::kInteractive,
                             std::uint64_t deadline_us = 0);

  /// Routes one request (see class comment for the policy). `done` runs
  /// exactly once -- inline when gated/rejected at admission, on a
  /// ReplicaClient I/O thread otherwise. WireService implementation, so
  /// a TcpFrontend can front the balancer itself.
  void submit_async(const std::string& model, bnn::Tensor input,
                    DeadlineClass cls, std::uint64_t deadline_us,
                    Completion done) override;

  /// Aggregates the balancer's own counters plus every replica's last
  /// stats digest (summed counters; the model list is the union with
  /// per-model completed/queue_depth summed across replicas).
  void fill_stats(wire::StatsFrame& out) override;

  /// Fleet-wide model administration: fans the type-7 op out to every
  /// live replica, blocks (up to cfg.admin_timeout_ms) for their acks
  /// and aggregates -- kOk only when every reached replica succeeded,
  /// with the union of the replicas' post-op model lists. A fleet with
  /// no live replica fails kRejected; a replica death or timeout during
  /// the op reports kInternalError. Runs on the caller's thread (a
  /// frontend loop thread when the balancer is wire-fronted), never on
  /// a ReplicaClient I/O thread.
  wire::ModelAdminFrame handle_model_admin(
      const wire::ModelAdminFrame& req) override;

  /// Replicas with a currently-healthy connection.
  [[nodiscard]] std::size_t alive_replicas() const;
  /// The input_size learned for `model` from replica stats (0 until a
  /// stats response named the model, or when the model is unchecked).
  [[nodiscard]] std::size_t known_input_size(const std::string& model) const;
  /// Blocks until `min_alive` replicas are connected and at least one
  /// stats response arrived from each connected one, or `timeout_ms`
  /// elapsed. Returns whether the condition was met. Testing/bench
  /// convenience (spawned replicas come up asynchronously).
  bool wait_ready(std::size_t min_alive, std::uint32_t timeout_ms);
  /// Balancer + per-replica counters.
  [[nodiscard]] BalancerSnapshot metrics() const;

  /// Stops routing: new submissions fail kRejected, every connection is
  /// torn down (in-flight requests fail kRejected through the retry
  /// path finding no live replica). Idempotent.
  void shutdown();

 private:
  /// One routed request's retry state, shared between the response and
  /// death handlers of its current attempt.
  struct Flight;

  void dispatch(const std::shared_ptr<Flight>& flight);
  int pick_replica(const std::vector<bool>& tried);
  void finish(const std::shared_ptr<Flight>& flight, Result res);

  BalancerConfig cfg_;
  std::vector<std::unique_ptr<ReplicaClient>> clients_;

  mutable std::mutex mu_;  // rng + draining flag
  RngStream rng_;
  bool draining_ = false;

  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> shape_gated_{0};
  std::atomic<std::size_t> retries_{0};

  std::mutex join_mu_;  // serializes shutdown()
  bool joined_ = false;
};

}  // namespace eb::serve
