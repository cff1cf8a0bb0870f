/// \file
/// \brief Event-driven socket frontend for serve::Gateway (or any
/// WireService): epoll loops over nonblocking sockets, speaking the
/// framed wire protocol in serve/wire.hpp with full request pipelining,
/// ping health checks and stats export.
///
/// Architecture: `cfg.event_loops` threads each run an epoll(7) loop.
/// Loop 0 owns the listening socket and accepts until EAGAIN; accepted
/// connections are set nonblocking and assigned round-robin across the
/// loops. Reads happen on the owning loop thread into a per-connection
/// reassembly buffer with a read cursor (compacted periodically, not
/// per-recv), whole frames are peeled off and decoded with the
/// bounds-checked wire::decode_request, and good requests go to
/// WireService::submit_async (a Gateway, via the adapter, or a
/// Balancer). The completion callback -- running on a
/// model-server worker thread, possibly out of request order -- encodes
/// the response as one whole type-2 frame, appends it to the
/// connection's outbound queue and wakes the owning loop via an eventfd.
/// The loop concatenates queued frames into a staging buffer, so one
/// nonblocking send(2) carries many pipelined responses, and arms
/// EPOLLOUT only while the socket's buffer is full. Responses therefore
/// carry the request's echoed id and a pipelined client matches them
/// solely by that id (see the pipelining contract in serve/wire.hpp).
/// An output the wire cannot carry (over kMaxFrameBytes) is answered
/// with an id-matched kInternalError and the connection keeps serving.
///
/// Backpressure replaces the old blocking send + SO_SNDTIMEO: a client
/// that stops reading accumulates bytes in its outbound queue until
/// `max_write_queue_bytes` (connection killed, `overflow_kills`) or
/// until no byte leaves the socket for `write_stall_timeout_ms`
/// (connection killed, `stall_kills`). Worker threads never block on a
/// slow client either way.
///
/// Malformed traffic never crashes the frontend: bad content inside a
/// well-formed envelope (wire::DecodeStatus::kMalformed with a known
/// frame boundary) is answered with a kInvalidArgument response --
/// echoing the offending frame's id whenever the envelope decoded
/// through the id field -- and skipped; anything that desyncs the byte
/// stream (bad magic / version / type, oversize length) gets an error
/// response with id 0 and then the connection is flushed and closed,
/// because nothing after it can be trusted.
///
/// Besides type-1 requests a connection may interleave type-5 pings
/// (answered inline on the loop thread with a pong echoing the nonce --
/// the health probe serve::Balancer uses to mark replicas dead), type-6
/// stats requests (answered with the service's stats digest) and type-7
/// model-admin requests (load/unload/list, answered with the service's
/// WireService::handle_model_admin). All are served even while the
/// gateway is saturated, since none enters a model server's queue.
///
/// Scope: loopback/LAN transport for tests and benches (now C10K-capable
/// -- see bench/frontend_load.cpp), still plain TCP, no TLS, no auth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/gateway.hpp"
#include "serve/wire.hpp"

namespace eb::serve {

/// What a TcpFrontend serves: anything that can take an async request
/// and describe itself in a stats frame. Gateway is the canonical
/// implementation (via the adapting TcpFrontend constructor);
/// serve::Balancer implements it too, so a balancer tier is fronted by
/// the exact same socket machinery as a replica.
class WireService {
 public:
  virtual ~WireService() = default;
  /// Submits one request; `done` must run exactly once with the
  /// terminal Result (same contract as Gateway::submit_async).
  virtual void submit_async(const std::string& model, bnn::Tensor input,
                            DeadlineClass cls, std::uint64_t deadline_us,
                            Completion done) = 0;
  /// Fills `out` with the service's current counters + model list. The
  /// caller has already set `out.request_id` and `out.response`.
  virtual void fill_stats(wire::StatsFrame& out) = 0;
  /// Answers one type-7 model-admin request (load/unload/list) inline;
  /// `req.response` is false and the returned frame must echo the
  /// request's id and op with `response = true`. The base implementation
  /// declines every op with kInvalidArgument; Gateway-backed services
  /// and serve::Balancer override it.
  virtual wire::ModelAdminFrame handle_model_admin(
      const wire::ModelAdminFrame& req);
};

/// Adapts a Gateway to the WireService interface: submit_async forwards
/// verbatim, fill_stats digests Gateway::metrics() into a wire frame.
class GatewayWireService final : public WireService {
 public:
  /// The gateway must outlive the adapter.
  explicit GatewayWireService(Gateway& gateway) : gateway_(gateway) {}
  void submit_async(const std::string& model, bnn::Tensor input,
                    DeadlineClass cls, std::uint64_t deadline_us,
                    Completion done) override;
  void fill_stats(wire::StatsFrame& out) override;
  /// load resolves against the gateway's cfg.model_dir (Gateway::
  /// load_model); unload maps to unregister_model; list reports
  /// model_ids(). Every response carries the post-op model list.
  wire::ModelAdminFrame handle_model_admin(
      const wire::ModelAdminFrame& req) override;

 private:
  Gateway& gateway_;
};

/// Listener knobs.
struct TcpFrontendConfig {
  std::string bind_address = "127.0.0.1";  ///< IPv4 dotted quad.
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port().
  int backlog = 128;       ///< listen(2) backlog.
  /// Number of epoll event-loop threads. Loop 0 also accepts; accepted
  /// connections are spread round-robin. 1 is right for loopback tests;
  /// bump for multi-NIC / many-core fan-in.
  std::size_t event_loops = 1;
  /// Kill a connection once its outbound queue (encoded, unsent
  /// response bytes) exceeds this. Bounds memory per slow client.
  std::size_t max_write_queue_bytes = std::size_t{32} << 20;
  /// Kill a connection when it has pending outbound bytes but the
  /// socket has accepted none of them for this long (client stopped
  /// reading and its receive window is full). 0 = never.
  std::uint32_t write_stall_timeout_ms = 2000;
};

/// The socket frontend. Constructing it binds + listens + starts the
/// event loops; the gateway (or service) must outlive it.
class TcpFrontend {
 public:
  /// Binds and starts serving `gateway` (via an internally-owned
  /// GatewayWireService). Throws eb::Error when the socket cannot be
  /// created/bound.
  explicit TcpFrontend(Gateway& gateway, TcpFrontendConfig cfg = {});
  /// Binds and starts serving an arbitrary WireService (how a
  /// serve::Balancer exposes itself over the wire).
  explicit TcpFrontend(WireService& service, TcpFrontendConfig cfg = {});
  /// Graceful: shutdown() if still running.
  ~TcpFrontend();

  TcpFrontend(const TcpFrontend&) = delete;             ///< Owns threads.
  TcpFrontend& operator=(const TcpFrontend&) = delete;  ///< Owns threads.

  /// The bound TCP port (resolves an ephemeral request).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Frontend counters (monotonic; relaxed atomics snapshotted, so one
  /// snapshot may be skewed by in-flight increments but each counter is
  /// exact once traffic quiesces).
  struct Stats {
    std::size_t connections = 0;  ///< Accepted connections (lifetime).
    std::size_t requests = 0;     ///< Well-formed request frames.
    std::size_t responses = 0;    ///< Response frames written or queued.
    std::size_t malformed = 0;    ///< Rejected frames (both kinds).
    std::size_t pings = 0;        ///< Type-5 pings answered with pongs.
    std::size_t stats_requests = 0;  ///< Type-6 stats requests answered.
    std::size_t admin_requests = 0;  ///< Type-7 admin requests answered.
    std::size_t bytes_read = 0;       ///< Raw bytes received.
    std::size_t bytes_written = 0;    ///< Raw bytes sent.
    std::size_t overflow_kills = 0;   ///< Connections killed: queue cap.
    std::size_t stall_kills = 0;      ///< Connections killed: write stall.
    std::size_t dropped_responses = 0;  ///< Completions after close.
  };
  [[nodiscard]] Stats stats() const;

  /// Connections currently registered with the event loops. Closed
  /// connections leave this count on close (not lazily on the next
  /// accept), so an idle listener with churned clients returns to 0.
  [[nodiscard]] std::size_t open_connections() const;

  /// Stops accepting, closes every connection (failing its queued
  /// responses -- counted in `dropped_responses`) and joins the loop
  /// threads. In-flight gateway requests still complete; their late
  /// completions are dropped the same way. Idempotent.
  void shutdown();

 private:
  struct Shared;      // stats + config, outlives the frontend via callbacks
  struct Connection;  // defined in tcp_frontend.cpp
  struct LoopShared;  // per-loop wakeup state shared with callbacks
  class Loop;         // one epoll loop: fd registry + thread body

  /// Shared ctor body: bind + listen + start the event loops.
  void start(TcpFrontendConfig cfg);

  /// Set (and owned) only by the Gateway convenience constructor.
  std::unique_ptr<WireService> owned_service_;
  WireService& service_;
  std::shared_ptr<Shared> shared_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;
  std::mutex join_mu_;
  bool joined_ = false;
};

}  // namespace eb::serve
