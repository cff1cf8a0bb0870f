#include "serve/tcp_frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "serve/wire.hpp"

namespace eb::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;
/// Per-EPOLLIN read budget: level-triggered epoll re-notifies, so one
/// fire-hose client cannot monopolize its loop.
constexpr std::size_t kMaxReadPerEvent = 1 << 20;
/// Bytes gathered into the staging write buffer per refill.
constexpr std::size_t kFlushChunk = 256 * 1024;
/// Periodic maintenance cadence (stall kills, eof-idle closes).
constexpr auto kScanPeriod = std::chrono::milliseconds(100);

}  // namespace

wire::ModelAdminFrame WireService::handle_model_admin(
    const wire::ModelAdminFrame& req) {
  wire::ModelAdminFrame resp;
  resp.response = true;
  resp.request_id = req.request_id;
  resp.op = req.op;
  resp.model_id = req.model_id;
  resp.status = Status::kInvalidArgument;
  resp.message = "model administration is not supported by this service";
  return resp;
}

void GatewayWireService::submit_async(const std::string& model,
                                      bnn::Tensor input, DeadlineClass cls,
                                      std::uint64_t deadline_us,
                                      Completion done) {
  gateway_.submit_async(model, std::move(input), cls, deadline_us,
                        std::move(done));
}

void GatewayWireService::fill_stats(wire::StatsFrame& out) {
  const GatewaySnapshot s = gateway_.metrics();
  out.submitted = s.submitted;
  out.completed = s.completed;
  out.rejected = s.rejected;
  out.deadline_exceeded = s.deadline_exceeded;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    out.errors += s.errors[c];
    out.invalid += s.invalid[c];
    out.queue_depth += s.classes[c].queue_depth;
  }
  out.canaries_sent = s.canaries_sent;
  out.canary_failures = s.canary_failures;
  out.rewrites = s.rewrites;
  out.rewrite_us_last = s.rewrite_us_last;
  out.models.reserve(s.models.size());
  for (const auto& m : s.models) {
    wire::StatsModel sm;
    sm.id = m.id;
    sm.input_size = m.input_size;
    sm.queue_depth = m.server.queue_depth;
    sm.completed = m.server.completed;
    out.models.push_back(std::move(sm));
  }
}

wire::ModelAdminFrame GatewayWireService::handle_model_admin(
    const wire::ModelAdminFrame& req) {
  wire::ModelAdminFrame resp;
  resp.response = true;
  resp.request_id = req.request_id;
  resp.op = req.op;
  resp.model_id = req.model_id;
  resp.status = Status::kOk;
  // A failed load/unload is the admin client's mistake (bad name, missing
  // or corrupt file, duplicate id): kInvalidArgument with the thrown
  // message, never a torn-down connection.
  try {
    switch (req.op) {
      case wire::ModelAdminOp::kLoad:
        gateway_.load_model(req.model_id, req.file);
        break;
      case wire::ModelAdminOp::kUnload:
        if (!gateway_.unregister_model(req.model_id)) {
          resp.status = Status::kInvalidArgument;
          resp.message = "no model '" + req.model_id + "' is registered";
        }
        break;
      case wire::ModelAdminOp::kList:
        break;
    }
  } catch (const std::exception& e) {
    resp.status = Status::kInvalidArgument;
    resp.message = e.what();
  }
  resp.models = gateway_.model_ids();
  return resp;
}

/// Stats + config shared with completion callbacks, which may outlive
/// the frontend object itself (a drained gateway fulfils them late).
/// All counters are relaxed atomics: the hot path (one increment per
/// frame on every loop and worker thread) must not serialize
/// connections on a mutex.
struct TcpFrontend::Shared {
  TcpFrontendConfig cfg;
  std::atomic<std::size_t> connections{0};
  std::atomic<std::size_t> open_conns{0};
  std::atomic<std::size_t> requests{0};
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> malformed{0};
  std::atomic<std::size_t> pings{0};
  std::atomic<std::size_t> stats_requests{0};
  std::atomic<std::size_t> admin_requests{0};
  std::atomic<std::size_t> bytes_read{0};
  std::atomic<std::size_t> bytes_written{0};
  std::atomic<std::size_t> overflow_kills{0};
  std::atomic<std::size_t> stall_kills{0};
  std::atomic<std::size_t> dropped_responses{0};
};

/// Wakeup channel of one event loop, shared (via shared_ptr) with every
/// connection the loop owns so completion callbacks can reach the loop
/// even after the frontend is torn down. `stopped` flips under `mu` at
/// shutdown, after which notify() is a no-op -- the eventfd itself is
/// closed only by the destructor, i.e. when the last connection dies.
struct TcpFrontend::LoopShared {
  int wake_fd = -1;
  std::mutex mu;
  std::vector<std::weak_ptr<Connection>> arm_queue;
  bool stopped = false;

  ~LoopShared() {
    if (wake_fd >= 0) {
      ::close(wake_fd);
    }
  }

  /// Queues `conn` for the loop's attention and pokes the eventfd. The
  /// write happens under `mu` so it cannot race the fd's close.
  void notify(const std::weak_ptr<Connection>& conn) {
    const std::lock_guard<std::mutex> lock(mu);
    if (stopped) {
      return;
    }
    arm_queue.push_back(conn);
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }
};

/// One accepted socket. Reader-side state (`rbuf`, `rpos`, `reading`,
/// `close_after_flush`, `want_write`) is touched only by the owning
/// loop thread; writer-side state lives under `mu` because completion
/// callbacks append to the outbound queue from worker threads.
struct TcpFrontend::Connection
    : std::enable_shared_from_this<TcpFrontend::Connection> {
  int fd = -1;
  std::shared_ptr<LoopShared> loop;
  std::shared_ptr<Shared> shared;

  // -- owning-loop-thread only ----------------------------------------
  std::vector<std::uint8_t> rbuf;  ///< Reassembly buffer.
  std::size_t rpos = 0;            ///< Read cursor into rbuf.
  bool reading = true;             ///< EPOLLIN armed.
  bool close_after_flush = false;  ///< Fatal frame seen: drain then close.

  // -- lifecycle flags ------------------------------------------------
  std::atomic<bool> read_eof{false};   ///< Peer half-closed its side.
  std::atomic<std::size_t> in_flight{0};  ///< Requests inside the gateway.

  // -- write side, under mu -------------------------------------------
  std::mutex mu;
  bool open = true;
  bool arm_requested = false;  ///< Already queued on the loop's eventfd.
  bool want_write = false;     ///< EPOLLOUT armed (loop thread writes).
  bool kill = false;           ///< Write-queue overflow: close asap.
  std::deque<std::vector<std::uint8_t>> outq;  ///< Whole encoded frames.
  std::vector<std::uint8_t> wbuf;  ///< Staged bytes mid-send.
  std::size_t woff = 0;
  std::size_t out_bytes = 0;  ///< outq bytes + unsent wbuf bytes.
  Clock::time_point last_progress{};  ///< Last byte the socket took.

  /// Appends one encoded frame to the outbound queue and wakes the
  /// owning loop when it is not already pending. Returns false once the
  /// connection is closed (the caller counts a dropped response).
  bool enqueue(std::vector<std::uint8_t> frame) {
    bool need_notify = false;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!open) {
        return false;
      }
      if (out_bytes == 0) {
        last_progress = Clock::now();
      }
      out_bytes += frame.size();
      outq.push_back(std::move(frame));
      if (!kill && out_bytes > shared->cfg.max_write_queue_bytes) {
        kill = true;
        shared->overflow_kills.fetch_add(1, std::memory_order_relaxed);
      }
      // An armed EPOLLOUT already guarantees a flush; otherwise the
      // loop must be poked (and always for a kill, which EPOLLOUT on a
      // jammed socket would never deliver).
      if (!arm_requested && (!want_write || kill)) {
        arm_requested = true;
        need_notify = true;
      }
    }
    if (need_notify) {
      loop->notify(weak_from_this());
    }
    return true;
  }

  /// Asks the owning loop to look at this connection (used by the last
  /// in-flight completion on a half-closed connection, so the close is
  /// prompt instead of waiting for the next maintenance scan).
  void request_attention() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!open || arm_requested) {
        return;
      }
      arm_requested = true;
    }
    loop->notify(weak_from_this());
  }
};

/// One epoll event loop: an fd-keyed connection registry plus the
/// thread body. Loop 0 additionally owns the listening socket and
/// deals accepted connections round-robin across all loops.
class TcpFrontend::Loop {
 public:
  Loop(WireService& service, std::shared_ptr<Shared> shared, int listen_fd)
      : service_(service), shared_(std::move(shared)),
        listen_fd_(listen_fd), ls_(std::make_shared<LoopShared>()) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    EB_REQUIRE(epoll_fd_ >= 0, "epoll_create1() failed");
    ls_->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    EB_REQUIRE(ls_->wake_fd >= 0, "eventfd() failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = ls_->wake_fd;
    EB_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ls_->wake_fd, &ev) == 0,
               "epoll_ctl(wake fd) failed");
    if (listen_fd_ >= 0) {
      ev.data.fd = listen_fd_;
      EB_REQUIRE(
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
          "epoll_ctl(listen fd) failed");
    }
  }

  ~Loop() {
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
  }

  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// Accept targets for round-robin assignment (set on loop 0 only,
  /// before any thread starts; includes loop 0 itself).
  void set_targets(std::vector<Loop*> targets) {
    targets_ = std::move(targets);
  }

  void stop() {
    stopping_.store(true, std::memory_order_release);
    const std::lock_guard<std::mutex> lock(ls_->mu);
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(ls_->wake_fd, &one, sizeof(one));
  }

  /// Closes every registered connection, failing its queued responses.
  /// Called after the loop thread has been joined.
  void close_all() {
    std::unordered_map<int, std::shared_ptr<Connection>> conns;
    {
      const std::lock_guard<std::mutex> lock(reg_mu_);
      conns.swap(conns_);
    }
    for (auto& [fd, conn] : conns) {
      std::size_t dropped = 0;
      {
        const std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->open) {
          continue;
        }
        conn->open = false;
        dropped = conn->outq.size();
        conn->outq.clear();
        conn->wbuf.clear();
        conn->woff = 0;
        conn->out_bytes = 0;
      }
      shared_->dropped_responses.fetch_add(dropped,
                                           std::memory_order_relaxed);
      shared_->open_conns.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
    }
    const std::lock_guard<std::mutex> lock(ls_->mu);
    ls_->stopped = true;
    ls_->arm_queue.clear();
  }

  void run() {
    epoll_event evs[64];
    auto last_scan = Clock::now();
    while (!stopping_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(
          epoll_fd_, evs, 64,
          static_cast<int>(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  kScanPeriod)
                  .count()));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return;  // epoll fd gone: fatal, stop serving this loop
      }
      for (int i = 0; i < n; ++i) {
        if (stopping_.load(std::memory_order_acquire)) {
          return;
        }
        const int fd = evs[i].data.fd;
        if (fd == ls_->wake_fd) {
          drain_wake();
        } else if (listen_fd_ >= 0 && fd == listen_fd_) {
          accept_ready();
        } else {
          handle_conn_event(fd, evs[i].events);
        }
      }
      const auto now = Clock::now();
      if (now - last_scan >= kScanPeriod) {
        last_scan = now;
        scan(now);
      }
    }
  }

  /// Registers an accepted connection with THIS loop (callable from the
  /// accepting loop's thread: epoll_ctl is thread-safe and the registry
  /// mutex publishes the Connection to the owning thread).
  void adopt(const std::shared_ptr<Connection>& conn) {
    conn->loop = ls_;
    conn->last_progress = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(reg_mu_);
      conns_[conn->fd] = conn;
    }
    shared_->open_conns.fetch_add(1, std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      {
        const std::lock_guard<std::mutex> lock(reg_mu_);
        conns_.erase(conn->fd);
      }
      {
        const std::lock_guard<std::mutex> lock(conn->mu);
        conn->open = false;
      }
      shared_->open_conns.fetch_sub(1, std::memory_order_relaxed);
      ::close(conn->fd);
    }
  }

  [[nodiscard]] std::size_t registered() const {
    const std::lock_guard<std::mutex> lock(reg_mu_);
    return conns_.size();
  }

 private:
  std::shared_ptr<Connection> lookup(int fd) {
    const std::lock_guard<std::mutex> lock(reg_mu_);
    const auto it = conns_.find(fd);
    return it == conns_.end() ? nullptr : it->second;
  }

  void accept_ready() {
    for (;;) {
      const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) {
        if (errno == EINTR) {
          continue;
        }
        // EAGAIN: drained. EMFILE/ENFILE and friends: back off until
        // the next level-triggered notification instead of spinning.
        return;
      }
      const int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      shared_->connections.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_shared<Connection>();
      conn->fd = cfd;
      conn->shared = shared_;
      Loop* target = targets_[rr_next_++ % targets_.size()];
      target->adopt(conn);
    }
  }

  void drain_wake() {
    std::uint64_t v = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(ls_->wake_fd, &v, sizeof(v));
    std::vector<std::weak_ptr<Connection>> q;
    {
      const std::lock_guard<std::mutex> lock(ls_->mu);
      q.swap(ls_->arm_queue);
    }
    for (const auto& w : q) {
      const auto conn = w.lock();
      if (!conn) {
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(conn->mu);
        conn->arm_requested = false;
        if (!conn->open) {
          continue;
        }
      }
      try_flush(conn);
    }
  }

  void handle_conn_event(int fd, std::uint32_t events) {
    const auto conn = lookup(fd);
    if (!conn) {
      return;  // closed earlier in this epoll batch
    }
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      close_conn(conn);
      return;
    }
    if ((events & EPOLLOUT) != 0 && !try_flush(conn)) {
      return;
    }
    if ((events & EPOLLIN) != 0) {
      handle_readable(conn);
    }
  }

  void handle_readable(const std::shared_ptr<Connection>& conn) {
    bool fatal = false;
    std::size_t total = 0;
    for (;;) {
      const std::size_t old = conn->rbuf.size();
      conn->rbuf.resize(old + kReadChunk);
      const ssize_t k =
          ::recv(conn->fd, conn->rbuf.data() + old, kReadChunk, 0);
      if (k < 0) {
        conn->rbuf.resize(old);
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        close_conn(conn);
        return;
      }
      if (k == 0) {
        conn->rbuf.resize(old);
        conn->read_eof.store(true, std::memory_order_release);
        stop_reading(conn);
        break;
      }
      conn->rbuf.resize(old + static_cast<std::size_t>(k));
      shared_->bytes_read.fetch_add(static_cast<std::size_t>(k),
                                    std::memory_order_relaxed);
      fatal = parse_frames(conn);
      if (fatal) {
        stop_reading(conn);
        break;
      }
      total += static_cast<std::size_t>(k);
      if (total >= kMaxReadPerEvent) {
        break;  // level-triggered: epoll re-notifies for the rest
      }
    }
    compact(*conn);
    if (fatal || conn->read_eof.load(std::memory_order_acquire)) {
      try_flush(conn);  // closes once drained and eligible
    }
  }

  /// Peels whole frames off conn->rbuf from the read cursor. Returns
  /// true when a fatal (stream-desyncing) frame was hit: the caller
  /// stops reading, the error response flushes, then the socket closes.
  bool parse_frames(const std::shared_ptr<Connection>& conn) {
    auto& buf = conn->rbuf;
    while (conn->rpos < buf.size()) {
      // Demultiplex by peeked type first: ping and stats frames are
      // served inline on the loop thread (they never enter the gateway),
      // everything else -- including garbage peek_type rejects, which
      // decode_request re-classifies with the same status -- takes the
      // request path below.
      std::uint8_t type = 0;
      const wire::DecodeStatus pk = wire::peek_type(
          buf.data() + conn->rpos, buf.size() - conn->rpos, type);
      if (pk == wire::DecodeStatus::kNeedMoreData) {
        return false;
      }
      if (pk == wire::DecodeStatus::kOk &&
          (type == wire::kTypePing || type == wire::kTypeStats ||
           type == wire::kTypeModelAdmin)) {
        if (!handle_control_frame(conn, type)) {
          return false;  // frame still incomplete
        }
        continue;
      }
      wire::RequestFrame req;
      std::size_t consumed = 0;
      const wire::DecodeStatus st = wire::decode_request(
          buf.data() + conn->rpos, buf.size() - conn->rpos, req, consumed);
      if (st == wire::DecodeStatus::kNeedMoreData) {
        return false;
      }
      if (st == wire::DecodeStatus::kOk) {
        shared_->requests.fetch_add(1, std::memory_order_relaxed);
        conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
        submit(conn, std::move(req));
        conn->rpos += consumed;
        continue;
      }
      // Bad frame. Only a content-malformed body inside a well-formed
      // envelope (kMalformed, boundary known) is skippable -- and its
      // error response echoes the frame's id whenever the envelope
      // decoded through the id field (decode_request's contract), so a
      // pipelined client can match the rejection to its request. Bad
      // magic/version/type or a hostile length desync the stream: the
      // id 0 error response is flushed and the connection closed.
      shared_->malformed.fetch_add(1, std::memory_order_relaxed);
      const bool skippable =
          st == wire::DecodeStatus::kMalformed && consumed > 0;
      wire::ResponseFrame err;
      err.request_id = skippable ? req.request_id : 0;
      err.status = Status::kInvalidArgument;
      send_response(conn, err);
      if (!skippable) {
        conn->close_after_flush = true;
        return true;
      }
      conn->rpos += consumed;
    }
    return false;
  }

  /// Decodes + answers one type-5/6/7 frame at conn->rpos (the type
  /// was already peeked). Returns false when the frame is still
  /// incomplete (kNeedMoreData); otherwise advances the read cursor --
  /// a malformed body is answered with an id-0 error response and
  /// skipped, exactly like a content-malformed request, since peek_type
  /// already proved the envelope (and thus the boundary) is sound.
  bool handle_control_frame(const std::shared_ptr<Connection>& conn,
                            std::uint8_t type) {
    auto& buf = conn->rbuf;
    const std::uint8_t* p = buf.data() + conn->rpos;
    const std::size_t avail = buf.size() - conn->rpos;
    std::size_t consumed = 0;
    bool ok = false;
    std::uint64_t echo_id = 0;
    std::vector<std::uint8_t> reply;
    if (type == wire::kTypePing) {
      wire::PingFrame ping;
      const wire::DecodeStatus st = wire::decode_ping(p, avail, ping,
                                                      consumed);
      if (st == wire::DecodeStatus::kNeedMoreData) {
        return false;
      }
      // A pong sent at the server is answered too (harmless echo), so
      // a misdirected health probe still proves liveness.
      if (st == wire::DecodeStatus::kOk) {
        ok = true;
        ping.pong = true;
        reply = wire::encode_ping(ping);
        shared_->pings.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (type == wire::kTypeStats) {
      wire::StatsFrame stats;
      const wire::DecodeStatus st = wire::decode_stats(p, avail, stats,
                                                       consumed);
      if (st == wire::DecodeStatus::kNeedMoreData) {
        return false;
      }
      // A server-bound stats *response* is well-formed but nonsensical
      // here; reject it like a malformed body (id still echoable).
      if (st == wire::DecodeStatus::kOk && !stats.response) {
        ok = true;
        wire::StatsFrame out;
        out.response = true;
        out.request_id = stats.request_id;
        service_.fill_stats(out);
        reply = wire::encode_stats(out);
        shared_->stats_requests.fetch_add(1, std::memory_order_relaxed);
      } else if (st == wire::DecodeStatus::kOk) {
        echo_id = stats.request_id;
      }
    } else {
      wire::ModelAdminFrame admin;
      const wire::DecodeStatus st = wire::decode_model_admin(p, avail, admin,
                                                             consumed);
      if (st == wire::DecodeStatus::kNeedMoreData) {
        return false;
      }
      // Like stats: only requests are served; a server-bound admin
      // *response* is rejected with its id echoed.
      if (st == wire::DecodeStatus::kOk && !admin.response) {
        ok = true;
        reply = wire::encode_model_admin(service_.handle_model_admin(admin));
        shared_->admin_requests.fetch_add(1, std::memory_order_relaxed);
      } else if (st == wire::DecodeStatus::kOk) {
        echo_id = admin.request_id;
      }
    }
    if (ok) {
      if (conn->enqueue(std::move(reply))) {
        shared_->responses.fetch_add(1, std::memory_order_relaxed);
      } else {
        shared_->dropped_responses.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      shared_->malformed.fetch_add(1, std::memory_order_relaxed);
      wire::ResponseFrame err;
      err.request_id = echo_id;
      err.status = Status::kInvalidArgument;
      send_response(conn, err);
    }
    conn->rpos += consumed;
    return true;
  }

  /// Hands one decoded request to the gateway. The completion callback
  /// owns everything it touches (shared_ptrs), so a late completion
  /// after this frontend is torn down is safe -- it counts a dropped
  /// response and vanishes.
  void submit(const std::shared_ptr<Connection>& conn,
              wire::RequestFrame req) {
    const std::uint64_t id = req.request_id;
    auto shared = shared_;
    service_.submit_async(
        req.model_id, std::move(req.tensor), req.cls, req.deadline_us,
        [conn, shared, id](Result r) {
          // Runs on a model-server worker thread: an escaping exception
          // would terminate the process, so an output the wire cannot
          // carry (over the frame cap / rank limit) degrades to a
          // kInternalError response instead.
          wire::ResponseFrame resp;
          resp.request_id = id;
          resp.status = r.status;
          resp.queue_us = r.queue_us;
          resp.total_us = r.total_us;
          if (r.status == Status::kOk) {
            resp.tensor = std::move(r.output);
          }
          bool queued = false;
          try {
            queued = conn->enqueue(wire::encode_response(resp));
          } catch (const std::exception&) {
            resp.status = Status::kInternalError;
            resp.tensor = bnn::Tensor();
            // No payload: the encode cannot throw.
            queued = conn->enqueue(wire::encode_response(resp));
          }
          if (queued) {
            shared->responses.fetch_add(1, std::memory_order_relaxed);
          } else {
            shared->dropped_responses.fetch_add(1,
                                                std::memory_order_relaxed);
          }
          // Decrement strictly after the enqueue: a half-closed
          // connection may be reaped the instant in_flight hits 0 with
          // an empty queue, and the response must be inside by then.
          if (conn->in_flight.fetch_sub(1, std::memory_order_acq_rel) ==
                  1 &&
              conn->read_eof.load(std::memory_order_acquire)) {
            conn->request_attention();
          }
        });
  }

  /// Encodes + queues a frontend-originated response (error frames).
  void send_response(const std::shared_ptr<Connection>& conn,
                     const wire::ResponseFrame& resp) {
    if (conn->enqueue(wire::encode_response(resp))) {
      shared_->responses.fetch_add(1, std::memory_order_relaxed);
    } else {
      shared_->dropped_responses.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Read-cursor compaction: only when the consumed prefix is both
  /// large and at least half the buffer, so a client streaming many
  /// small pipelined frames pays O(1) amortized instead of the old
  /// erase-per-recv O(n^2).
  static void compact(Connection& c) {
    if (c.rpos == c.rbuf.size()) {
      c.rpos = 0;
      c.rbuf.clear();
      if (c.rbuf.capacity() > (std::size_t{4} << 20)) {
        c.rbuf.shrink_to_fit();  // drop a one-off giant frame's slab
      }
      return;
    }
    if (c.rpos >= 4096 && c.rpos >= c.rbuf.size() / 2) {
      c.rbuf.erase(c.rbuf.begin(),
                   c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rpos));
      c.rpos = 0;
    }
  }

  /// Rewrites the epoll interest mask from `reading` x `want_write`.
  /// Both flags are written only by the owning loop thread.
  void rearm(const Connection& c, bool want_write) {
    epoll_event ev{};
    ev.events = (c.reading ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void stop_reading(const std::shared_ptr<Connection>& conn) {
    if (!conn->reading) {
      return;
    }
    conn->reading = false;
    bool ww = false;
    {
      const std::lock_guard<std::mutex> lock(conn->mu);
      ww = conn->want_write;
    }
    rearm(*conn, ww);
  }

  /// Drains the outbound queue into the socket with nonblocking sends.
  /// Arms EPOLLOUT only while the socket refuses bytes. Returns false
  /// when the connection was closed (kill, error, or drained-and-done).
  bool try_flush(const std::shared_ptr<Connection>& conn) {
    bool should_close = false;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      if (!conn->open) {
        return false;
      }
      if (conn->kill) {
        lock.unlock();
        close_conn(conn);
        return false;
      }
      for (;;) {
        if (conn->woff == conn->wbuf.size()) {
          conn->wbuf.clear();
          conn->woff = 0;
          refill_wbuf(*conn);
          if (conn->wbuf.empty()) {
            break;  // fully drained
          }
        }
        const ssize_t k =
            ::send(conn->fd, conn->wbuf.data() + conn->woff,
                   conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
        if (k < 0) {
          if (errno == EINTR) {
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!conn->want_write) {
              conn->want_write = true;
              rearm(*conn, true);
            }
            return true;  // EPOLLOUT will resume the flush
          }
          lock.unlock();
          close_conn(conn);
          return false;
        }
        conn->woff += static_cast<std::size_t>(k);
        conn->out_bytes -= static_cast<std::size_t>(k);
        conn->last_progress = Clock::now();
        shared_->bytes_written.fetch_add(static_cast<std::size_t>(k),
                                         std::memory_order_relaxed);
      }
      if (conn->want_write) {
        conn->want_write = false;
        rearm(*conn, false);
      }
      should_close =
          conn->close_after_flush ||
          (conn->read_eof.load(std::memory_order_acquire) &&
           conn->in_flight.load(std::memory_order_acquire) == 0);
    }
    if (should_close) {
      close_conn(conn);
      return false;
    }
    return true;
  }

  /// Concatenates whole queued frames into the staging buffer (under
  /// conn->mu), so one send(2) carries many pipelined responses. Every
  /// staged byte is still unsent, so `out_bytes` does not change.
  void refill_wbuf(Connection& c) {
    while (!c.outq.empty() && c.wbuf.size() < kFlushChunk) {
      c.wbuf.insert(c.wbuf.end(), c.outq.front().begin(),
                    c.outq.front().end());
      c.outq.pop_front();
    }
  }

  /// Periodic maintenance: write-stall kills and eof-idle closes (the
  /// backstop for completions whose wakeup raced shutdown of interest).
  void scan(Clock::time_point now) {
    std::vector<std::shared_ptr<Connection>> snapshot;
    {
      const std::lock_guard<std::mutex> lock(reg_mu_);
      snapshot.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) {
        snapshot.push_back(conn);
      }
    }
    const auto stall_timeout = std::chrono::milliseconds(
        shared_->cfg.write_stall_timeout_ms);
    for (const auto& conn : snapshot) {
      bool close_now = false;
      bool stalled = false;
      {
        const std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->open) {
          continue;
        }
        const bool pending = conn->out_bytes > 0;
        if (conn->kill) {
          close_now = true;
        } else if (pending && shared_->cfg.write_stall_timeout_ms > 0 &&
                   now - conn->last_progress > stall_timeout) {
          stalled = true;
          close_now = true;
        } else if (!pending &&
                   (conn->close_after_flush ||
                    (conn->read_eof.load(std::memory_order_acquire) &&
                     conn->in_flight.load(std::memory_order_acquire) ==
                         0))) {
          close_now = true;
        }
      }
      if (stalled) {
        shared_->stall_kills.fetch_add(1, std::memory_order_relaxed);
      }
      if (close_now) {
        close_conn(conn);
      }
    }
  }

  /// Tears one connection down: marks it closed (failing queued
  /// responses), unregisters it and closes the fd. Only the owning
  /// loop thread (or close_all after the join) gets here.
  void close_conn(const std::shared_ptr<Connection>& conn) {
    std::size_t dropped = 0;
    {
      const std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->open) {
        return;
      }
      conn->open = false;
      dropped = conn->outq.size();
      conn->outq.clear();
      conn->wbuf.clear();
      conn->woff = 0;
      conn->out_bytes = 0;
    }
    shared_->dropped_responses.fetch_add(dropped,
                                         std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(reg_mu_);
      conns_.erase(conn->fd);
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    shared_->open_conns.fetch_sub(1, std::memory_order_relaxed);
  }

  WireService& service_;
  std::shared_ptr<Shared> shared_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;  ///< -1 on every loop but loop 0.
  std::shared_ptr<LoopShared> ls_;
  std::vector<Loop*> targets_;  ///< Round-robin accept targets (loop 0).
  std::size_t rr_next_ = 0;
  std::atomic<bool> stopping_{false};
  mutable std::mutex reg_mu_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
};

TcpFrontend::TcpFrontend(Gateway& gateway, TcpFrontendConfig cfg)
    : owned_service_(std::make_unique<GatewayWireService>(gateway)),
      service_(*owned_service_), shared_(std::make_shared<Shared>()) {
  start(std::move(cfg));
}

TcpFrontend::TcpFrontend(WireService& service, TcpFrontendConfig cfg)
    : service_(service), shared_(std::make_shared<Shared>()) {
  start(std::move(cfg));
}

void TcpFrontend::start(TcpFrontendConfig cfg) {
  if (cfg.event_loops == 0) {
    cfg.event_loops = 1;
  }
  shared_->cfg = cfg;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  EB_REQUIRE(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg.port);
  EB_REQUIRE(::inet_pton(AF_INET, cfg.bind_address.c_str(),
                         &addr.sin_addr) == 1,
             "bad bind address '" + cfg.bind_address + "'");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, cfg.backlog) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    EB_REQUIRE(false, "bind/listen on " + cfg.bind_address + " failed: " +
                          std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  EB_REQUIRE(::getsockname(listen_fd_,
                           reinterpret_cast<sockaddr*>(&bound), &len) == 0,
             "getsockname() failed");
  port_ = ntohs(bound.sin_port);

  loops_.reserve(cfg.event_loops);
  for (std::size_t i = 0; i < cfg.event_loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(service_, shared_,
                                            i == 0 ? listen_fd_ : -1));
  }
  std::vector<Loop*> targets;
  targets.reserve(loops_.size());
  for (const auto& l : loops_) {
    targets.push_back(l.get());
  }
  loops_[0]->set_targets(std::move(targets));
  threads_.reserve(loops_.size());
  for (const auto& l : loops_) {
    threads_.emplace_back([loop = l.get()] { loop->run(); });
  }
}

TcpFrontend::~TcpFrontend() { shutdown(); }

TcpFrontend::Stats TcpFrontend::stats() const {
  Stats s;
  s.connections = shared_->connections.load(std::memory_order_relaxed);
  s.requests = shared_->requests.load(std::memory_order_relaxed);
  s.responses = shared_->responses.load(std::memory_order_relaxed);
  s.malformed = shared_->malformed.load(std::memory_order_relaxed);
  s.pings = shared_->pings.load(std::memory_order_relaxed);
  s.stats_requests =
      shared_->stats_requests.load(std::memory_order_relaxed);
  s.admin_requests =
      shared_->admin_requests.load(std::memory_order_relaxed);
  s.bytes_read = shared_->bytes_read.load(std::memory_order_relaxed);
  s.bytes_written = shared_->bytes_written.load(std::memory_order_relaxed);
  s.overflow_kills =
      shared_->overflow_kills.load(std::memory_order_relaxed);
  s.stall_kills = shared_->stall_kills.load(std::memory_order_relaxed);
  s.dropped_responses =
      shared_->dropped_responses.load(std::memory_order_relaxed);
  return s;
}

std::size_t TcpFrontend::open_connections() const {
  return shared_->open_conns.load(std::memory_order_relaxed);
}

void TcpFrontend::shutdown() {
  const std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) {
    return;
  }
  for (const auto& l : loops_) {
    l->stop();
  }
  for (auto& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  for (const auto& l : loops_) {
    l->close_all();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  joined_ = true;
}

}  // namespace eb::serve
