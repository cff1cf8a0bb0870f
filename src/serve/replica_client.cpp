#include "serve/replica_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace eb::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

ReplicaClient::ReplicaClient(ReplicaClientConfig cfg) : cfg_(std::move(cfg)) {
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  EB_REQUIRE(wake_fd_ >= 0, "eventfd() failed");
  thread_ = std::thread([this] { thread_main(); });
}

ReplicaClient::~ReplicaClient() {
  shutdown();
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
  }
}

bool ReplicaClient::submit(wire::RequestFrame req,
                           ResponseHandler on_response,
                           DeathHandler on_death) {
  std::vector<std::uint8_t> bytes;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!connected_ || stopping_) {
      return false;
    }
    req.request_id = next_id_++;
    bytes = wire::encode_request(req);
    Pending p;
    p.on_response = std::move(on_response);
    p.on_death = std::move(on_death);
    pending_.emplace(req.request_id, std::move(p));
    outq_.push_back(std::move(bytes));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  wake();
  return true;
}

bool ReplicaClient::admin(wire::ModelAdminFrame req, AdminHandler on_response,
                          DeathHandler on_death) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!connected_ || stopping_) {
      return false;
    }
    req.request_id = next_id_++;
    req.response = false;  // only requests leave this side
    Pending p;
    p.on_admin = std::move(on_response);
    p.on_death = std::move(on_death);
    pending_.emplace(req.request_id, std::move(p));
    outq_.push_back(wire::encode_model_admin(req));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  wake();
  return true;
}

bool ReplicaClient::alive() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return connected_ && !stopping_;
}

std::size_t ReplicaClient::in_flight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

wire::StatsFrame ReplicaClient::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_stats_;
}

bool ReplicaClient::has_stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return have_stats_;
}

ReplicaClient::Counters ReplicaClient::counters() const {
  Counters c;
  c.connects = connects_.load(std::memory_order_relaxed);
  c.deaths = deaths_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.responses = responses_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.pongs = pongs_.load(std::memory_order_relaxed);
  c.admin_responses = admin_responses_.load(std::memory_order_relaxed);
  return c;
}

void ReplicaClient::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake();
  const std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) {
    return;
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  teardown();  // idempotent backstop: fail anything still pending
  joined_ = true;
}

void ReplicaClient::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));
}

void ReplicaClient::thread_main() {
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        break;
      }
    }
    if (dial()) {
      io_loop();
    }
    teardown();
    if (!cfg_.reconnect) {
      break;
    }
    // Backoff between dial attempts; the wake eventfd cuts it short at
    // shutdown.
    pollfd pfd{wake_fd_, POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(cfg_.reconnect_backoff_ms));
  }
  teardown();
}

bool ReplicaClient::dial() {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.address.port);
  if (::inet_pton(AF_INET, cfg_.address.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return false;
    }
    // Wait for the nonblocking connect (or a shutdown wake) and check
    // SO_ERROR for the verdict.
    pollfd pfds[2] = {{fd, POLLOUT, 0}, {wake_fd_, POLLIN, 0}};
    const int n =
        ::poll(pfds, 2, static_cast<int>(cfg_.connect_timeout_ms));
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (n <= 0 || (pfds[0].revents & POLLOUT) == 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      ::close(fd);
      return false;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return false;
    }
    fd_ = fd;
    connected_ = true;
  }
  connects_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ReplicaClient::io_loop() {
  std::vector<std::uint8_t> rbuf;
  std::size_t rpos = 0;
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;
  auto last_pong = Clock::now();
  auto last_probe = Clock::now() - std::chrono::hours(1);  // probe now
  std::uint64_t nonce = 0;

  const auto interval = std::chrono::milliseconds(
      std::max<std::uint32_t>(cfg_.ping_interval_ms, 1));
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      // Stage every queued frame; frames are whole, so a partial send
      // resumes mid-frame from woff.
      while (!outq_.empty()) {
        wbuf.insert(wbuf.end(), outq_.front().begin(), outq_.front().end());
        outq_.pop_front();
      }
    }
    const auto now = Clock::now();
    if (now - last_probe >= interval) {
      last_probe = now;
      wire::PingFrame ping;
      ping.nonce = ++nonce;
      const auto pf = wire::encode_ping(ping);
      wbuf.insert(wbuf.end(), pf.begin(), pf.end());
      wire::StatsFrame sreq;
      const auto sf = wire::encode_stats(sreq);
      wbuf.insert(wbuf.end(), sf.begin(), sf.end());
    }
    if (cfg_.ping_timeout_ms > 0 &&
        now - last_pong > std::chrono::milliseconds(cfg_.ping_timeout_ms)) {
      return;  // replica unresponsive: dead
    }

    // Flush.
    while (woff < wbuf.size()) {
      const ssize_t k = ::send(fd_, wbuf.data() + woff, wbuf.size() - woff,
                               MSG_NOSIGNAL);
      if (k < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        return;  // connection gone
      }
      woff += static_cast<std::size_t>(k);
    }
    if (woff == wbuf.size()) {
      wbuf.clear();
      woff = 0;
    }

    pollfd pfds[2] = {
        {fd_, static_cast<short>(POLLIN | (wbuf.empty() ? 0 : POLLOUT)), 0},
        {wake_fd_, POLLIN, 0}};
    const int n = ::poll(
        pfds, 2,
        static_cast<int>(std::min<std::uint32_t>(cfg_.ping_interval_ms, 50)));
    if (n < 0 && errno != EINTR) {
      return;
    }
    if ((pfds[1].revents & POLLIN) != 0) {
      std::uint64_t v = 0;
      [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &v, sizeof(v));
    }
    if ((pfds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
      return;
    }
    if ((pfds[0].revents & POLLIN) == 0) {
      continue;
    }

    // Read + parse.
    for (;;) {
      const std::size_t old = rbuf.size();
      rbuf.resize(old + kReadChunk);
      const ssize_t k = ::recv(fd_, rbuf.data() + old, kReadChunk, 0);
      if (k < 0) {
        rbuf.resize(old);
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        return;
      }
      if (k == 0) {
        return;  // peer closed
      }
      rbuf.resize(old + static_cast<std::size_t>(k));
      break;
    }
    while (rpos < rbuf.size()) {
      std::uint8_t type = 0;
      const wire::DecodeStatus pk =
          wire::peek_type(rbuf.data() + rpos, rbuf.size() - rpos, type);
      if (pk == wire::DecodeStatus::kNeedMoreData) {
        break;
      }
      if (pk != wire::DecodeStatus::kOk) {
        return;  // stream desync: nothing after this can be trusted
      }
      std::size_t consumed = 0;
      if (type == wire::kTypeResponse) {
        wire::ResponseFrame resp;
        if (wire::decode_response(rbuf.data() + rpos, rbuf.size() - rpos,
                                  resp, consumed) !=
            wire::DecodeStatus::kOk) {
          if (consumed == 0) {
            break;  // incomplete
          }
          return;  // malformed response: desync
        }
        ResponseHandler handler;
        AdminHandler admin_handler;
        {
          const std::lock_guard<std::mutex> lock(mu_);
          const auto it = pending_.find(resp.request_id);
          if (it != pending_.end()) {
            handler = std::move(it->second.on_response);
            admin_handler = std::move(it->second.on_admin);
            pending_.erase(it);
          }
        }
        // Unmatched ids (e.g. the server's id-0 error frames) drop.
        if (handler) {
          responses_.fetch_add(1, std::memory_order_relaxed);
          handler(std::move(resp));
        } else if (admin_handler) {
          // The replica judged our admin frame malformed and answered
          // with a type-2 error echoing its id; surface it as a failed
          // admin response so the caller's exactly-once contract holds.
          wire::ModelAdminFrame failed;
          failed.response = true;
          failed.request_id = resp.request_id;
          failed.status = resp.status;
          failed.message = "replica rejected the admin frame";
          admin_responses_.fetch_add(1, std::memory_order_relaxed);
          admin_handler(std::move(failed));
        }
      } else if (type == wire::kTypePing) {
        wire::PingFrame pong;
        if (wire::decode_ping(rbuf.data() + rpos, rbuf.size() - rpos, pong,
                              consumed) != wire::DecodeStatus::kOk) {
          if (consumed == 0) {
            break;
          }
          return;
        }
        if (pong.pong) {
          last_pong = Clock::now();
          pongs_.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (type == wire::kTypeStats) {
        wire::StatsFrame stats;
        if (wire::decode_stats(rbuf.data() + rpos, rbuf.size() - rpos,
                               stats, consumed) != wire::DecodeStatus::kOk) {
          if (consumed == 0) {
            break;
          }
          return;
        }
        if (stats.response) {
          const std::lock_guard<std::mutex> lock(mu_);
          last_stats_ = std::move(stats);
          have_stats_ = true;
        }
      } else if (type == wire::kTypeModelAdmin) {
        wire::ModelAdminFrame admin;
        if (wire::decode_model_admin(rbuf.data() + rpos, rbuf.size() - rpos,
                                     admin, consumed) !=
            wire::DecodeStatus::kOk) {
          if (consumed == 0) {
            break;
          }
          return;
        }
        AdminHandler handler;
        if (admin.response) {
          const std::lock_guard<std::mutex> lock(mu_);
          const auto it = pending_.find(admin.request_id);
          if (it != pending_.end() && it->second.on_admin) {
            handler = std::move(it->second.on_admin);
            pending_.erase(it);
          }
        }
        if (handler) {
          admin_responses_.fetch_add(1, std::memory_order_relaxed);
          handler(std::move(admin));
        }
      } else {
        return;  // unknown frame type: tear down, like a desync
      }
      rpos += consumed;
    }
    if (rpos == rbuf.size()) {
      rbuf.clear();
      rpos = 0;
    } else if (rpos >= 4096 && rpos >= rbuf.size() / 2) {
      rbuf.erase(rbuf.begin(), rbuf.begin() + static_cast<std::ptrdiff_t>(rpos));
      rpos = 0;
    }
  }
}

void ReplicaClient::teardown() {
  std::map<std::uint64_t, Pending> doomed;
  bool was_connected = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    was_connected = connected_;
    connected_ = false;
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    doomed.swap(pending_);
    outq_.clear();
  }
  if (was_connected) {
    deaths_.fetch_add(1, std::memory_order_relaxed);
  }
  failed_.fetch_add(doomed.size(), std::memory_order_relaxed);
  // Death handlers run outside the lock (they typically re-submit to a
  // sibling client) and in submission order (the map is id-sorted).
  for (auto& [id, p] : doomed) {
    if (p.on_death) {
      p.on_death();
    }
  }
}

}  // namespace eb::serve
