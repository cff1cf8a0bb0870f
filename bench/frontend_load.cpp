// Frontend load bench: C10K-style fan-in through the epoll TcpFrontend,
// gated against an in-process gateway reference at equal offered load.
//
// Per connection-count point:
//
//  * in-process -- a completion-driven closed loop keeps W = conns x
//                  pipeline requests outstanding inside the gateway (no
//                  sockets), measuring client-side p50/p99: the floor the
//                  wire path is judged against.
//  * wire       -- client threads drive `conns` real loopback sockets
//                  through their own epoll loops, each connection keeping
//                  `pipeline` requests in flight (responses matched by
//                  echoed request_id), measuring connect/accept rate and
//                  client-side p50/p99 at the same total window W.
//
// mode=ci gates the largest point >= min_conns against
// bench/baselines/frontend_load_ci.json: every connection accepted, wire
// p99 within p99_ratio_max of the in-process reference, an absolute wire
// p99 budget, and a connection-acceptance-rate floor; exits 1 on
// violation. The serve-load CI lane runs exactly that.
//
// Usage (strict key=value args -- unknown keys fail loudly):
//   frontend_load                       # sweep: 100 -> 10k connections
//   frontend_load mode=smoke            # ~2 s small sweep
//   frontend_load mode=ci json=frontend_load_report.json
//                 baseline=bench/baselines/frontend_load_ci.json
//   frontend_load conns=500,2000 pipeline=4 duration_s=3
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "bnn/tensor.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "serve/gateway.hpp"
#include "serve/tcp_frontend.hpp"
#include "serve/wire.hpp"

namespace {

using eb::Config;
using eb::bench::json_number_field;
using eb::bnn::Network;
using eb::bnn::Tensor;
using eb::serve::DeadlineClass;
using eb::serve::Gateway;
using eb::serve::GatewayConfig;
using eb::serve::ModelConfig;
using eb::serve::Result;
using eb::serve::Status;
using eb::serve::TcpFrontend;
using eb::serve::TcpFrontendConfig;
namespace wire = eb::serve::wire;
using Clock = std::chrono::steady_clock;

constexpr auto kBatch = DeadlineClass::kBatch;
constexpr char kModel[] = "mlp";
constexpr std::size_t kDim = 128;

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double percentile(std::vector<double>& sorted_inplace, double p) {
  if (sorted_inplace.empty()) {
    return 0.0;
  }
  std::sort(sorted_inplace.begin(), sorted_inplace.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_inplace.size() - 1));
  return sorted_inplace[idx];
}

// Raises RLIMIT_NOFILE to its hard cap (CI runners default the soft
// limit to 1024, far below a C10K sweep; every connection costs TWO fds
// here -- client end and server end live in one process).
std::size_t raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) {
    return 1024;
  }
  lim.rlim_cur = lim.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &lim);
  ::getrlimit(RLIMIT_NOFILE, &lim);
  return static_cast<std::size_t>(lim.rlim_cur);
}

// cv-based rendezvous so every client thread starts its traffic clock on
// the same edge (std::barrier without the C++20 availability question).
class Barrier {
 public:
  explicit Barrier(std::size_t n) : waiting_for_(n) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--waiting_for_ == 0) {
      ++round_;
      cv_.notify_all();
      return;
    }
    const std::size_t round = round_;
    cv_.wait(lock, [&] { return round_ != round; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t waiting_for_;
  std::size_t round_ = 0;
};

std::vector<Tensor> make_inputs(std::size_t n, std::uint64_t seed) {
  eb::RngStream rng(seed);
  std::vector<Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Tensor::random_uniform({kDim}, 1.0, rng));
  }
  return inputs;
}

// ------------------------------------------------- in-process reference --

struct InprocResult {
  std::size_t completed = 0;
  std::size_t errors = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Completion-driven closed loop: each completion immediately resubmits,
// holding exactly `window` requests inside the gateway until t_end.
InprocResult run_inproc(Gateway& gw, const std::vector<Tensor>& inputs,
                        std::size_t window, double duration_s) {
  std::mutex mu;
  std::vector<double> lats;
  lats.reserve(1 << 18);
  std::atomic<std::size_t> outstanding{0};
  std::atomic<std::size_t> errors{0};
  const auto t_start = Clock::now();
  const auto t_end =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(duration_s));

  auto submit_one = std::make_shared<std::function<void(std::size_t)>>();
  *submit_one = [&, submit_one](std::size_t i) {
    const auto t0 = Clock::now();
    gw.submit_async(
        kModel, inputs[i % inputs.size()], kBatch, /*deadline_us=*/0,
        [&, submit_one, i, t0](Result r) {
          if (r.status == Status::kOk) {
            const double us = to_us(Clock::now() - t0);
            const std::lock_guard<std::mutex> lock(mu);
            lats.push_back(us);
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          if (Clock::now() < t_end) {
            (*submit_one)(i + 1);
          } else {
            outstanding.fetch_sub(1, std::memory_order_acq_rel);
          }
        });
  };
  outstanding.store(window);
  for (std::size_t w = 0; w < window; ++w) {
    (*submit_one)(w * 1000);
  }
  while (outstanding.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double span_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  InprocResult res;
  res.completed = lats.size();
  res.errors = errors.load();
  res.rps = span_s > 0.0 ? static_cast<double>(res.completed) / span_s : 0.0;
  res.p50_us = percentile(lats, 0.50);
  res.p99_us = percentile(lats, 0.99);
  return res;
}

// -------------------------------------------------------- wire clients --

struct WireResult {
  std::size_t conns_target = 0;
  std::size_t conns_ok = 0;
  double connect_s = 0.0;
  double accept_rate_cps = 0.0;
  std::size_t completed = 0;
  std::size_t errors = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// One client-side connection: pipelined requests in flight, responses
// matched by echoed request_id (= its sequence number).
struct ClientConn {
  int fd = -1;
  bool connected = false;
  bool dead = false;
  std::vector<std::uint8_t> in;
  std::size_t rpos = 0;
  std::vector<std::uint8_t> out;  // unsent request bytes
  std::size_t opos = 0;
  bool want_write = false;
  std::uint64_t next_seq = 0;
  std::size_t in_flight = 0;
  std::vector<Clock::time_point> sent_at;  // slot = seq % pipeline
};

struct ClientShard {
  std::size_t conns = 0;
  std::size_t pipeline = 0;
  std::uint16_t port = 0;
  Clock::time_point t_end{};
  // results
  std::size_t connected = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;
  std::vector<double> lats;
};

// Patches the little-endian request_id field (body offset 8 -> absolute
// offset 12) of a pre-encoded request frame: re-encoding 1 KiB frames
// per send would make the client the bottleneck before the server.
void patch_request_id(std::vector<std::uint8_t>& frame, std::uint64_t id) {
  for (int b = 0; b < 8; ++b) {
    frame[12 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(id >> (8 * b));
  }
}

void shard_update_interest(int ep, ClientConn& c, bool want_write) {
  if (c.want_write == want_write) {
    return;
  }
  c.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
}

// Tries to push the connection's pending bytes; arms EPOLLOUT on a full
// socket buffer.
bool shard_flush(int ep, ClientConn& c) {
  while (c.opos < c.out.size()) {
    const ssize_t k = ::send(c.fd, c.out.data() + c.opos,
                             c.out.size() - c.opos, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        shard_update_interest(ep, c, true);
        return true;
      }
      return false;
    }
    c.opos += static_cast<std::size_t>(k);
  }
  c.out.clear();
  c.opos = 0;
  shard_update_interest(ep, c, false);
  return true;
}

// Appends one request to the connection's pending-out buffer WITHOUT
// flushing -- callers coalesce a burst of resubmissions into one send.
void shard_stage_request(ClientConn& c,
                         std::vector<std::uint8_t>& frame_template) {
  const std::uint64_t seq = c.next_seq++;
  patch_request_id(frame_template, seq);
  c.sent_at[seq % c.sent_at.size()] = Clock::now();
  c.out.insert(c.out.end(), frame_template.begin(), frame_template.end());
  ++c.in_flight;
}

// The body of one client thread: connect its shard, rendezvous, then
// run closed-loop pipelined traffic until t_end.
void run_shard(ClientShard& shard, Barrier& connect_barrier,
               Barrier& traffic_barrier, const Tensor& payload) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    connect_barrier.arrive_and_wait();
    traffic_barrier.arrive_and_wait();
    return;
  }
  wire::RequestFrame req;
  req.request_id = 0;
  req.cls = kBatch;
  req.model_id = kModel;
  req.tensor = payload;
  std::vector<std::uint8_t> frame_template = wire::encode_request(req);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(shard.port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  std::vector<ClientConn> conns(shard.conns);
  std::vector<ClientConn*> by_fd;  // dense fd -> conn map
  std::size_t pending_connects = 0;
  for (auto& c : conns) {
    c.sent_at.assign(shard.pipeline, Clock::time_point{});
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      c.dead = true;
      continue;
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int rc = ::connect(
        c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc == 0) {
      c.connected = true;
    } else if (errno != EINPROGRESS) {
      ::close(c.fd);
      c.fd = -1;
      c.dead = true;
      continue;
    } else {
      ++pending_connects;
    }
    if (static_cast<std::size_t>(c.fd) >= by_fd.size()) {
      by_fd.resize(static_cast<std::size_t>(c.fd) + 1, nullptr);
    }
    by_fd[static_cast<std::size_t>(c.fd)] = &c;
    epoll_event ev{};
    ev.events = c.connected ? EPOLLIN : (EPOLLIN | EPOLLOUT);
    ev.data.fd = c.fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
    c.want_write = !c.connected;
  }
  // Wait for every in-progress connect to resolve (10 s cap).
  epoll_event evs[256];
  const auto connect_deadline = Clock::now() + std::chrono::seconds(10);
  while (pending_connects > 0 && Clock::now() < connect_deadline) {
    const int n = ::epoll_wait(ep, evs, 256, 100);
    for (int i = 0; i < n; ++i) {
      ClientConn* c = by_fd[static_cast<std::size_t>(evs[i].data.fd)];
      if (c == nullptr || c->connected || c->dead) {
        continue;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len);
      --pending_connects;
      if (err != 0 || (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        ::epoll_ctl(ep, EPOLL_CTL_DEL, c->fd, nullptr);
        by_fd[static_cast<std::size_t>(c->fd)] = nullptr;
        ::close(c->fd);
        c->fd = -1;
        c->dead = true;
        continue;
      }
      c->connected = true;
      shard_update_interest(ep, *c, false);
    }
  }
  for (const auto& c : conns) {
    shard.connected += c.connected ? 1 : 0;
  }
  connect_barrier.arrive_and_wait();  // main stamps the connect clock
  traffic_barrier.arrive_and_wait();  // main sets shard.t_end first

  // Prime the pipeline on every live connection.
  for (auto& c : conns) {
    if (!c.connected || c.dead) {
      continue;
    }
    for (std::size_t p = 0; p < shard.pipeline; ++p) {
      shard_stage_request(c, frame_template);
    }
    (void)shard_flush(ep, c);
  }
  std::size_t live_in_flight = 0;
  for (const auto& c : conns) {
    live_in_flight += c.in_flight;
  }
  const auto drain_deadline =
      shard.t_end + std::chrono::seconds(15);  // hung server = loud fail
  std::uint8_t buf[64 * 1024];
  while (live_in_flight > 0 && Clock::now() < drain_deadline) {
    const int n = ::epoll_wait(ep, evs, 256, 50);
    const auto now = Clock::now();
    for (int i = 0; i < n; ++i) {
      ClientConn* c = by_fd[static_cast<std::size_t>(evs[i].data.fd)];
      if (c == nullptr || c->dead) {
        continue;
      }
      bool drop = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      if (!drop && (evs[i].events & EPOLLOUT) != 0) {
        drop = !shard_flush(ep, *c);
      }
      if (!drop && (evs[i].events & EPOLLIN) != 0) {
        for (;;) {
          const ssize_t k = ::recv(c->fd, buf, sizeof(buf), 0);
          if (k < 0) {
            if (errno == EINTR) {
              continue;
            }
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
              drop = true;
            }
            break;
          }
          if (k == 0) {
            drop = true;
            break;
          }
          c->in.insert(c->in.end(), buf, buf + k);
          if (static_cast<std::size_t>(k) < sizeof(buf)) {
            break;
          }
        }
        // Peel complete responses, resubmitting while time remains.
        while (!drop) {
          wire::ResponseFrame resp;
          std::size_t consumed = 0;
          const auto st =
              wire::decode_response(c->in.data() + c->rpos,
                                    c->in.size() - c->rpos, resp, consumed);
          if (st == wire::DecodeStatus::kNeedMoreData) {
            break;
          }
          if (st != wire::DecodeStatus::kOk) {
            drop = true;
            break;
          }
          c->rpos += consumed;
          --c->in_flight;
          --live_in_flight;
          if (resp.status == Status::kOk) {
            const auto& t0 =
                c->sent_at[resp.request_id % c->sent_at.size()];
            shard.lats.push_back(to_us(now - t0));
            ++shard.completed;
          } else {
            ++shard.errors;
          }
          if (now < shard.t_end) {
            shard_stage_request(*c, frame_template);
            ++live_in_flight;
          }
        }
        if (!drop && !c->out.empty()) {
          drop = !shard_flush(ep, *c);
        }
        if (c->rpos == c->in.size()) {
          c->in.clear();
          c->rpos = 0;
        } else if (c->rpos >= 4096 && c->rpos >= c->in.size() / 2) {
          c->in.erase(c->in.begin(),
                      c->in.begin() + static_cast<std::ptrdiff_t>(c->rpos));
          c->rpos = 0;
        }
      }
      if (drop) {
        live_in_flight -= c->in_flight;
        c->in_flight = 0;
        ::epoll_ctl(ep, EPOLL_CTL_DEL, c->fd, nullptr);
        by_fd[static_cast<std::size_t>(c->fd)] = nullptr;
        ::close(c->fd);
        c->fd = -1;
        c->dead = true;
      }
    }
  }
  for (auto& c : conns) {
    if (c.fd >= 0) {
      ::close(c.fd);
    }
  }
  ::close(ep);
}

WireResult run_wire(std::uint16_t port, std::size_t conns,
                    std::size_t pipeline, std::size_t client_threads,
                    double duration_s, const Tensor& payload) {
  WireResult res;
  res.conns_target = conns;
  const std::size_t threads = std::max<std::size_t>(1, client_threads);
  std::vector<ClientShard> shards(threads);
  std::size_t assigned = 0;
  for (std::size_t t = 0; t < threads; ++t) {
    shards[t].conns = conns / threads + (t < conns % threads ? 1 : 0);
    shards[t].pipeline = pipeline;
    shards[t].port = port;
    assigned += shards[t].conns;
  }
  (void)assigned;
  Barrier connect_barrier(threads + 1);
  Barrier traffic_barrier(threads + 1);
  const auto t_connect0 = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      run_shard(shards[t], connect_barrier, traffic_barrier, payload);
    });
  }
  connect_barrier.arrive_and_wait();  // all shards connected
  res.connect_s =
      std::chrono::duration<double>(Clock::now() - t_connect0).count();
  const auto t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(duration_s));
  for (auto& s : shards) {
    s.t_end = t_end;
  }
  const auto t_traffic0 = Clock::now();
  traffic_barrier.arrive_and_wait();  // release traffic
  for (auto& w : workers) {
    w.join();
  }
  const double span_s =
      std::chrono::duration<double>(Clock::now() - t_traffic0).count();
  std::vector<double> lats;
  for (auto& s : shards) {
    res.conns_ok += s.connected;
    res.completed += s.completed;
    res.errors += s.errors;
    lats.insert(lats.end(), s.lats.begin(), s.lats.end());
  }
  res.accept_rate_cps = res.connect_s > 0.0
                            ? static_cast<double>(res.conns_ok) /
                                  res.connect_s
                            : 0.0;
  res.rps =
      span_s > 0.0 ? static_cast<double>(res.completed) / span_s : 0.0;
  res.p50_us = percentile(lats, 0.50);
  res.p99_us = percentile(lats, 0.99);
  return res;
}

// ---------------------------------------------------------------- main --

std::vector<std::size_t> parse_conns_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long long v = std::atoll(item.c_str());
    if (v > 0) {
      out.push_back(static_cast<std::size_t>(v));
    }
  }
  return out;
}

struct PointReport {
  std::size_t conns = 0;
  InprocResult inproc;
  WireResult wire_r;
  bool skipped = false;
};

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = Config::from_args(argc, argv,
                            {"mode", "json", "baseline", "conns", "pipeline",
                             "duration_s", "client_threads", "event_loops",
                             "workers", "max_batch", "window_us"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 2;
  }
  const std::string mode = cfg.get_string("mode", "sweep");
  const double duration_s =
      cfg.get_double("duration_s", mode == "smoke" ? 0.5 : 1.5);
  const auto pipeline =
      static_cast<std::size_t>(cfg.get_int("pipeline", 2));
  const auto client_threads =
      static_cast<std::size_t>(cfg.get_int("client_threads", 2));

  std::vector<std::size_t> points;
  const std::string conns_csv = cfg.get_string("conns", "");
  if (!conns_csv.empty()) {
    points = parse_conns_list(conns_csv);
  } else if (mode == "smoke") {
    points = {64, 256};
  } else if (mode == "ci") {
    points = {100, 1000};
  } else {
    points = {100, 1000, 5000, 10000};
  }

  const std::size_t fd_limit = raise_fd_limit();
  std::printf("== frontend_load (%s): pipeline %zu, %zu client threads, "
              "fd limit %zu ==\n",
              mode.c_str(), pipeline, client_threads, fd_limit);

  // One mid-size model: heavy enough that per-request serving cost is
  // the dominant term on both paths (the gate measures the frontend's
  // *added* latency, not raw syscall overhead vs a free function call).
  eb::RngStream model_rng(23);
  const Network net =
      eb::bnn::build_mlp("fe-mlp", {kDim, 512, 512, 10}, model_rng);
  const auto inputs = make_inputs(64, 0xF00D);

  GatewayConfig gcfg;
  gcfg.pool_threads = 1;
  gcfg.classes[static_cast<std::size_t>(kBatch)] = {1.0, 0,
                                                    std::size_t{1} << 17};
  Gateway gw(gcfg);
  ModelConfig mcfg;
  mcfg.server.max_batch =
      static_cast<std::size_t>(cfg.get_int("max_batch", 32));
  mcfg.server.batching_window_us =
      static_cast<std::uint64_t>(cfg.get_int("window_us", 200));
  mcfg.server.workers =
      static_cast<std::size_t>(cfg.get_int("workers", 2));
  gw.register_model(kModel, net, mcfg);

  TcpFrontendConfig fcfg;
  fcfg.backlog = 4096;
  fcfg.event_loops =
      static_cast<std::size_t>(cfg.get_int("event_loops", 1));
  TcpFrontend frontend(gw, fcfg);

  std::vector<PointReport> reports;
  for (const std::size_t conns : points) {
    PointReport rep;
    rep.conns = conns;
    // Client AND server ends of every connection live in this process.
    const std::size_t fds_needed = 2 * conns + 128;
    if (fds_needed > fd_limit) {
      std::printf("conns %5zu: SKIP (needs %zu fds, limit %zu)\n", conns,
                  fds_needed, fd_limit);
      rep.skipped = true;
      reports.push_back(rep);
      continue;
    }
    const std::size_t window = conns * pipeline;
    rep.inproc = run_inproc(gw, inputs, window, duration_s);
    rep.wire_r = run_wire(frontend.port(), conns, pipeline, client_threads,
                          duration_s, inputs[0]);
    reports.push_back(rep);
    const double ratio = rep.inproc.p99_us > 0.0
                             ? rep.wire_r.p99_us / rep.inproc.p99_us
                             : 0.0;
    std::printf(
        "conns %5zu: accepted %zu/%zu in %.2fs (%.0f conn/s) | "
        "inproc %7.0f rps p99 %8.0f us | wire %7.0f rps p99 %8.0f us "
        "(%.2fx) | errors %zu\n",
        conns, rep.wire_r.conns_ok, conns, rep.wire_r.connect_s,
        rep.wire_r.accept_rate_cps, rep.inproc.rps, rep.inproc.p99_us,
        rep.wire_r.rps, rep.wire_r.p99_us, ratio,
        rep.wire_r.errors + rep.inproc.errors);
  }
  const auto stats = frontend.stats();
  std::printf("frontend: %zu conns, %zu req, %zu resp, %zu dropped, "
              "%zu overflow kills, %zu stall kills\n",
              stats.connections, stats.requests, stats.responses,
              stats.dropped_responses, stats.overflow_kills,
              stats.stall_kills);

  const std::string json_path = cfg.get_string("json", "");
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n  \"bench\": \"frontend_load\",\n  \"mode\": \"" << mode
       << "\",\n  \"pipeline\": " << pipeline << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      const double ratio = r.inproc.p99_us > 0.0
                               ? r.wire_r.p99_us / r.inproc.p99_us
                               : 0.0;
      os << "    {\"conns\": " << r.conns << ", \"skipped\": "
         << (r.skipped ? "true" : "false")
         << ", \"conns_ok\": " << r.wire_r.conns_ok
         << ", \"accept_rate_cps\": " << r.wire_r.accept_rate_cps
         << ", \"inproc_p99_us\": " << r.inproc.p99_us
         << ", \"inproc_rps\": " << r.inproc.rps
         << ", \"wire_p50_us\": " << r.wire_r.p50_us
         << ", \"wire_p99_us\": " << r.wire_r.p99_us
         << ", \"wire_rps\": " << r.wire_r.rps
         << ", \"p99_ratio\": " << ratio << "}"
         << (i + 1 == reports.size() ? "\n" : ",\n");
    }
    os << "  ]\n}\n";
    std::ofstream out(json_path);
    out << os.str();
    std::printf("report written to %s\n", json_path.c_str());
  }

  if (mode == "ci") {
    const std::string baseline_path = cfg.get_string("baseline", "");
    std::string text;
    if (!eb::bench::read_baseline(baseline_path, text)) {
      return 1;
    }
    const double min_conns = json_number_field(text, "min_conns", 0.0);
    const double ratio_max = json_number_field(text, "p99_ratio_max", 0.0);
    const double p99_budget =
        json_number_field(text, "wire_p99_budget_us", 0.0);
    const double accept_floor =
        json_number_field(text, "min_accept_rate_cps", 0.0);
    if (min_conns <= 0.0 || ratio_max <= 0.0 || p99_budget <= 0.0 ||
        accept_floor <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: baseline %s is missing min_conns/p99_ratio_max/"
                   "wire_p99_budget_us/min_accept_rate_cps\n",
                   baseline_path.c_str());
      return 1;
    }
    // Gate on the LARGEST point that meets the floor; it must have run.
    const PointReport* gate = nullptr;
    for (const auto& r : reports) {
      if (!r.skipped &&
          static_cast<double>(r.conns) >= min_conns &&
          (gate == nullptr || r.conns > gate->conns)) {
        gate = &r;
      }
    }
    if (gate == nullptr) {
      std::fprintf(stderr,
                   "FAIL: no runnable point with conns >= %.0f (fd limit "
                   "too low?)\n",
                   min_conns);
      return 1;
    }
    const double ratio = gate->inproc.p99_us > 0.0
                             ? gate->wire_r.p99_us / gate->inproc.p99_us
                             : 1e9;
    std::printf("\nci gate @%zu conns: accepted %zu/%zu, p99 ratio %.2f "
                "(max %.2f), wire p99 %.0f us (budget %.0f), accept rate "
                "%.0f conn/s (floor %.0f)\n",
                gate->conns, gate->wire_r.conns_ok, gate->conns, ratio,
                ratio_max, gate->wire_r.p99_us, p99_budget,
                gate->wire_r.accept_rate_cps, accept_floor);
    bool fail = false;
    if (gate->wire_r.conns_ok != gate->conns) {
      std::fprintf(stderr, "FAIL: not every connection was accepted\n");
      fail = true;
    }
    if (ratio > ratio_max) {
      std::fprintf(stderr, "FAIL: wire p99 ratio exceeds %.2fx\n",
                   ratio_max);
      fail = true;
    }
    if (gate->wire_r.p99_us > p99_budget) {
      std::fprintf(stderr, "FAIL: wire p99 exceeds absolute budget\n");
      fail = true;
    }
    if (gate->wire_r.accept_rate_cps < accept_floor) {
      std::fprintf(stderr, "FAIL: accept rate below floor\n");
      fail = true;
    }
    if (fail) {
      return 1;
    }
    std::printf("ci gate: PASS\n");
  }
  return 0;
}
