// TcpFrontend suite: the epoll event-loop frontend and the pipelined
// wire protocol, exercised over real loopback sockets (the reassembly
// path, not just the decoders).
//
// Contracts under test:
//  * reaping -- closed connections leave the frontend's registry at
//    close time, NOT lazily when the next client arrives (the pre-epoll
//    frontend grew its reader/connection lists without bound under an
//    idle listener);
//  * reassembly -- a request frame split at EVERY byte boundary across
//    separate sends still decodes once, through the real reader;
//  * pipelining -- M requests in flight on one connection complete out
//    of order and are matched solely by the echoed request_id (also with
//    event_loops = 2);
//  * backpressure -- a client that stops reading is killed by the write
//    queue byte cap (overflow_kills) or by the write-stall timeout
//    (stall_kills); model-server workers never block on it;
//  * one response frame -- every response is a single type-2 frame,
//    whatever a request carries in its reserved byte, and an output over
//    the frame cap degrades to an id-matched kInternalError on a
//    connection that keeps serving;
//  * graceful shutdown -- queued and in-flight responses are dropped
//    (counted), sockets close, nothing crashes or hangs;
//  * control frames -- type-5 pings and type-6 stats requests are
//    answered inline on the loop thread (ahead of queued gateway work),
//    and malformed control frames are skipped, not fatal.
//
// CI runs this suite under ASan/UBSan and TSan at EB_THREADS=1 and 4.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bnn/format.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "bnn/tensor.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "serve/gateway.hpp"
#include "serve/server.hpp"
#include "serve/tcp_frontend.hpp"
#include "serve/wire.hpp"

namespace eb {
namespace {

using bnn::Tensor;
using serve::DeadlineClass;
using serve::Gateway;
using serve::GatewayConfig;
using serve::ModelConfig;
using serve::Result;
using serve::Status;
using serve::TcpFrontend;
using serve::TcpFrontendConfig;
namespace wire = serve::wire;

constexpr std::uint64_t kLongDeadlineUs = 30'000'000;

// Waits up to `timeout` for `pred` to flip true (polling: the frontend
// closes connections on its loop threads).
template <typename Pred>
bool wait_until(Pred pred,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(5000)) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= give_up) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

serve::BatchHandler echo_handler() {
  return [](std::span<const Tensor> in, ThreadPool&) {
    return std::vector<Tensor>(in.begin(), in.end());
  };
}

// Echoes after sleeping input[0] microseconds: lets a test give early
// requests long service times so completions genuinely reorder.
serve::BatchHandler delay_echo_handler() {
  return [](std::span<const Tensor> in, ThreadPool&) {
    std::vector<Tensor> out;
    out.reserve(in.size());
    for (const auto& t : in) {
      EB_REQUIRE(t.size() >= 1, "delay handler wants a payload");
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(t[0])));
      out.push_back(t);
    }
    return out;
  };
}

// Returns a fixed `elems`-double tensor regardless of input: a cheap
// way to make responses much larger than requests.
serve::BatchHandler big_output_handler(std::size_t elems) {
  return [elems](std::span<const Tensor> in, ThreadPool&) {
    Tensor big({elems});
    for (std::size_t i = 0; i < elems; ++i) {
      big[i] = static_cast<double>(i % 257);
    }
    return std::vector<Tensor>(in.size(), big);
  };
}

// Blocking loopback client that reads type-2 responses.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EB_REQUIRE(fd_ >= 0, "client socket() failed");
    if (rcvbuf_bytes > 0) {
      // Before connect(2) so the negotiated window honours it: the
      // backpressure tests want the kernel absorbing as little of the
      // server's output as possible.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = 20;  // a hung test fails loudly instead of wedging CI
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EB_REQUIRE(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0,
               "client connect() failed");
  }
  ~TestClient() { close(); }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  void half_close() { ::shutdown(fd_, SHUT_WR); }

  bool send_bytes(const std::uint8_t* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t k = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
      if (k <= 0) {
        if (k < 0 && errno == EINTR) {
          continue;
        }
        return false;
      }
      off += static_cast<std::size_t>(k);
    }
    return true;
  }
  bool send_bytes(const std::vector<std::uint8_t>& bytes) {
    return send_bytes(bytes.data(), bytes.size());
  }

  // One blocking recv(2), bypassing the response demultiplexer: for
  // frame-level tests that watch control traffic (RawFrameClient).
  ssize_t raw_recv(std::uint8_t* buf, std::size_t cap) {
    return ::recv(fd_, buf, cap, 0);
  }

  // Blocks until one whole type-2 response is available. False on EOF /
  // timeout / any other frame.
  bool next_response(wire::ResponseFrame& out) {
    std::uint8_t chunk[8192];
    for (;;) {
      std::size_t consumed = 0;
      const auto st =
          wire::decode_response(buf_.data(), buf_.size(), out, consumed);
      if (st == wire::DecodeStatus::kOk) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return true;
      }
      if (st != wire::DecodeStatus::kNeedMoreData) {
        ADD_FAILURE() << "bad response frame: " << wire::to_string(st);
        return false;
      }
      const ssize_t k = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (k <= 0) {
        return false;  // EOF or timeout
      }
      buf_.insert(buf_.end(), chunk, chunk + k);
    }
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
};

wire::RequestFrame make_request(std::uint64_t id, const Tensor& payload) {
  wire::RequestFrame req;
  req.request_id = id;
  req.cls = DeadlineClass::kBatch;
  req.deadline_us = kLongDeadlineUs;
  req.model_id = "echo";
  req.tensor = payload;
  return req;
}

// ------------------------------------------------------------- reaping --

// Regression for the pre-epoll frontend, which only reaped finished
// reader threads when the NEXT connection arrived: an idle listener
// with churned clients grew per-connection state without bound.
TEST(TcpFrontend, IdleListenerReapsClosedConnectionsWithoutNewTraffic) {
  Gateway gw;
  gw.register_model("echo", echo_handler());
  TcpFrontend frontend(gw);

  constexpr std::size_t kClients = 32;
  Tensor payload({4});
  for (std::size_t i = 0; i < 4; ++i) {
    payload[i] = static_cast<double>(i);
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    TestClient client(frontend.port());
    ASSERT_TRUE(
        client.send_bytes(wire::encode_request(make_request(i, payload))));
    wire::ResponseFrame resp;
    ASSERT_TRUE(client.next_response(resp));
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.request_id, i);
  }  // ~TestClient closes the socket

  // No further connection is made: the frontend must get back to zero
  // registered connections on its own.
  EXPECT_TRUE(wait_until([&] { return frontend.open_connections() == 0; }))
      << "open_connections stuck at " << frontend.open_connections();
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.connections, kClients);
  EXPECT_EQ(stats.requests, kClients);
}

// ---------------------------------------------------------- reassembly --

// Splits one request frame at every byte boundary across two separate
// sends (with a pause, so the reader sees two recv chunks), through the
// real socket reader -- not just the decoder's truncation handling.
TEST(TcpFrontend, FramesSplitAtEveryByteBoundaryReassemble) {
  Gateway gw;
  gw.register_model("echo", echo_handler());
  TcpFrontend frontend(gw);

  Tensor payload({4});
  for (std::size_t i = 0; i < 4; ++i) {
    payload[i] = 0.25 * static_cast<double>(i + 1);
  }
  TestClient client(frontend.port());
  std::uint64_t id = 1;
  for (std::size_t cut = 1;; ++cut) {
    const auto frame = wire::encode_request(make_request(id, payload));
    if (cut >= frame.size()) {
      break;
    }
    ASSERT_TRUE(client.send_bytes(frame.data(), cut));
    // TCP_NODELAY + a pause: the prefix almost surely arrives as its own
    // recv chunk. Even when the kernel coalesces, the frame must decode
    // exactly once.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(
        client.send_bytes(frame.data() + cut, frame.size() - cut));
    wire::ResponseFrame resp;
    ASSERT_TRUE(client.next_response(resp)) << "cut " << cut;
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.request_id, id);
    ASSERT_EQ(resp.tensor.size(), payload.size());
    for (std::size_t k = 0; k < payload.size(); ++k) {
      EXPECT_EQ(resp.tensor[k], payload[k]) << "cut " << cut;
    }
    ++id;
  }

  // Two whole frames in ONE send: both must decode (cursor advances).
  auto two = wire::encode_request(make_request(9001, payload));
  const auto second = wire::encode_request(make_request(9002, payload));
  two.insert(two.end(), second.begin(), second.end());
  ASSERT_TRUE(client.send_bytes(two));
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    wire::ResponseFrame resp;
    ASSERT_TRUE(client.next_response(resp));
    EXPECT_EQ(resp.status, Status::kOk);
    ids.insert(resp.request_id);
  }
  EXPECT_EQ(ids, (std::set<std::uint64_t>{9001, 9002}));
  EXPECT_EQ(frontend.stats().malformed, 0u);
}

// ---------------------------------------------------------- pipelining --

void run_pipelined_out_of_order(std::size_t event_loops) {
  GatewayConfig gcfg;
  Gateway gw(gcfg);
  ModelConfig mcfg;
  mcfg.server.max_batch = 1;  // no coalescing: each request served alone
  mcfg.server.batching_window_us = 0;
  mcfg.server.workers = 4;  // genuine reordering across workers
  gw.register_model("echo", delay_echo_handler(), mcfg);
  TcpFrontendConfig fcfg;
  fcfg.event_loops = event_loops;
  TcpFrontend frontend(gw, fcfg);

  constexpr std::size_t kInFlight = 48;
  TestClient client(frontend.port());
  // Earlier requests sleep longer: with 4 single-request workers the
  // completion order inverts relative to submission order.
  for (std::size_t i = 0; i < kInFlight; ++i) {
    Tensor t({2});
    t[0] = static_cast<double>((kInFlight - 1 - i) * 400);  // delay us
    t[1] = static_cast<double>(i);                          // identity
    ASSERT_TRUE(
        client.send_bytes(wire::encode_request(make_request(100 + i, t))));
  }
  std::map<std::uint64_t, wire::ResponseFrame> by_id;
  for (std::size_t i = 0; i < kInFlight; ++i) {
    wire::ResponseFrame resp;
    ASSERT_TRUE(client.next_response(resp));
    EXPECT_EQ(resp.status, Status::kOk);
    by_id[resp.request_id] = std::move(resp);
  }
  // Every request answered exactly once, matched SOLELY by echoed id:
  // the payload must be the one that travelled under that id. (Arrival
  // order is timing-dependent, so no particular order is asserted.)
  ASSERT_EQ(by_id.size(), kInFlight);
  for (std::size_t i = 0; i < kInFlight; ++i) {
    const auto it = by_id.find(100 + i);
    ASSERT_NE(it, by_id.end());
    ASSERT_EQ(it->second.tensor.size(), 2u);
    EXPECT_EQ(it->second.tensor[1], static_cast<double>(i));
  }
  EXPECT_EQ(frontend.stats().requests, kInFlight);
  // The counter lands on the worker thread just after the enqueue the
  // client's read raced ahead of: poll instead of asserting instantly.
  EXPECT_TRUE(
      wait_until([&] { return frontend.stats().responses == kInFlight; }));
}

TEST(TcpFrontend, PipelinedOutOfOrderResponsesMatchByIdSingleLoop) {
  run_pipelined_out_of_order(1);
}

TEST(TcpFrontend, PipelinedOutOfOrderResponsesMatchByIdTwoLoops) {
  run_pipelined_out_of_order(2);
}

// -------------------------------------------------------- backpressure --

TEST(TcpFrontend, WriteQueueOverflowKillsSlowClient) {
  Gateway gw;
  gw.register_model("echo", big_output_handler(8192));  // 64 KiB each
  TcpFrontendConfig fcfg;
  fcfg.max_write_queue_bytes = 128 * 1024;
  fcfg.write_stall_timeout_ms = 0;  // isolate the byte-cap path
  TcpFrontend frontend(gw, fcfg);

  // Tiny receive window + never reading: responses pool in the
  // frontend's outbound queue until the cap trips.
  TestClient client(frontend.port(), /*rcvbuf_bytes=*/4096);
  Tensor tiny({1});
  tiny[0] = 0.0;
  for (std::size_t i = 0; i < 64; ++i) {
    if (!client.send_bytes(wire::encode_request(make_request(i, tiny)))) {
      break;  // frontend already killed us mid-send: that's the point
    }
  }
  EXPECT_TRUE(wait_until(
      [&] { return frontend.stats().overflow_kills >= 1; },
      std::chrono::milliseconds(15000)))
      << "overflow_kills never incremented";
  EXPECT_TRUE(wait_until([&] { return frontend.open_connections() == 0; }));
  EXPECT_EQ(frontend.stats().stall_kills, 0u);
}

TEST(TcpFrontend, WriteStallTimeoutKillsStuckClient) {
  Gateway gw;
  gw.register_model("echo", big_output_handler(128 * 1024));  // 1 MiB each
  TcpFrontendConfig fcfg;
  fcfg.max_write_queue_bytes = std::size_t{1} << 30;  // cap out of the way
  fcfg.write_stall_timeout_ms = 200;
  TcpFrontend frontend(gw, fcfg);

  TestClient client(frontend.port(), /*rcvbuf_bytes=*/4096);
  Tensor tiny({1});
  tiny[0] = 0.0;
  for (std::size_t i = 0; i < 32; ++i) {
    if (!client.send_bytes(wire::encode_request(make_request(i, tiny)))) {
      break;
    }
  }
  EXPECT_TRUE(wait_until(
      [&] { return frontend.stats().stall_kills >= 1; },
      std::chrono::milliseconds(15000)))
      << "stall_kills never incremented";
  EXPECT_TRUE(wait_until([&] { return frontend.open_connections() == 0; }));
}

// ------------------------------------------------------------ shutdown --

TEST(TcpFrontend, GracefulShutdownFailsQueuedResponsesAndCloses) {
  Gateway gw;
  ModelConfig mcfg;
  mcfg.server.max_batch = 1;
  mcfg.server.batching_window_us = 0;
  gw.register_model("echo", delay_echo_handler(), mcfg);
  auto frontend = std::make_unique<TcpFrontend>(gw);

  constexpr std::size_t kInFlight = 8;
  TestClient client(frontend->port());
  for (std::size_t i = 0; i < kInFlight; ++i) {
    Tensor t({1});
    t[0] = 50'000.0;  // 50 ms service time each
    ASSERT_TRUE(
        client.send_bytes(wire::encode_request(make_request(i, t))));
  }
  ASSERT_TRUE(wait_until(
      [&] { return frontend->stats().requests == kInFlight; }));

  frontend->shutdown();  // requests still inside the gateway
  EXPECT_EQ(frontend->open_connections(), 0u);

  // The client observes the close promptly (EOF, no hang)...
  wire::ResponseFrame resp;
  while (client.next_response(resp)) {
  }
  // ...and once the gateway drains, every late completion lands in
  // dropped_responses instead of touching a dead socket.
  gw.shutdown();
  const auto stats = frontend->stats();
  EXPECT_EQ(stats.responses + stats.dropped_responses, kInFlight);
  EXPECT_GE(stats.dropped_responses, 1u);
  frontend.reset();  // double-shutdown stays idempotent
}

// ----------------------------------------------------------- wire unit --

// Body byte 7 of a request is reserved: the encoder writes 0 there and
// the decoder ignores whatever a peer sends in it.
TEST(Wire, RequestReservedByteIsIgnored) {
  Rng rng(5);
  wire::RequestFrame req;
  req.request_id = 11;
  req.cls = DeadlineClass::kBatch;
  req.deadline_us = 777;
  req.model_id = "m";
  req.tensor = Tensor::random_uniform({3}, 1.0, rng);
  auto bytes = wire::encode_request(req);
  constexpr std::size_t kReserved = 4 + 7;  // length prefix + body byte 7
  EXPECT_EQ(bytes[kReserved], 0u);

  bytes[kReserved] = 0x03;
  wire::RequestFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_request(bytes.data(), bytes.size(), out, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.cls, req.cls);
  EXPECT_EQ(out.deadline_us, req.deadline_us);
  EXPECT_EQ(out.model_id, req.model_id);
  ASSERT_EQ(out.tensor.shape(), req.tensor.shape());
  for (std::size_t k = 0; k < req.tensor.size(); ++k) {
    EXPECT_EQ(out.tensor[k], req.tensor[k]);
  }
}

// Tensor payloads are raw little-endian IEEE-754 doubles, whatever the
// host: pins the exact bytes of a known tensor in both frame types, and
// that they decode back to the same values.
TEST(Wire, TensorPayloadBytesArePinnedLittleEndian) {
  const Tensor t({2}, {1.0, -2.5});
  const std::vector<std::uint8_t> want = {
      1,    2,    0,    0,    0,                          // ndims, dim 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,     // 1.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xC0};    // -2.5
  const auto tail_of = [&](const std::vector<std::uint8_t>& frame) {
    return std::vector<std::uint8_t>(
        frame.end() - static_cast<std::ptrdiff_t>(want.size()), frame.end());
  };

  wire::RequestFrame req;
  req.request_id = 3;
  req.model_id = "m";
  req.tensor = t;
  const auto rbytes = wire::encode_request(req);
  EXPECT_EQ(tail_of(rbytes), want);
  wire::RequestFrame rout;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_request(rbytes.data(), rbytes.size(), rout, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(rout.tensor[0], 1.0);
  EXPECT_EQ(rout.tensor[1], -2.5);

  wire::ResponseFrame resp;
  resp.request_id = 3;
  resp.status = Status::kOk;
  resp.tensor = t;
  const auto sbytes = wire::encode_response(resp);
  EXPECT_EQ(tail_of(sbytes), want);
  wire::ResponseFrame sout;
  ASSERT_EQ(wire::decode_response(sbytes.data(), sbytes.size(), sout, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(sout.tensor[0], 1.0);
  EXPECT_EQ(sout.tensor[1], -2.5);
}

// The frame cap holds exactly at its boundary: a response body of
// kMaxFrameBytes - 3 bytes (37 header bytes + 2,097,147 doubles) encodes,
// and one more double throws instead of writing a wrong length prefix.
TEST(Wire, ResponseEncodeEnforcesTheFrameCapAtItsBoundary) {
  constexpr std::size_t kHeader = 4 + 1 + 1 + 1 + 1 + 8 + 8 + 8 + 1 + 4;
  constexpr std::size_t kFits = 2'097'147;
  static_assert(kHeader + 8 * kFits == 16'777'213);
  static_assert(kHeader + 8 * (kFits + 1) > wire::kMaxFrameBytes);
  wire::ResponseFrame resp;
  resp.request_id = 9;
  resp.status = Status::kOk;
  resp.tensor = Tensor({kFits});
  const auto frame = wire::encode_response(resp);
  ASSERT_EQ(frame.size(), 4 + kHeader + 8 * kFits);
  wire::ResponseFrame out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_response(frame.data(), frame.size(), out, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(out.tensor.size(), kFits);

  resp.tensor = Tensor({kFits + 1});
  EXPECT_THROW((void)wire::encode_response(resp), Error);
}

TEST(Wire, PingFrameRoundTripsAndRejectsTruncation) {
  for (const bool pong : {false, true}) {
    wire::PingFrame ping;
    ping.nonce = 0xFEEDFACE12345678ull;
    ping.pong = pong;
    const auto frame = wire::encode_ping(ping);

    std::uint8_t type = 0;
    ASSERT_EQ(wire::peek_type(frame.data(), frame.size(), type),
              wire::DecodeStatus::kOk);
    EXPECT_EQ(type, wire::kTypePing);

    // Every strict prefix: need-more-data, never a crash or bogus ok.
    wire::PingFrame out;
    std::size_t consumed = 0;
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      ASSERT_EQ(wire::decode_ping(frame.data(), cut, out, consumed),
                wire::DecodeStatus::kNeedMoreData)
          << "cut " << cut;
      ASSERT_EQ(consumed, 0u);
    }
    ASSERT_EQ(wire::decode_ping(frame.data(), frame.size(), out, consumed),
              wire::DecodeStatus::kOk);
    EXPECT_EQ(consumed, frame.size());
    EXPECT_EQ(out.nonce, ping.nonce);
    EXPECT_EQ(out.pong, ping.pong);
  }

  // An unknown kind byte is malformed but skippable (boundary known).
  auto bad = wire::encode_ping(wire::PingFrame{});
  bad[10] = 7;
  wire::PingFrame out;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::decode_ping(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);
  EXPECT_EQ(consumed, bad.size());

  // Trailing bytes inside the declared body are malformed too.
  bad = wire::encode_ping(wire::PingFrame{});
  bad[0] += 1;  // length low byte: body claims one extra byte...
  bad.push_back(0);  // ...and provides it
  EXPECT_EQ(wire::decode_ping(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);
  EXPECT_EQ(consumed, bad.size());
}

TEST(Wire, StatsFramesRoundTripAndRejectTruncation) {
  // The request flavor: just an id to echo.
  wire::StatsFrame req;
  req.request_id = 77;
  const auto reqf = wire::encode_stats(req);
  std::uint8_t type = 0;
  ASSERT_EQ(wire::peek_type(reqf.data(), reqf.size(), type),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(type, wire::kTypeStats);
  wire::StatsFrame out;
  std::size_t consumed = 0;
  for (std::size_t cut = 0; cut < reqf.size(); ++cut) {
    ASSERT_EQ(wire::decode_stats(reqf.data(), cut, out, consumed),
              wire::DecodeStatus::kNeedMoreData)
        << "cut " << cut;
    ASSERT_EQ(consumed, 0u);
  }
  ASSERT_EQ(wire::decode_stats(reqf.data(), reqf.size(), out, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(consumed, reqf.size());
  EXPECT_FALSE(out.response);
  EXPECT_EQ(out.request_id, 77u);

  // The response flavor: counters + the per-model digest.
  wire::StatsFrame resp;
  resp.response = true;
  resp.request_id = 78;
  resp.submitted = 100;
  resp.completed = 90;
  resp.rejected = 3;
  resp.deadline_exceeded = 2;
  resp.errors = 1;
  resp.invalid = 4;
  resp.queue_depth = 10;
  resp.canaries_sent = 42;
  resp.canary_failures = 6;
  resp.rewrites = 5;
  resp.rewrite_us_last = 1234;
  resp.models.push_back({"mlp-a", 128, 5, 60});
  resp.models.push_back({"mlp-b", 96, 2, 30});
  const auto respf = wire::encode_stats(resp);
  for (std::size_t cut = 0; cut < respf.size(); ++cut) {
    ASSERT_EQ(wire::decode_stats(respf.data(), cut, out, consumed),
              wire::DecodeStatus::kNeedMoreData)
        << "cut " << cut;
  }
  ASSERT_EQ(wire::decode_stats(respf.data(), respf.size(), out, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(consumed, respf.size());
  EXPECT_TRUE(out.response);
  EXPECT_EQ(out.request_id, 78u);
  EXPECT_EQ(out.submitted, 100u);
  EXPECT_EQ(out.completed, 90u);
  EXPECT_EQ(out.rejected, 3u);
  EXPECT_EQ(out.deadline_exceeded, 2u);
  EXPECT_EQ(out.errors, 1u);
  EXPECT_EQ(out.invalid, 4u);
  EXPECT_EQ(out.queue_depth, 10u);
  EXPECT_EQ(out.canaries_sent, 42u);
  EXPECT_EQ(out.canary_failures, 6u);
  EXPECT_EQ(out.rewrites, 5u);
  EXPECT_EQ(out.rewrite_us_last, 1234u);
  ASSERT_EQ(out.models.size(), 2u);
  EXPECT_EQ(out.models[0].id, "mlp-a");
  EXPECT_EQ(out.models[0].input_size, 128u);
  EXPECT_EQ(out.models[0].queue_depth, 5u);
  EXPECT_EQ(out.models[0].completed, 60u);
  EXPECT_EQ(out.models[1].id, "mlp-b");
  EXPECT_EQ(out.models[1].input_size, 96u);

  // Unknown kind byte: malformed, boundary known.
  auto bad = respf;
  bad[10] = 9;
  EXPECT_EQ(wire::decode_stats(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);
  EXPECT_EQ(consumed, bad.size());

  // A request body must end right after the id: trailing bytes reject.
  bad = reqf;
  bad[0] += 1;
  bad.push_back(0);
  EXPECT_EQ(wire::decode_stats(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);

  // Empty model id inside a response entry. 11 u64 counters precede the
  // model count: 7 since v2 plus the 4 drift counters v3 appended.
  bad = respf;
  const std::size_t first_id_len = 4 + 4 + 1 + 1 + 1 + 1 + 8 + 11 * 8 + 2;
  bad[first_id_len] = 0;
  bad[first_id_len + 1] = 0;
  EXPECT_EQ(wire::decode_stats(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);
  EXPECT_EQ(consumed, bad.size());
}

TEST(Wire, ModelAdminFramesRoundTripAndRejectTruncation) {
  // The request flavor: op + model id + file name.
  wire::ModelAdminFrame req;
  req.request_id = 55;
  req.op = wire::ModelAdminOp::kLoad;
  req.model_id = "tiny";
  req.file = "tiny.ebm";
  const auto reqf = wire::encode_model_admin(req);
  std::uint8_t type = 0;
  ASSERT_EQ(wire::peek_type(reqf.data(), reqf.size(), type),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(type, wire::kTypeModelAdmin);
  wire::ModelAdminFrame out;
  std::size_t consumed = 0;
  for (std::size_t cut = 0; cut < reqf.size(); ++cut) {
    ASSERT_EQ(wire::decode_model_admin(reqf.data(), cut, out, consumed),
              wire::DecodeStatus::kNeedMoreData)
        << "cut " << cut;
    ASSERT_EQ(consumed, 0u);
  }
  ASSERT_EQ(wire::decode_model_admin(reqf.data(), reqf.size(), out, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(consumed, reqf.size());
  EXPECT_FALSE(out.response);
  EXPECT_EQ(out.request_id, 55u);
  EXPECT_EQ(out.op, wire::ModelAdminOp::kLoad);
  EXPECT_EQ(out.model_id, "tiny");
  EXPECT_EQ(out.file, "tiny.ebm");

  // The response flavor: status + message + registry listing.
  wire::ModelAdminFrame resp;
  resp.response = true;
  resp.request_id = 56;
  resp.op = wire::ModelAdminOp::kList;
  resp.status = Status::kInvalidArgument;
  resp.message = "no model 'x' is registered";
  resp.models = {"mlp-a", "mlp-b", "tiny"};
  const auto respf = wire::encode_model_admin(resp);
  for (std::size_t cut = 0; cut < respf.size(); ++cut) {
    ASSERT_EQ(wire::decode_model_admin(respf.data(), cut, out, consumed),
              wire::DecodeStatus::kNeedMoreData)
        << "cut " << cut;
  }
  ASSERT_EQ(
      wire::decode_model_admin(respf.data(), respf.size(), out, consumed),
      wire::DecodeStatus::kOk);
  EXPECT_EQ(consumed, respf.size());
  EXPECT_TRUE(out.response);
  EXPECT_EQ(out.request_id, 56u);
  EXPECT_EQ(out.status, Status::kInvalidArgument);
  EXPECT_EQ(out.message, resp.message);
  ASSERT_EQ(out.models.size(), 3u);
  EXPECT_EQ(out.models[0], "mlp-a");
  EXPECT_EQ(out.models[2], "tiny");

  // Unknown kind byte: malformed, boundary known.
  auto bad = respf;
  bad[10] = 7;
  EXPECT_EQ(wire::decode_model_admin(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);
  EXPECT_EQ(consumed, bad.size());

  // Unknown op byte: malformed.
  bad = reqf;
  bad[11] = 9;
  EXPECT_EQ(wire::decode_model_admin(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);
  EXPECT_EQ(consumed, bad.size());

  // A request body must end right after the file name: trailing bytes
  // reject.
  bad = reqf;
  bad[0] += 1;
  bad.push_back(0);
  EXPECT_EQ(wire::decode_model_admin(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);

  // An empty model id inside a response listing is malformed. With every
  // string empty the first entry's u16 length sits at a fixed offset:
  // 10 header + kind + op + 8 id + 2 + 2 + status + 2 msg + 2 count.
  wire::ModelAdminFrame bare;
  bare.response = true;
  bare.op = wire::ModelAdminOp::kList;
  bare.models = {"m"};
  bad = wire::encode_model_admin(bare);
  const std::size_t entry_len = 10 + 1 + 1 + 8 + 2 + 2 + 1 + 2 + 2;
  bad[entry_len] = 0;
  bad[entry_len + 1] = 0;
  EXPECT_EQ(wire::decode_model_admin(bad.data(), bad.size(), out, consumed),
            wire::DecodeStatus::kMalformed);
  EXPECT_EQ(consumed, bad.size());
}

// ------------------------------------------------------- control frames --

// Raw frame-level client: unlike TestClient it hands back WHOLE frames
// of any type, so tests can watch control traffic (types 5/6) and the
// exact frames a response arrives in.
class RawFrameClient {
 public:
  explicit RawFrameClient(std::uint16_t port) : tc_(port) {}

  bool send_bytes(const std::vector<std::uint8_t>& bytes) {
    return tc_.send_bytes(bytes);
  }

  // Blocks until one whole frame is buffered; false on EOF/timeout.
  bool next_frame(std::uint8_t& type, std::vector<std::uint8_t>& frame) {
    std::uint8_t chunk[8192];
    for (;;) {
      const auto pt = wire::peek_type(buf_.data(), buf_.size(), type);
      if (pt == wire::DecodeStatus::kOk) {
        const std::size_t total =
            4 + (static_cast<std::size_t>(buf_[0]) |
                 static_cast<std::size_t>(buf_[1]) << 8 |
                 static_cast<std::size_t>(buf_[2]) << 16 |
                 static_cast<std::size_t>(buf_[3]) << 24);
        if (buf_.size() >= total) {
          frame.assign(buf_.begin(),
                       buf_.begin() + static_cast<std::ptrdiff_t>(total));
          buf_.erase(buf_.begin(),
                     buf_.begin() + static_cast<std::ptrdiff_t>(total));
          return true;
        }
      } else if (pt != wire::DecodeStatus::kNeedMoreData) {
        ADD_FAILURE() << "stream desync: " << wire::to_string(pt);
        return false;
      }
      const ssize_t k = tc_.raw_recv(chunk, sizeof(chunk));
      if (k <= 0) {
        return false;
      }
      buf_.insert(buf_.end(), chunk, chunk + k);
    }
  }

 private:
  TestClient tc_;
  std::vector<std::uint8_t> buf_;
};

TEST(TcpFrontend, AnswersPingInlineAheadOfSlowRequests) {
  Gateway gw;
  gw.register_model("echo", delay_echo_handler());
  TcpFrontend frontend(gw);
  RawFrameClient client(frontend.port());

  // A slow request first, then a ping: the pong must arrive FIRST --
  // control frames are answered on the loop thread and never queue
  // behind the gateway.
  Tensor slow({1});
  slow[0] = 200'000.0;  // 200 ms service time
  ASSERT_TRUE(
      client.send_bytes(wire::encode_request(make_request(1, slow))));
  wire::PingFrame ping;
  ping.nonce = 0xAB12CD34ull;
  ASSERT_TRUE(client.send_bytes(wire::encode_ping(ping)));

  std::uint8_t type = 0;
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(client.next_frame(type, frame));
  ASSERT_EQ(type, wire::kTypePing);
  wire::PingFrame pong;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_ping(frame.data(), frame.size(), pong, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_TRUE(pong.pong);
  EXPECT_EQ(pong.nonce, ping.nonce);

  ASSERT_TRUE(client.next_frame(type, frame));
  EXPECT_EQ(type, wire::kTypeResponse);
  EXPECT_EQ(frontend.stats().pings, 1u);
}

TEST(TcpFrontend, ServesStatsOverTheSocketAndSurvivesMalformedControl) {
  Gateway gw;
  gw.register_model("echo", echo_handler());
  TcpFrontend frontend(gw);
  RawFrameClient client(frontend.port());

  // Serve one request so the digest has something to report.
  Tensor payload({4});
  for (std::size_t i = 0; i < 4; ++i) {
    payload[i] = static_cast<double>(i);
  }
  ASSERT_TRUE(
      client.send_bytes(wire::encode_request(make_request(5, payload))));
  std::uint8_t type = 0;
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(client.next_frame(type, frame));
  ASSERT_EQ(type, wire::kTypeResponse);

  wire::StatsFrame ask;
  ask.request_id = 99;
  ASSERT_TRUE(client.send_bytes(wire::encode_stats(ask)));
  ASSERT_TRUE(client.next_frame(type, frame));
  ASSERT_EQ(type, wire::kTypeStats);
  wire::StatsFrame digest;
  std::size_t consumed = 0;
  ASSERT_EQ(
      wire::decode_stats(frame.data(), frame.size(), digest, consumed),
      wire::DecodeStatus::kOk);
  EXPECT_TRUE(digest.response);
  EXPECT_EQ(digest.request_id, 99u);
  EXPECT_EQ(digest.submitted, 1u);
  EXPECT_EQ(digest.completed, 1u);
  ASSERT_EQ(digest.models.size(), 1u);
  EXPECT_EQ(digest.models[0].id, "echo");
  EXPECT_EQ(digest.models[0].completed, 1u);

  // A malformed ping (unknown kind byte) is answered with an id-0
  // error and SKIPPED -- the connection stays usable.
  auto bad_ping = wire::encode_ping(wire::PingFrame{});
  bad_ping[10] = 7;
  ASSERT_TRUE(client.send_bytes(bad_ping));
  ASSERT_TRUE(client.next_frame(type, frame));
  ASSERT_EQ(type, wire::kTypeResponse);
  wire::ResponseFrame err;
  ASSERT_EQ(
      wire::decode_response(frame.data(), frame.size(), err, consumed),
      wire::DecodeStatus::kOk);
  EXPECT_EQ(err.request_id, 0u);
  EXPECT_EQ(err.status, Status::kInvalidArgument);

  ASSERT_TRUE(
      client.send_bytes(wire::encode_request(make_request(6, payload))));
  ASSERT_TRUE(client.next_frame(type, frame));
  EXPECT_EQ(type, wire::kTypeResponse);

  const auto stats = frontend.stats();
  EXPECT_EQ(stats.stats_requests, 1u);
  EXPECT_EQ(stats.malformed, 1u);
}

// Sends one type-7 request and blocks for the matching type-7 reply.
wire::ModelAdminFrame admin_round_trip(RawFrameClient& client,
                                       const wire::ModelAdminFrame& req) {
  EXPECT_TRUE(client.send_bytes(wire::encode_model_admin(req)));
  std::uint8_t type = 0;
  std::vector<std::uint8_t> frame;
  wire::ModelAdminFrame resp;
  EXPECT_TRUE(client.next_frame(type, frame));
  EXPECT_EQ(type, wire::kTypeModelAdmin);
  std::size_t consumed = 0;
  EXPECT_EQ(
      wire::decode_model_admin(frame.data(), frame.size(), resp, consumed),
      wire::DecodeStatus::kOk);
  EXPECT_TRUE(resp.response);
  EXPECT_EQ(resp.request_id, req.request_id);
  return resp;
}

// Hot-loads an .ebm file over the wire, serves it, lists it, unloads it
// -- the full model-administration lifecycle through a live frontend.
TEST(TcpFrontend, ModelAdminLoadServeListUnloadOverTheSocket) {
  const std::string dir = ::testing::TempDir() + "tcp_admin_models";
  std::filesystem::create_directories(dir);
  RngStream rng(31);
  const bnn::Network net = bnn::build_mlp("tiny", {16, 16, 8}, rng);
  bnn::save_network(net, dir + "/tiny.ebm");

  GatewayConfig gcfg;
  gcfg.model_dir = dir;
  Gateway gw(gcfg);
  gw.register_model("echo", echo_handler());
  TcpFrontend frontend(gw);
  RawFrameClient client(frontend.port());

  // Load: the model joins the registry listing in the ack.
  wire::ModelAdminFrame load;
  load.request_id = 1;
  load.op = wire::ModelAdminOp::kLoad;
  load.model_id = "tiny";
  load.file = "tiny.ebm";
  wire::ModelAdminFrame resp = admin_round_trip(client, load);
  EXPECT_EQ(resp.status, Status::kOk) << resp.message;
  EXPECT_EQ(resp.models, (std::vector<std::string>{"echo", "tiny"}));

  // The freshly loaded model serves -- and bit-identically to an
  // in-process forward of the same network.
  Rng in_rng(3);
  const Tensor x = Tensor::random_uniform({16}, 1.0, in_rng);
  const Tensor want = net.forward(x);
  wire::RequestFrame ask = make_request(2, x);
  ask.model_id = "tiny";
  ASSERT_TRUE(client.send_bytes(wire::encode_request(ask)));
  std::uint8_t type = 0;
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(client.next_frame(type, frame));
  ASSERT_EQ(type, wire::kTypeResponse);
  wire::ResponseFrame served;
  std::size_t consumed = 0;
  ASSERT_EQ(
      wire::decode_response(frame.data(), frame.size(), served, consumed),
      wire::DecodeStatus::kOk);
  ASSERT_EQ(served.status, Status::kOk);
  ASSERT_EQ(served.tensor.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(served.tensor[k], want[k]);
  }

  // List is read-only.
  wire::ModelAdminFrame list;
  list.request_id = 3;
  list.op = wire::ModelAdminOp::kList;
  resp = admin_round_trip(client, list);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.models, (std::vector<std::string>{"echo", "tiny"}));

  // A path-escaping file name is rejected without touching the registry.
  wire::ModelAdminFrame escape;
  escape.request_id = 4;
  escape.op = wire::ModelAdminOp::kLoad;
  escape.model_id = "evil";
  escape.file = "../tiny.ebm";
  resp = admin_round_trip(client, escape);
  EXPECT_EQ(resp.status, Status::kInvalidArgument);
  EXPECT_EQ(resp.models, (std::vector<std::string>{"echo", "tiny"}));

  // Unload removes it; unloading again reports the miss.
  wire::ModelAdminFrame unload;
  unload.request_id = 5;
  unload.op = wire::ModelAdminOp::kUnload;
  unload.model_id = "tiny";
  resp = admin_round_trip(client, unload);
  EXPECT_EQ(resp.status, Status::kOk) << resp.message;
  EXPECT_EQ(resp.models, (std::vector<std::string>{"echo"}));
  unload.request_id = 6;
  resp = admin_round_trip(client, unload);
  EXPECT_EQ(resp.status, Status::kInvalidArgument);

  EXPECT_EQ(frontend.stats().admin_requests, 5u);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- one response frame --

// A peer that sets bits in the request's reserved byte (0x02 once asked
// for a chunked stream) gets a 320 KB output back as ONE type-2 frame,
// byte-identical to the in-process answer.
TEST(TcpFrontend, ReservedRequestBitsStillGetOneWholeResponseFrame) {
  constexpr std::size_t kDim = 40'000;  // 320,000 payload bytes > 256 KiB
  Gateway gw;
  gw.register_model("echo", echo_handler());
  TcpFrontend frontend(gw);

  Rng rng(77);
  const Tensor payload = Tensor::random_uniform({kDim}, 1.0, rng);
  const Result want = gw.submit("echo", payload, DeadlineClass::kBatch,
                                kLongDeadlineUs)
                          .get();
  ASSERT_EQ(want.status, Status::kOk);

  RawFrameClient client(frontend.port());
  auto request = wire::encode_request(make_request(4242, payload));
  request[4 + 7] = 0x02;  // length prefix + body byte 7 (reserved)
  ASSERT_TRUE(client.send_bytes(request));
  std::uint8_t type = 0;
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(client.next_frame(type, frame));
  ASSERT_EQ(type, wire::kTypeResponse);
  wire::ResponseFrame resp;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_response(frame.data(), frame.size(), resp, consumed),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.request_id, 4242u);
  ASSERT_EQ(resp.tensor.shape(), want.output.shape());
  for (std::size_t k = 0; k < want.output.size(); ++k) {
    EXPECT_EQ(resp.tensor[k], want.output[k]);  // byte-identical
  }
  // That one frame is everything the frontend sent. Both counters land
  // just after the bytes the client already read: poll.
  EXPECT_TRUE(wait_until([&] { return frontend.stats().responses == 1; }));
  EXPECT_TRUE(wait_until(
      [&] { return frontend.stats().bytes_written == frame.size(); }));
}

// An output the wire cannot carry (one double over kMaxFrameBytes) comes
// back as an id-matched kInternalError with no payload, and the same
// connection serves the next request normally.
TEST(TcpFrontend, OversizeOutputDegradesToInternalErrorAndConnectionSurvives) {
  Gateway gw;
  gw.register_model("big", big_output_handler(wire::kMaxFrameBytes / 8 + 1));
  gw.register_model("echo", echo_handler());
  TcpFrontend frontend(gw);
  TestClient client(frontend.port());

  Tensor tiny({1});
  tiny[0] = 1.5;
  wire::RequestFrame big = make_request(7, tiny);
  big.model_id = "big";
  ASSERT_TRUE(client.send_bytes(wire::encode_request(big)));
  wire::ResponseFrame resp;
  ASSERT_TRUE(client.next_response(resp));
  EXPECT_EQ(resp.request_id, 7u);
  EXPECT_EQ(resp.status, Status::kInternalError);
  EXPECT_EQ(resp.tensor.size(), 0u);

  ASSERT_TRUE(client.send_bytes(wire::encode_request(make_request(8, tiny))));
  ASSERT_TRUE(client.next_response(resp));
  EXPECT_EQ(resp.request_id, 8u);
  EXPECT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.tensor.size(), 1u);
  EXPECT_EQ(resp.tensor[0], 1.5);
  EXPECT_EQ(frontend.stats().malformed, 0u);
}

}  // namespace
}  // namespace eb
