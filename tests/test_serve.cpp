// Serving-layer suite: serve::Server's dynamic batching policy, deadline
// budgets, drain semantics and metrics, plus the shared-pool plumbing it
// rides on (BatchRunner external-pool mode, TacitMapElectrical batch
// execution).
//
// Contracts under test:
//  * concurrent submit() from many threads is loss-free and every output
//    is bit-identical to the per-sample reference path, no matter how the
//    requests were coalesced into batches;
//  * with no window set, a free worker takes what is queued at once, and
//    batches fill only while workers are busy; with a window set, a batch
//    closes at max_batch or when the oldest member's window expires,
//    whichever first -- and window 0 means singleton batches;
//  * the per-class lanes share batch slots in weight proportion, and a
//    window counts arrivals across lanes;
//  * expired requests complete with kDeadlineExceeded, never dropped;
//  * shutdown() drains: every accepted request's future is fulfilled;
//  * the whole suite is run by CI under EB_THREADS=1 and 4 and under
//    ThreadSanitizer (the queue is the first real producer/consumer path).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bnn/batch_runner.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "bnn/tensor.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "mapping/custbinarymap.hpp"
#include "mapping/executor.hpp"
#include "mapping/tacitmap.hpp"
#include "mapping/task.hpp"
#include "serve/mapped_backend.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"

namespace eb {
namespace {

using bnn::Network;
using bnn::Tensor;
using serve::Result;
using serve::Server;
using serve::ServerConfig;
using serve::Status;

constexpr std::size_t kInputDim = 64;

Network make_net() {
  Rng rng(7);
  return bnn::build_mlp("serve-test", {kInputDim, 96, 48, 10}, rng);
}

std::vector<Tensor> make_inputs(std::size_t n) {
  Rng rng(11);
  std::vector<Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Tensor::random_uniform({kInputDim}, 1.0, rng));
  }
  return inputs;
}

void expect_tensors_equal(const Tensor& got, const Tensor& want,
                          std::size_t sample) {
  ASSERT_EQ(got.size(), want.size()) << "sample " << sample;
  for (std::size_t k = 0; k < got.size(); ++k) {
    // Bit-identical, not approximately equal: the serving path must run
    // the very same kernels as the reference path.
    EXPECT_EQ(got[k], want[k]) << "sample " << sample << " elem " << k;
  }
}

// ------------------------------------------------------------ percentile --

TEST(Percentile, NearestRank) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) {
    xs.push_back(i);
  }
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(serve::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(serve::percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, SingleSampleWindowReturnsThatSample) {
  // Regression: every percentile of a one-sample window is that sample --
  // the nearest rank must clamp into [1, n], never index past the end.
  for (const double pct : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(serve::percentile({42.5}, pct), 42.5) << pct;
  }
  // And a Metrics window holding one completed request reports it as
  // every latency statistic.
  serve::Metrics m;
  m.record_completed(123.0);
  const auto s = m.snapshot(0);
  EXPECT_DOUBLE_EQ(s.latency_p50_us, 123.0);
  EXPECT_DOUBLE_EQ(s.latency_p95_us, 123.0);
  EXPECT_DOUBLE_EQ(s.latency_p99_us, 123.0);
  EXPECT_DOUBLE_EQ(s.latency_max_us, 123.0);
}

TEST(Percentile, NearestRankResistsFloatRoundUp) {
  // 0.95 * 20 evaluates to 19.000000000000004 in binary floating point;
  // ceil of the raw product would skip rank 19 (sample 19.0) for rank 20.
  std::vector<double> xs;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
  }
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 95.0), 19.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 100.0), 20.0);
}

// ----------------------------------------------------------- basic serve --

TEST(Server, SingleRequestMatchesForward) {
  const Network net = make_net();
  const auto inputs = make_inputs(1);
  ServerConfig cfg;
  cfg.batching_window_us = 0;  // serve immediately
  cfg.workers = 1;
  Server server(net, cfg);
  auto fut = server.submit(inputs[0]);
  const Result res = fut.get();
  ASSERT_EQ(res.status, Status::kOk) << to_string(res.status);
  EXPECT_EQ(res.batch_size, 1u);
  EXPECT_GE(res.total_us, res.queue_us);
  expect_tensors_equal(res.output, net.forward(inputs[0]), 0);
}

TEST(Server, ConcurrentSubmitIsLossFreeAndBitIdentical) {
  const Network net = make_net();
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 24;
  const auto inputs = make_inputs(kClients * kPerClient);

  // Reference outputs from the per-sample path.
  std::vector<Tensor> want;
  want.reserve(inputs.size());
  for (const auto& in : inputs) {
    want.push_back(net.forward(in));
  }

  ServerConfig cfg;
  cfg.max_batch = 16;
  cfg.batching_window_us = 500;
  cfg.workers = 3;
  cfg.pool_threads = 0;  // EB_THREADS-controlled: CI sweeps 1 and 4
  Server server(net, cfg);

  std::vector<std::future<Result>> futures(inputs.size());
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t idx = c * kPerClient + i;
        futures[idx] = server.submit(inputs[idx]);
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Result res = futures[i].get();
    ASSERT_EQ(res.status, Status::kOk)
        << "sample " << i << ": " << to_string(res.status);
    ASSERT_GE(res.batch_size, 1u);
    ASSERT_LE(res.batch_size, cfg.max_batch);
    expect_tensors_equal(res.output, want[i], i);
  }

  const auto m = server.metrics();
  EXPECT_EQ(m.submitted, inputs.size());
  EXPECT_EQ(m.completed, inputs.size());
  EXPECT_EQ(m.deadline_exceeded, 0u);
  EXPECT_EQ(m.rejected, 0u);
}

// -------------------------------------------------------- batching policy --

TEST(Server, FullBatchClosesBeforeWindowExpires) {
  const Network net = make_net();
  const auto inputs = make_inputs(4);
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batching_window_us = 10'000'000;  // 10 s: only max_batch can close it
  cfg.workers = 1;
  const auto t0 = std::chrono::steady_clock::now();
  Server server(net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(server.submit(in));
  }
  for (auto& f : futures) {
    const Result res = f.get();
    ASSERT_EQ(res.status, Status::kOk);
    EXPECT_EQ(res.batch_size, 4u);  // one full batch, not four singletons
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed_s, 5.0);  // nowhere near the 10 s window
}

TEST(Server, WindowExpiryDispatchesPartialBatch) {
  const Network net = make_net();
  const auto inputs = make_inputs(3);
  // Virtual time: the 50 ms window expires because the test advances the
  // clock, not because anything sleeps 50 ms.
  VirtualClock vclock;
  ServerConfig cfg;
  cfg.max_batch = 64;
  cfg.batching_window_us = 50'000;  // 50 ms (virtual)
  cfg.workers = 1;
  cfg.clock = &vclock;
  Server server(net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(server.submit(in));
  }
  vclock.advance_us(50'000);  // expire the window
  for (auto& f : futures) {
    const Result res = f.get();
    ASSERT_EQ(res.status, Status::kOk);
    // The window closed the batch well short of max_batch, with every
    // request that arrived inside it on board.
    EXPECT_EQ(res.batch_size, 3u);
    // Latencies are measured on the injected clock: the batch formed
    // exactly one (virtual) window after enqueue.
    EXPECT_GE(res.queue_us, 50'000.0);
  }
}

TEST(Server, ZeroWindowServesSingletonBatches) {
  const Network net = make_net();
  const auto inputs = make_inputs(6);
  ServerConfig cfg;
  cfg.max_batch = 64;
  cfg.batching_window_us = 0;  // no coalescing
  cfg.workers = 1;
  Server server(net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(server.submit(in));
  }
  for (auto& f : futures) {
    const Result res = f.get();
    ASSERT_EQ(res.status, Status::kOk);
    EXPECT_EQ(res.batch_size, 1u);
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.batches, 6u);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 1.0);
}

// Work-conserving policy (batching_window_us unset). Both tests run on a
// frozen VirtualClock: a server that waited for any window would never
// dispatch, and the real-time wait_for guards turn that into a failure
// rather than a hang.

constexpr auto kGuard = std::chrono::seconds(30);

bool ready_within_guard(std::future<Result>& f) {
  return f.wait_for(kGuard) == std::future_status::ready;
}

TEST(Server, UnsetWindowServesALoneRequestAtOnce) {
  const Network net = make_net();
  const auto inputs = make_inputs(1);
  VirtualClock vclock;
  ServerConfig cfg;  // batching_window_us unset: work-conserving
  cfg.workers = 1;
  cfg.clock = &vclock;
  Server server(net, cfg);
  auto fut = server.submit(inputs[0]);
  ASSERT_TRUE(ready_within_guard(fut)) << "an idle worker waited";
  const Result res = fut.get();
  ASSERT_EQ(res.status, Status::kOk);
  EXPECT_EQ(res.queue_us, 0.0);  // no virtual time passed: no wait at all
  EXPECT_EQ(res.batch_size, 1u);
  expect_tensors_equal(res.output, net.forward(inputs[0]), 0);
}

// A latch a handler parks on until the test opens it.
class Gate {
 public:
  void open() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(Server, UnsetWindowBatchesOnlyWhileTheWorkerIsBusy) {
  constexpr std::size_t kMaxBatch = 4;
  constexpr std::size_t kWhileBusy = 6;
  VirtualClock vclock;
  Gate gate;
  std::promise<void> entered;
  std::atomic<bool> first_call{true};
  ServerConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.workers = 1;
  cfg.clock = &vclock;
  Server server(
      [&gate, &entered, &first_call](std::span<const Tensor> batch,
                                     ThreadPool&) -> std::vector<Tensor> {
        if (first_call.exchange(false)) {
          entered.set_value();
          gate.wait();
        }
        return {batch.begin(), batch.end()};
      },
      cfg);

  auto first = server.submit(Tensor({1}));
  const bool ran = entered.get_future().wait_for(kGuard) ==
                   std::future_status::ready;
  EXPECT_TRUE(ran) << "the first request did not start on an idle worker";
  std::vector<std::future<Result>> queued;
  for (std::size_t i = 0; i < kWhileBusy; ++i) {
    queued.push_back(server.submit(Tensor({1})));
  }
  // Opened before any assertion can return, so the destructor's drain
  // never parks in the handler.
  gate.open();
  if (!ran) {
    return;
  }
  ASSERT_TRUE(ready_within_guard(first));
  EXPECT_EQ(first.get().batch_size, 1u);  // alone: nothing else was queued
  // Everything that arrived while the worker was busy forms one full
  // batch; the remainder forms the next.
  for (std::size_t i = 0; i < queued.size(); ++i) {
    ASSERT_TRUE(ready_within_guard(queued[i])) << i;
    const Result res = queued[i].get();
    ASSERT_EQ(res.status, Status::kOk) << i;
    EXPECT_EQ(res.batch_size,
              i < kMaxBatch ? kMaxBatch : kWhileBusy - kMaxBatch)
        << i;
    EXPECT_EQ(res.queue_us, 0.0) << i;
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.batches, 3u);
}

// ---------------------------------------------------------- class lanes --

using serve::DeadlineClass;

// Submits a request on lane `cls`, tagged with its lane so a handler can
// tell the lanes apart; the future resolves with its Result.
std::future<Result> submit_on_lane(Server& server, DeadlineClass cls) {
  auto p = std::make_shared<std::promise<Result>>();
  auto fut = p->get_future();
  server.submit_async(Tensor({1}, {static_cast<double>(cls)}), 0,
                      [p](Result r) { p->set_value(std::move(r)); }, cls);
  return fut;
}

// One worker whose first batch parks on `gate`: requests submitted while
// it is parked all wait in the lanes, and each later batch is recorded
// as the lane tags of its members.
struct ParkedLaneServer {
  explicit ParkedLaneServer(ServerConfig cfg)
      : server(
            [this](std::span<const Tensor> batch,
                   ThreadPool&) -> std::vector<Tensor> {
              if (first_call.exchange(false)) {
                entered.set_value();
                gate.wait();
              } else {
                std::vector<DeadlineClass> tags;
                for (const Tensor& t : batch) {
                  tags.push_back(
                      static_cast<DeadlineClass>(static_cast<int>(t[0])));
                }
                const std::lock_guard<std::mutex> lock(mu);
                batches.push_back(std::move(tags));
              }
              return {batch.begin(), batch.end()};
            },
            cfg) {}

  // Parks the worker on a plug request; false if it never started.
  bool park() {
    plug = server.submit(Tensor({1}));
    return entered.get_future().wait_for(kGuard) == std::future_status::ready;
  }

  // Queues `per_lane` requests on each of the interactive and batch
  // lanes, alternately.
  std::vector<std::future<Result>> preload(std::size_t per_lane) {
    std::vector<std::future<Result>> futs;
    for (std::size_t i = 0; i < per_lane; ++i) {
      for (const auto cls :
           {DeadlineClass::kInteractive, DeadlineClass::kBatch}) {
        futs.push_back(submit_on_lane(server, cls));
      }
    }
    return futs;
  }

  Gate gate;
  std::promise<void> entered;
  std::atomic<bool> first_call{true};
  std::mutex mu;
  std::vector<std::vector<DeadlineClass>> batches;
  std::future<Result> plug;
  Server server;  // last: its workers stop before the members above go
};

ServerConfig lane_config(std::size_t max_batch) {
  ServerConfig cfg;
  cfg.max_batch = max_batch;
  cfg.workers = 1;
  cfg.class_weights = {3.0, 1.0, 1.0};
  return cfg;
}

TEST(Server, ClassLanesServeBackloggedClassesInWeightProportion) {
  constexpr std::size_t kPerLane = 40;
  ServerConfig cfg = lane_config(1);
  cfg.batching_window_us = 0;
  ParkedLaneServer s(cfg);
  const bool parked = s.park();
  auto futs = s.preload(kPerLane);
  s.gate.open();
  ASSERT_TRUE(parked) << "the plug request did not start";
  for (auto& f : futs) {
    ASSERT_TRUE(ready_within_guard(f));
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  // Both lanes stay backlogged for the first kPerLane services (the
  // interactive lane alone cannot drain sooner): weights 3:1 split them
  // exactly 3:1.
  ASSERT_EQ(s.batches.size(), 2 * kPerLane);
  std::size_t interactive = 0;
  for (std::size_t i = 0; i < kPerLane; ++i) {
    ASSERT_EQ(s.batches[i].size(), 1u);
    interactive += s.batches[i][0] == DeadlineClass::kInteractive ? 1 : 0;
  }
  EXPECT_EQ(interactive, kPerLane * 3 / 4);
}

TEST(Server, WorkConservingBatchesTakeTheirMembersByWeight) {
  ParkedLaneServer s(lane_config(8));  // window unset: work-conserving
  const bool parked = s.park();
  auto futs = s.preload(8);
  s.gate.open();
  ASSERT_TRUE(parked) << "the plug request did not start";
  for (auto& f : futs) {
    ASSERT_TRUE(ready_within_guard(f));
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  ASSERT_GE(s.batches.size(), 1u);
  const auto& first = s.batches[0];
  ASSERT_EQ(first.size(), 8u);
  const auto interactive = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), DeadlineClass::kInteractive));
  EXPECT_EQ(interactive, 6u);
  EXPECT_EQ(first.size() - interactive, 2u);
}

TEST(Server, WindowCountsArrivalsAcrossLanes) {
  VirtualClock vclock;
  ServerConfig cfg;
  cfg.max_batch = 64;
  cfg.batching_window_us = 50'000;  // 50 ms (virtual)
  cfg.workers = 1;
  cfg.clock = &vclock;
  Server server(
      [](std::span<const Tensor> batch, ThreadPool&) -> std::vector<Tensor> {
        return {batch.begin(), batch.end()};
      },
      cfg);
  std::vector<std::future<Result>> futs;
  for (const auto cls : {DeadlineClass::kInteractive, DeadlineClass::kBatch,
                         DeadlineClass::kInteractive}) {
    futs.push_back(submit_on_lane(server, cls));
  }
  vclock.advance_us(50'000);  // expire the anchor's window
  for (auto& f : futs) {
    ASSERT_TRUE(ready_within_guard(f));
    const Result res = f.get();
    ASSERT_EQ(res.status, Status::kOk);
    EXPECT_EQ(res.batch_size, 3u);  // one batch across both lanes
    EXPECT_GE(res.queue_us, 50'000.0);
  }
}

// ------------------------------------------------------ deadlines / drain --

TEST(Server, ExpiredRequestsCompleteWithDeadlineExceeded) {
  const Network net = make_net();
  const auto inputs = make_inputs(8);
  VirtualClock vclock;
  ServerConfig cfg;
  cfg.max_batch = 1024;
  cfg.batching_window_us = 30'000;  // 30 ms window...
  cfg.workers = 1;
  cfg.clock = &vclock;
  Server server(net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(server.submit(in, /*deadline_us=*/1000));  // ...1 ms
  }
  // One virtual step past the window: every deadline (1 ms) expired long
  // before the batch could form at the 30 ms mark.
  vclock.advance_us(30'000);
  for (auto& f : futures) {
    const Result res = f.get();  // fulfilled, not dropped
    EXPECT_EQ(res.status, Status::kDeadlineExceeded);
    EXPECT_EQ(res.output.size(), 0u);
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.deadline_exceeded, 8u);
  EXPECT_EQ(m.completed, 0u);
}

TEST(Server, ShutdownDrainsEveryAcceptedRequest) {
  const Network net = make_net();
  const auto inputs = make_inputs(50);
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.batching_window_us = 1'000'000;  // 1 s: drain must not wait for it
  cfg.workers = 2;
  Server server(net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(server.submit(in));
  }
  server.shutdown();  // returns only after the queue is drained
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Result res = futures[i].get();
    EXPECT_EQ(res.status, Status::kOk) << "sample " << i;
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.completed, 50u);
  EXPECT_EQ(m.queue_depth, 0u);
}

TEST(Server, SubmitAfterShutdownIsRejected) {
  const Network net = make_net();
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(net, cfg);
  server.shutdown();
  auto fut = server.submit(make_inputs(1)[0]);
  EXPECT_EQ(fut.get().status, Status::kRejected);
  EXPECT_EQ(server.metrics().rejected, 1u);
}

TEST(Server, SubmitAsyncDeliversCallbackOnExternalSharedPool) {
  const Network net = make_net();
  const auto inputs = make_inputs(12);
  ThreadPool shared_pool(2);
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batching_window_us = 300;
  cfg.workers = 2;
  Server server(net, shared_pool, cfg);  // shared-pool ctor
  EXPECT_EQ(&server.pool(), &shared_pool);

  std::mutex mu;
  std::vector<std::pair<std::size_t, Result>> got;
  std::condition_variable cv;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    server.submit_async(inputs[i], /*deadline_us=*/0, [&, i](Result r) {
      const std::lock_guard<std::mutex> lock(mu);
      got.emplace_back(i, std::move(r));
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return got.size() == inputs.size(); }));
  }
  for (const auto& [i, res] : got) {
    ASSERT_EQ(res.status, Status::kOk) << "sample " << i;
    expect_tensors_equal(res.output, net.forward(inputs[i]), i);
  }
}

TEST(Server, CallbackModeHandlerExceptionBecomesInternalError) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.batching_window_us = 0;
  Server server(
      [](std::span<const Tensor>, ThreadPool&) -> std::vector<Tensor> {
        throw std::runtime_error("backend exploded");
      },
      cfg);
  std::promise<Result> done;
  server.submit_async(make_inputs(1)[0], 0,
                      [&](Result r) { done.set_value(std::move(r)); });
  EXPECT_EQ(done.get_future().get().status, Status::kInternalError);
  // Future mode still carries the exception itself.
  auto fut = server.submit(make_inputs(1)[0]);
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(Server, QueueCapacityAppliesBackpressure) {
  const Network net = make_net();
  const auto inputs = make_inputs(6);
  // Virtual clock: the 2 s window never ticks, so the queue provably
  // backs up until shutdown() drains it.
  VirtualClock vclock;
  ServerConfig cfg;
  cfg.max_batch = 64;
  cfg.batching_window_us = 2'000'000;  // 2 s: requests sit in the queue
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  cfg.clock = &vclock;
  Server server(net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(server.submit(in));
  }
  server.shutdown();  // drains the 4 accepted ones immediately
  std::size_t ok = 0;
  std::size_t rejected = 0;
  for (auto& f : futures) {
    const Result res = f.get();
    if (res.status == Status::kOk) {
      ++ok;
    } else if (res.status == Status::kRejected) {
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(rejected, 2u);
}

// ---------------------------------------------------------------- metrics --

TEST(Server, MetricsSnapshotIsConsistent) {
  const Network net = make_net();
  const auto inputs = make_inputs(40);
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.batching_window_us = 300;
  cfg.workers = 2;
  Server server(net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(server.submit(in));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, Status::kOk);
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.submitted, 40u);
  EXPECT_EQ(m.completed, 40u);
  EXPECT_GE(m.batches, (40u + cfg.max_batch - 1) / cfg.max_batch);
  EXPECT_LE(m.batches, 40u);
  EXPECT_LE(m.latency_p50_us, m.latency_p95_us);
  EXPECT_LE(m.latency_p95_us, m.latency_p99_us);
  EXPECT_LE(m.latency_p99_us, m.latency_max_us);
  EXPECT_GT(m.latency_mean_us, 0.0);
  EXPECT_GT(m.throughput_rps, 0.0);
  EXPECT_GE(m.mean_batch_size, 1.0);
  EXPECT_GE(m.peak_queue_depth, 1u);
  std::size_t hist_batches = 0;
  std::size_t hist_requests = 0;
  for (std::size_t k = 0; k < m.batch_size_hist.size(); ++k) {
    hist_batches += m.batch_size_hist[k];
    hist_requests += k * m.batch_size_hist[k];
  }
  EXPECT_EQ(hist_batches, m.batches);
  EXPECT_EQ(hist_requests, m.completed);  // no deadline losses here
  EXPECT_FALSE(m.summary().empty());
}

// ------------------------------------------- shared-pool / mapped backend --

TEST(TacitMapElectrical, ExecuteBatchBitIdenticalToSerialLoop) {
  Rng task_rng(21);
  const auto task = map::XnorPopcountTask::random(96, 100, 8, task_rng);
  map::TacitElectricalConfig cfg;
  cfg.dims = {64, 64};  // 3 row segments x 2 col tiles = 6 shards
  const map::TacitMapElectrical mapped(task.weights, cfg);
  const dev::GaussianReadNoise noise(0.05);

  RngStream rng_serial(123);
  std::vector<std::vector<std::size_t>> want;
  want.reserve(task.inputs.size());
  for (const auto& x : task.inputs) {
    want.push_back(mapped.execute(x, noise, rng_serial));
  }

  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(width);
    RngStream rng_batch(123);
    const auto got = mapped.execute_batch(task.inputs, noise, rng_batch,
                                          &pool);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "input " << i << " width " << width;
    }
  }
}

// Drives a mapped executor through serve::make_mapped_handler (the
// MappedExecutor -> BatchHandler adapter): request fan-out, WDM passes and
// nested crossbar shards all share the server's one re-entrant pool, and
// with zero noise every served popcount equals the reference regardless of
// batching, worker count or backend.
void serve_mapped_round_trip(
    std::shared_ptr<const map::MappedExecutor> mapped,
    const map::XnorPopcountTask& task, std::size_t max_batch,
    std::size_t workers) {
  const auto want = task.reference();
  const std::size_t m = task.m();

  ServerConfig cfg;
  cfg.max_batch = max_batch;
  cfg.batching_window_us = 500;
  cfg.workers = workers;  // the handler locks its stream: multi-worker safe
  cfg.pool_threads = 0;   // EB_THREADS-controlled: CI sweeps 1 and 4
  Server server(
      serve::make_mapped_handler(std::move(mapped),
                                 std::make_shared<dev::NoNoise>()),
      cfg);

  std::vector<std::future<Result>> futures;
  for (const auto& x : task.inputs) {
    Tensor t({m});
    for (std::size_t k = 0; k < m; ++k) {
      t[k] = x.get(k) ? 1.0 : 0.0;
    }
    futures.push_back(server.submit(std::move(t)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Result res = futures[i].get();
    ASSERT_EQ(res.status, Status::kOk) << "input " << i;
    ASSERT_EQ(res.output.size(), want[i].size());
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(res.output[j], static_cast<double>(want[i][j]))
          << "input " << i << " column " << j;
    }
  }
}

TEST(Server, MappedBackendServesBitExactPopcounts) {
  Rng task_rng(33);
  const auto task = map::XnorPopcountTask::random(96, 100, 12, task_rng);
  map::TacitElectricalConfig mcfg;
  mcfg.dims = {64, 64};
  serve_mapped_round_trip(
      std::make_shared<map::TacitMapElectrical>(task.weights, mcfg), task,
      /*max_batch=*/4, /*workers=*/1);
}

TEST(Server, OpticalBackendServesBitExactPopcounts) {
  // WDM-aware serving: max_batch exceeds wdm_capacity, so a full batch
  // spans several WDM passes inside one execute_batch call; two workers
  // exercise the handler's locked stream.
  Rng task_rng(34);
  const auto task = map::XnorPopcountTask::random(96, 80, 12, task_rng);
  map::TacitOpticalConfig mcfg;
  mcfg.dims = {64, 64};
  mcfg.wdm_capacity = 4;
  serve_mapped_round_trip(
      std::make_shared<map::TacitMapOptical>(task.weights, mcfg), task,
      /*max_batch=*/6, /*workers=*/2);
}

TEST(Server, CustBackendServesBitExactPopcounts) {
  Rng task_rng(35);
  const auto task = map::XnorPopcountTask::random(64, 48, 8, task_rng);
  map::CustBinaryConfig ccfg;
  ccfg.rows = 32;
  ccfg.pairs = 32;
  serve_mapped_round_trip(
      std::make_shared<map::CustBinaryMap>(task.weights, ccfg), task,
      /*max_batch=*/4, /*workers=*/2);
}

TEST(BatchRunner, ConcurrentRunnersOnOneSharedPoolAreRaceFree) {
  const Network net = make_net();
  const auto inputs = make_inputs(48);
  std::vector<Tensor> want;
  want.reserve(inputs.size());
  for (const auto& in : inputs) {
    want.push_back(net.forward(in));
  }

  ThreadPool pool(4);
  bnn::BatchRunnerConfig rcfg;
  rcfg.batch_size = 16;
  const bnn::BatchRunner a(net, pool, rcfg);
  const bnn::BatchRunner b(net, pool, rcfg);

  std::vector<Tensor> out_a;
  std::vector<Tensor> out_b;
  std::thread ta([&] { out_a = a.forward_all(inputs); });
  std::thread tb([&] { out_b = b.forward_all(inputs); });
  ta.join();
  tb.join();

  ASSERT_EQ(out_a.size(), inputs.size());
  ASSERT_EQ(out_b.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_tensors_equal(out_a[i], want[i], i);
    expect_tensors_equal(out_b[i], want[i], i);
  }
  // last_stats() is a locked copy now: both runs completed, so both slots
  // hold full-run stats.
  EXPECT_EQ(a.last_stats().samples, inputs.size());
  EXPECT_EQ(b.last_stats().samples, inputs.size());
  EXPECT_EQ(a.last_stats().batches, 3u);
}

}  // namespace
}  // namespace eb
