// Gateway suite: the multi-model registry, the weighted deadline-class
// scheduler, the framed wire protocol and the loopback TCP frontend.
//
// Contracts under test:
//  * routing -- two models served concurrently over ONE shared pool are
//    bit-identical to serving each alone (net.forward reference);
//  * weighted fairness -- with class weights 3:1 under saturation the
//    admitted-throughput ratio lands within 20% of 3:1 (deterministic at
//    the WeightedDrrQueue level, statistically end to end);
//  * class deadlines -- a class's default deadline applies when submit
//    passes none, and expiries surface as kDeadlineExceeded, never drops;
//  * registry churn -- register/unregister while traffic is in flight
//    loses no futures; an unregistered model resolves kRejected;
//  * wire -- encode/decode round-trips byte-exactly, malformed and
//    truncated frames are rejected with the right status and never crash
//    the frontend;
//  * TCP loopback -- responses are byte-identical to in-process
//    Gateway::submit results.
//
// CI runs this suite under ASan/UBSan and TSan at EB_THREADS=1 and 4.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "bnn/tensor.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mapping/task.hpp"
#include "serve/gateway.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/tcp_frontend.hpp"
#include "serve/wire.hpp"

namespace eb {
namespace {

using bnn::Network;
using bnn::Tensor;
using serve::DeadlineClass;
using serve::Gateway;
using serve::GatewayConfig;
using serve::ModelConfig;
using serve::Result;
using serve::Status;
using serve::TcpFrontend;
using serve::WeightedDrrQueue;
namespace wire = serve::wire;

constexpr std::size_t kDimA = 48;
constexpr std::size_t kDimB = 32;

Network make_net_a() {
  Rng rng(7);
  return bnn::build_mlp("gw-a", {kDimA, 64, 10}, rng);
}

Network make_net_b() {
  Rng rng(9);
  return bnn::build_mlp("gw-b", {kDimB, 48, 8}, rng);
}

std::vector<Tensor> make_inputs(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Tensor::random_uniform({dim}, 1.0, rng));
  }
  return inputs;
}

void expect_tensors_equal(const Tensor& got, const Tensor& want,
                          std::size_t sample) {
  ASSERT_EQ(got.size(), want.size()) << "sample " << sample;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << "sample " << sample << " elem " << k;
  }
}

// --------------------------------------------------------- deadline class --

TEST(DeadlineClass, NamesRoundTrip) {
  for (const auto c :
       {DeadlineClass::kInteractive, DeadlineClass::kBatch,
        DeadlineClass::kBestEffort}) {
    EXPECT_EQ(serve::parse_deadline_class(serve::to_string(c)), c);
  }
  EXPECT_THROW(static_cast<void>(serve::parse_deadline_class("turbo")),
               Error);
  const auto defaults = serve::default_class_configs();
  EXPECT_GT(defaults[0].weight, defaults[1].weight);
  EXPECT_GT(defaults[1].weight, defaults[2].weight);
}

// ------------------------------------------------------------ DRR fairness --

TEST(WeightedDrrQueue, DrainsBacklogInWeightProportion) {
  WeightedDrrQueue<int> drr;
  const std::size_t a = drr.add_queue(3.0);
  const std::size_t b = drr.add_queue(1.0);
  for (int i = 0; i < 400; ++i) {
    drr.push(a, i);
    drr.push(b, i);
  }
  // Both queues stay backlogged for the first 200 pops: the pop stream
  // must interleave them 3:1 in every aligned window of 4.
  std::size_t from_a = 0;
  for (int i = 0; i < 200; ++i) {
    auto popped = drr.pop_next();
    ASSERT_TRUE(popped.has_value());
    from_a += popped->first == a ? 1 : 0;
  }
  EXPECT_EQ(from_a, 150u);  // exactly 3:1 under sustained backlog
  EXPECT_EQ(drr.total_size(), 800u - 200u);
}

// Classic DRR moves past a lane once its credit is below one pop, so no
// lane is served twice across a grant round: two equal lanes alternate
// strictly, and weights 3:1 repeat A A A B.
TEST(WeightedDrrQueue, CursorMovesPastALaneWhoseCreditIsSpent) {
  const auto pops = [](double wa, double wb, int count) {
    WeightedDrrQueue<int> drr;
    const std::size_t a = drr.add_queue(wa);
    const std::size_t b = drr.add_queue(wb);
    for (int i = 0; i < count; ++i) {
      drr.push(a, i);
      drr.push(b, i);
    }
    std::string order;
    for (int i = 0; i < count; ++i) {
      order += drr.pop_next()->first == a ? 'A' : 'B';
    }
    return order;
  };
  EXPECT_EQ(pops(1.0, 1.0, 8), "ABABABAB");
  EXPECT_EQ(pops(3.0, 1.0, 12), "AAABAAABAAAB");
}

// Lanes hold move-only items (serve::Server's requests carry a
// std::promise): each lane pops in FIFO order, and two equal lanes split
// every aligned pair of pops one each.
TEST(WeightedDrrQueue, MoveOnlyLanesPopFifoAndEqualLanesAlternate) {
  WeightedDrrQueue<std::unique_ptr<int>> drr;
  const std::size_t a = drr.add_queue(1.0);
  const std::size_t b = drr.add_queue(1.0);
  for (int i = 0; i < 10; ++i) {
    drr.push(a, std::make_unique<int>(i));
    drr.push(b, std::make_unique<int>(100 + i));
  }
  EXPECT_EQ(*drr.items(a).front(), 0);
  EXPECT_EQ(drr.size(b), 10u);
  int next_a = 0;
  int next_b = 100;
  for (int pair = 0; pair < 10; ++pair) {
    std::size_t from_a = 0;
    for (int k = 0; k < 2; ++k) {
      auto popped = drr.pop_next();
      ASSERT_TRUE(popped.has_value());
      const bool is_a = popped->first == a;
      from_a += is_a ? 1 : 0;
      EXPECT_EQ(*popped->second, is_a ? next_a++ : next_b++);
    }
    EXPECT_EQ(from_a, 1u) << "pair " << pair;
  }
  EXPECT_EQ(drr.total_size(), 0u);
  EXPECT_FALSE(drr.pop_next().has_value());
}

// ----------------------------------------------------------------- routing --

TEST(Gateway, TwoModelsOverOnePoolAreBitIdenticalToServingEachAlone) {
  const Network net_a = make_net_a();
  const Network net_b = make_net_b();
  const auto inputs_a = make_inputs(48, kDimA, 11);
  const auto inputs_b = make_inputs(48, kDimB, 13);

  GatewayConfig gcfg;
  gcfg.pool_threads = 0;  // EB_THREADS-controlled: CI sweeps 1 and 4
  // No default deadlines: sanitizer runs are slow and this test is about
  // routing, not budgets.
  for (auto& cls : gcfg.classes) {
    cls.default_deadline_us = 0;
  }
  Gateway gw(gcfg);
  ModelConfig mcfg;
  mcfg.server.max_batch = 8;
  mcfg.server.batching_window_us = 300;
  mcfg.server.workers = 2;
  gw.register_model("mlp-a", net_a, mcfg);
  gw.register_model("mlp-b", net_b, mcfg);
  EXPECT_EQ(gw.model_ids(), (std::vector<std::string>{"mlp-a", "mlp-b"}));

  // Interleave submissions to both models from two client threads.
  std::vector<std::future<Result>> fut_a(inputs_a.size());
  std::vector<std::future<Result>> fut_b(inputs_b.size());
  std::thread ta([&] {
    for (std::size_t i = 0; i < inputs_a.size(); ++i) {
      fut_a[i] = gw.submit("mlp-a", inputs_a[i], DeadlineClass::kInteractive);
    }
  });
  std::thread tb([&] {
    for (std::size_t i = 0; i < inputs_b.size(); ++i) {
      fut_b[i] = gw.submit("mlp-b", inputs_b[i], DeadlineClass::kBatch);
    }
  });
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < inputs_a.size(); ++i) {
    Result r = fut_a[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "a" << i << " " << to_string(r.status);
    expect_tensors_equal(r.output, net_a.forward(inputs_a[i]), i);
  }
  for (std::size_t i = 0; i < inputs_b.size(); ++i) {
    Result r = fut_b[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "b" << i << " " << to_string(r.status);
    expect_tensors_equal(r.output, net_b.forward(inputs_b[i]), i);
  }

  const auto snap = gw.metrics();
  EXPECT_EQ(snap.submitted, inputs_a.size() + inputs_b.size());
  EXPECT_EQ(snap.completed, snap.submitted);
  EXPECT_EQ(snap.rejected, 0u);
  ASSERT_EQ(snap.models.size(), 2u);
  EXPECT_EQ(snap.models[0].id, "mlp-a");
  EXPECT_EQ(snap.models[0].server.completed, inputs_a.size());
  EXPECT_EQ(snap.models[1].server.completed, inputs_b.size());
  const auto& interactive =
      snap.classes[static_cast<std::size_t>(DeadlineClass::kInteractive)];
  EXPECT_EQ(interactive.completed, inputs_a.size());
  EXPECT_FALSE(snap.summary().empty());
}

TEST(Gateway, WrongInputShapeRejectsAloneWithoutPoisoningCoBatchedPeers) {
  const Network net = make_net_a();
  Gateway gw;
  ModelConfig mcfg;
  mcfg.server.max_batch = 8;
  mcfg.server.batching_window_us = 10'000;  // force co-batching
  gw.register_model("m", net, mcfg);  // input_size auto-derived: kDimA

  const auto inputs = make_inputs(6, kDimA, 71);
  std::vector<std::future<Result>> good;
  for (const auto& in : inputs) {
    good.push_back(gw.submit("m", in, DeadlineClass::kBestEffort));
  }
  // The wrong-shaped request fails alone at admission...
  auto bad = gw.submit("m", Tensor({3}), DeadlineClass::kBestEffort);
  EXPECT_EQ(bad.get().status, Status::kInvalidArgument);
  // ...and every co-submitted valid request still serves bit-exactly.
  for (std::size_t i = 0; i < good.size(); ++i) {
    Result r = good[i].get();
    ASSERT_EQ(r.status, Status::kOk) << to_string(r.status);
    expect_tensors_equal(r.output, net.forward(inputs[i]), i);
  }
}

TEST(Gateway, UnknownModelRejectsImmediately) {
  Gateway gw;
  auto fut = gw.submit("nope", Tensor({4}));
  EXPECT_EQ(fut.get().status, Status::kRejected);
  const auto snap = gw.metrics();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.submitted, 0u);  // rejections never count as admissions
}

TEST(Gateway, DuplicateRegistrationThrows) {
  const Network net = make_net_a();
  Gateway gw;
  gw.register_model("m", net);
  EXPECT_THROW(gw.register_model("m", net), Error);
  EXPECT_TRUE(gw.unregister_model("m"));
  EXPECT_FALSE(gw.unregister_model("m"));  // already gone
  gw.register_model("m", net);             // id reusable after removal
  EXPECT_TRUE(gw.has_model("m"));
}

// ---------------------------------------------------------- weighted share --

// Saturates one slow model from two classes with weights 3:1 and checks
// the admitted-throughput ratio over the saturated window. The handler
// serves one request at a time (max_batch 1, serial pool), so the
// completion order is the dispatch order and the ratio is structural, not
// timing luck.
TEST(Gateway, WeightedSchedulingApproaches3To1UnderSaturation) {
  GatewayConfig gcfg;
  gcfg.pool_threads = 1;
  gcfg.classes[static_cast<std::size_t>(DeadlineClass::kInteractive)] = {
      /*weight=*/3.0, /*default_deadline_us=*/0, /*queue_capacity=*/4096};
  gcfg.classes[static_cast<std::size_t>(DeadlineClass::kBatch)] = {
      /*weight=*/1.0, /*default_deadline_us=*/0, /*queue_capacity=*/4096};
  Gateway gw(gcfg);

  ModelConfig mcfg;
  mcfg.server.max_batch = 1;  // serve singly: completion order == dispatch order
  mcfg.server.batching_window_us = 0;
  mcfg.server.workers = 1;
  mcfg.server.queue_capacity = 1;  // backlog pools at the gateway
  gw.register_model(
      "slow",
      [](std::span<const Tensor> batch, ThreadPool&) -> std::vector<Tensor> {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return {batch.begin(), batch.end()};
      },
      mcfg);

  // Preload both classes, then observe the completion-order prefix while
  // both stay backlogged.
  constexpr std::size_t kPerClass = 120;
  std::mutex mu;
  std::vector<DeadlineClass> completion_order;
  std::vector<std::future<Result>> futures;
  for (std::size_t i = 0; i < kPerClass; ++i) {
    for (const auto cls :
         {DeadlineClass::kInteractive, DeadlineClass::kBatch}) {
      auto p = std::make_shared<std::promise<Result>>();
      futures.push_back(p->get_future());
      gw.submit_async("slow", Tensor({1}), cls, /*deadline_us=*/0,
                      [&, cls, p](Result r) {
                        {
                          const std::lock_guard<std::mutex> lock(mu);
                          completion_order.push_back(cls);
                        }
                        p->set_value(std::move(r));
                      });
    }
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }

  // While both classes are backlogged -- guaranteed for the first
  // kPerClass completions (the batch class alone cannot finish earlier) --
  // the interactive share must match weight 3 of 4 within 20%.
  std::size_t interactive = 0;
  for (std::size_t i = 0; i < kPerClass; ++i) {
    interactive += completion_order[i] == DeadlineClass::kInteractive ? 1 : 0;
  }
  const double ratio = static_cast<double>(interactive) /
                       static_cast<double>(kPerClass - interactive);
  EXPECT_GE(ratio, 3.0 * 0.8) << "interactive " << interactive;
  EXPECT_LE(ratio, 3.0 * 1.2) << "interactive " << interactive;
}

// -------------------------------------------------------------- deadlines --

TEST(Gateway, ClassDefaultDeadlineAppliesAndExpiresAsDeadlineExceeded) {
  // Deterministic deadline expiry on a virtual clock: time only moves
  // when the handler advances it, so the schedule is scripted, not raced.
  VirtualClock vclock;
  GatewayConfig gcfg;
  gcfg.pool_threads = 1;
  gcfg.clock = &vclock;
  // Interactive requests default to a 5 ms end-to-end budget.
  gcfg.classes[static_cast<std::size_t>(DeadlineClass::kInteractive)] = {
      /*weight=*/4.0, /*default_deadline_us=*/5'000, /*queue_capacity=*/64};
  // Best-effort keeps no default deadline.
  Gateway gw(gcfg);
  ModelConfig mcfg;
  mcfg.server.max_batch = 1;
  mcfg.server.batching_window_us = 0;
  mcfg.server.workers = 1;
  mcfg.server.queue_capacity = 1;
  // The handler parks until every request is admitted (so all deadlines
  // anchor to the same virtual instant), then each service costs exactly
  // 3 virtual milliseconds.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  gw.register_model(
      "sleepy",
      [&vclock, released](std::span<const Tensor> batch,
                          ThreadPool&) -> std::vector<Tensor> {
        released.wait();
        vclock.advance_us(3'000);
        return {batch.begin(), batch.end()};
      },
      mcfg);

  // A burst much deeper than 5 ms / 3 ms-per-request: the tail must
  // expire under the class default while best-effort peers survive.
  std::vector<std::future<Result>> interactive;
  std::vector<std::future<Result>> besteffort;
  for (int i = 0; i < 12; ++i) {
    interactive.push_back(
        gw.submit("sleepy", Tensor({1}), DeadlineClass::kInteractive));
    besteffort.push_back(
        gw.submit("sleepy", Tensor({1}), DeadlineClass::kBestEffort));
  }
  release.set_value();
  std::size_t expired = 0;
  for (auto& f : interactive) {
    const Result r = f.get();
    ASSERT_TRUE(r.status == Status::kOk ||
                r.status == Status::kDeadlineExceeded)
        << to_string(r.status);
    expired += r.status == Status::kDeadlineExceeded ? 1 : 0;
  }
  // Every deadline reads t0 + 5 ms and each service moves the clock 3 ms,
  // so at most two services of any class fit the budget: at least ten of
  // the twelve interactive requests MUST expire.
  EXPECT_GE(expired, 10u);
  for (auto& f : besteffort) {
    EXPECT_EQ(f.get().status, Status::kOk);  // no default deadline
  }
  const auto snap = gw.metrics();
  const auto& icls =
      snap.classes[static_cast<std::size_t>(DeadlineClass::kInteractive)];
  EXPECT_EQ(icls.deadline_exceeded, expired);
  EXPECT_EQ(icls.completed + icls.deadline_exceeded, interactive.size());
}

// ---------------------------------------------------------- registry churn --

TEST(Gateway, ConcurrentRegisterUnregisterLosesNoFutures) {
  const Network net_a = make_net_a();
  const Network net_b = make_net_b();
  GatewayConfig gcfg;
  gcfg.pool_threads = 0;
  Gateway gw(gcfg);
  ModelConfig mcfg;
  mcfg.server.max_batch = 4;
  mcfg.server.batching_window_us = 100;
  mcfg.server.workers = 1;
  gw.register_model("stable", net_a, mcfg);

  const auto inputs_a = make_inputs(16, kDimA, 21);
  const auto inputs_b = make_inputs(16, kDimB, 23);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> submitted{0};

  // Clients hammer both the stable model and the churning one.
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::size_t i = static_cast<std::size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        const bool churny = (i % 2) == 0;
        const auto& pool_inputs = churny ? inputs_b : inputs_a;
        auto fut = gw.submit(churny ? "churn" : "stable",
                             pool_inputs[i % pool_inputs.size()],
                             DeadlineClass::kBatch);
        submitted.fetch_add(1, std::memory_order_relaxed);
        const Result r = fut.get();  // every future must resolve
        if (r.status == Status::kOk) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status == Status::kRejected) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else {
          ADD_FAILURE() << "unexpected status " << to_string(r.status);
        }
        ++i;
      }
    });
  }
  // Churner: register/unregister "churn" while traffic is in flight.
  std::thread churner([&] {
    for (int round = 0; round < 25; ++round) {
      gw.register_model("churn", net_b, mcfg);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ASSERT_TRUE(gw.unregister_model("churn"));
    }
  });
  churner.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) {
    t.join();
  }
  // No lost futures: every submission resolved as ok or rejected.
  EXPECT_EQ(ok.load() + rejected.load(), submitted.load());
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(rejected.load(), 0u);  // windows with "churn" absent existed
  EXPECT_FALSE(gw.has_model("churn"));
}

TEST(Gateway, ShutdownDrainsAndRejectsLateSubmissions) {
  const Network net = make_net_a();
  const auto inputs = make_inputs(20, kDimA, 31);
  Gateway gw;
  ModelConfig mcfg;
  mcfg.server.batching_window_us = 50'000;  // drain must not wait for it
  gw.register_model("m", net, mcfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(gw.submit("m", in, DeadlineClass::kBestEffort));
  }
  gw.shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  EXPECT_EQ(gw.submit("m", inputs[0]).get().status, Status::kRejected);
  EXPECT_THROW(gw.register_model("late", net), Error);
}

// ----------------------------------------------------- one queue per request --

// Admission hands each request straight to its model server's class lane;
// no thread or timer moves requests. A default ModelConfig (no batching
// window) on a frozen VirtualClock therefore serves a lone request with
// no clock advance; the real-time wait_for guard turns a stall into a
// failure rather than a hang.
TEST(Gateway, DefaultModelConfigServesALoneRequestWithoutClockAdvance) {
  const Network net = make_net_a();
  const auto inputs = make_inputs(1, kDimA, 81);
  VirtualClock vclock;
  GatewayConfig gcfg;
  gcfg.pool_threads = 1;
  gcfg.clock = &vclock;
  Gateway gw(gcfg);
  gw.register_model("m", net);  // default ModelConfig
  auto fut = gw.submit("m", inputs[0]);
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "a lone request waited for the clock";
  const Result r = fut.get();
  ASSERT_EQ(r.status, Status::kOk) << to_string(r.status);
  EXPECT_EQ(r.queue_us, 0.0);
  EXPECT_EQ(r.total_us, 0.0);
  expect_tensors_equal(r.output, net.forward(inputs[0]), 0);
}

// A slow single-request handler behind a server queue of capacity 1 or 2.
ModelConfig shallow_slow_model(std::size_t queue_capacity) {
  ModelConfig mcfg;
  mcfg.server.max_batch = 1;
  mcfg.server.workers = 1;
  mcfg.server.queue_capacity = queue_capacity;
  return mcfg;
}

std::vector<Tensor> slow_echo(std::span<const Tensor> batch) {
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  return {batch.begin(), batch.end()};
}

// The gateway ignores a model's server queue_capacity (the class
// partitions bound admission): concurrent submitters behind a capacity of
// 1 or 2 are all served, and nothing turns into a server-side kRejected.
TEST(Gateway, ConcurrentSubmittersNeverOverfillAShallowServerQueue) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 40;
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2}}) {
    GatewayConfig gcfg;
    gcfg.pool_threads = 1;
    for (auto& cls : gcfg.classes) {
      cls.default_deadline_us = 0;
    }
    Gateway gw(gcfg);
    gw.register_model(
        "slow",
        [](std::span<const Tensor> batch, ThreadPool&) {
          return slow_echo(batch);
        },
        shallow_slow_model(capacity));
    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> other{0};
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&] {
        std::vector<std::future<Result>> futs;
        for (std::size_t i = 0; i < kPerThread; ++i) {
          futs.push_back(
              gw.submit("slow", Tensor({1}), DeadlineClass::kBatch));
        }
        for (auto& f : futs) {
          (f.get().status == Status::kOk ? ok : other).fetch_add(1);
        }
      });
    }
    for (auto& t : submitters) {
      t.join();
    }
    EXPECT_EQ(ok.load(), kThreads * kPerThread) << "capacity " << capacity;
    EXPECT_EQ(other.load(), 0u) << "capacity " << capacity;
    const auto snap = gw.metrics();
    EXPECT_EQ(snap.rejected, 0u);
    EXPECT_EQ(snap.models.at(0).server.rejected, 0u);
  }
}

// shutdown() drains a backlog many times deeper than the model's server
// queue_capacity: every admitted request is served.
TEST(Gateway, ShutdownForwardsABacklogDeeperThanTheServerQueue) {
  constexpr std::size_t kBacklog = 40;
  GatewayConfig gcfg;
  gcfg.pool_threads = 1;
  Gateway gw(gcfg);
  gw.register_model(
      "slow",
      [](std::span<const Tensor> batch, ThreadPool&) {
        return slow_echo(batch);
      },
      shallow_slow_model(2));
  std::vector<std::future<Result>> futs;
  for (std::size_t i = 0; i < kBacklog; ++i) {
    futs.push_back(gw.submit("slow", Tensor({1}), DeadlineClass::kBestEffort));
  }
  gw.shutdown();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i << " unresolved after shutdown()";
    EXPECT_EQ(futs[i].get().status, Status::kOk) << "request " << i;
  }
  EXPECT_EQ(gw.metrics().models.at(0).server.completed, kBacklog);
}

// unregister_model() drains the model's server, and every admitted
// request waits there: none completes kRejected, however deep the
// backlog is against the server's queue_capacity.
TEST(Gateway, UnregisterServesEveryAdmittedRequest) {
  constexpr std::size_t kAdmitted = 10;
  Gateway gw;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ModelConfig mcfg;
  mcfg.server.queue_capacity = 2;
  gw.register_model(
      "parked",
      [released](std::span<const Tensor> batch,
                 ThreadPool&) -> std::vector<Tensor> {
        released.wait();
        return {batch.begin(), batch.end()};
      },
      mcfg);
  std::vector<std::future<Result>> futs;
  for (std::size_t i = 0; i < kAdmitted; ++i) {
    futs.push_back(
        gw.submit("parked", Tensor({1}), DeadlineClass::kBestEffort));
  }
  std::thread unregister([&] { EXPECT_TRUE(gw.unregister_model("parked")); });
  while (gw.has_model("parked")) {
    std::this_thread::yield();
  }
  release.set_value();
  unregister.join();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_EQ(futs[i].get().status, Status::kOk) << "request " << i;
  }
}

// A class's queue_capacity bounds its requests admitted and not yet
// completed; completions free the slots again.
TEST(Gateway, ClassPartitionBoundsAdmittedRequests) {
  constexpr auto kCls = DeadlineClass::kBatch;
  const auto c = static_cast<std::size_t>(kCls);
  GatewayConfig gcfg;
  for (auto& cls : gcfg.classes) {
    cls.default_deadline_us = 0;
  }
  gcfg.classes[c].queue_capacity = 3;
  Gateway gw(gcfg);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  gw.register_model(
      "parked",
      [released](std::span<const Tensor> batch,
                 ThreadPool&) -> std::vector<Tensor> {
        released.wait();
        return {batch.begin(), batch.end()};
      });
  std::vector<std::future<Result>> futs;
  for (int i = 0; i < 5; ++i) {
    futs.push_back(gw.submit("parked", Tensor({1}), kCls));
  }
  for (std::size_t i = 3; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i << " was not rejected inline";
    EXPECT_EQ(futs[i].get().status, Status::kRejected) << "request " << i;
  }
  EXPECT_EQ(gw.metrics().classes[c].queue_depth, 3u);
  release.set_value();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(futs[i].get().status, Status::kOk) << "request " << i;
  }
  EXPECT_EQ(gw.metrics().classes[c].queue_depth, 0u);
  EXPECT_EQ(gw.submit("parked", Tensor({1}), kCls).get().status, Status::kOk);
}

// ------------------------------------------------------------------- wire --

TEST(Wire, RequestAndResponseRoundTripByteExactly) {
  Rng rng(41);
  wire::RequestFrame req;
  req.request_id = 0xDEADBEEFCAFEULL;
  req.cls = DeadlineClass::kBatch;
  req.deadline_us = 12'345;
  req.model_id = "mlp-a";
  req.tensor = Tensor::random_uniform({3, 5}, 2.0, rng);
  const auto bytes = serve::wire::encode_request(req);

  wire::RequestFrame back;
  std::size_t consumed = 0;
  ASSERT_EQ(serve::wire::decode_request(bytes.data(), bytes.size(), back,
                                        consumed),
            serve::wire::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.cls, req.cls);
  EXPECT_EQ(back.deadline_us, req.deadline_us);
  EXPECT_EQ(back.model_id, req.model_id);
  ASSERT_EQ(back.tensor.shape(), req.tensor.shape());
  for (std::size_t i = 0; i < req.tensor.size(); ++i) {
    EXPECT_EQ(back.tensor[i], req.tensor[i]);  // bit pattern, not approx
  }

  wire::ResponseFrame resp;
  resp.request_id = req.request_id;
  resp.status = Status::kOk;
  resp.queue_us = 17.25;
  resp.total_us = 456.5;
  resp.tensor = Tensor::random_uniform({7}, 1.0, rng);
  const auto rbytes = serve::wire::encode_response(resp);
  wire::ResponseFrame rback;
  ASSERT_EQ(serve::wire::decode_response(rbytes.data(), rbytes.size(), rback,
                                         consumed),
            serve::wire::DecodeStatus::kOk);
  EXPECT_EQ(rback.request_id, resp.request_id);
  EXPECT_EQ(rback.status, resp.status);
  EXPECT_DOUBLE_EQ(rback.queue_us, resp.queue_us);
  EXPECT_DOUBLE_EQ(rback.total_us, resp.total_us);
  ASSERT_EQ(rback.tensor.size(), resp.tensor.size());
  for (std::size_t i = 0; i < resp.tensor.size(); ++i) {
    EXPECT_EQ(rback.tensor[i], resp.tensor[i]);
  }
}

TEST(Wire, MalformedAndTruncatedFramesAreRejected) {
  Rng rng(43);
  wire::RequestFrame req;
  req.request_id = 1;
  req.model_id = "m";
  req.tensor = Tensor::random_uniform({4}, 1.0, rng);
  const auto good = serve::wire::encode_request(req);
  wire::RequestFrame out;
  std::size_t consumed = 0;

  // Every strict prefix is "need more data", never a crash or a bogus ok.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    ASSERT_EQ(serve::wire::decode_request(good.data(), cut, out, consumed),
              serve::wire::DecodeStatus::kNeedMoreData)
        << "cut " << cut;
    ASSERT_EQ(consumed, 0u);
  }

  // Corrupted magic.
  auto bad = good;
  bad[4] ^= 0xFF;
  EXPECT_EQ(serve::wire::decode_request(bad.data(), bad.size(), out,
                                        consumed),
            serve::wire::DecodeStatus::kBadMagic);
  EXPECT_EQ(consumed, bad.size());  // boundary still known: skippable

  // Wrong version.
  bad = good;
  bad[8] = 99;
  EXPECT_EQ(serve::wire::decode_request(bad.data(), bad.size(), out,
                                        consumed),
            serve::wire::DecodeStatus::kBadVersion);

  // Response frame where a request is expected.
  bad = good;
  bad[9] = serve::wire::kTypeResponse;
  EXPECT_EQ(serve::wire::decode_request(bad.data(), bad.size(), out,
                                        consumed),
            serve::wire::DecodeStatus::kBadType);

  // Hostile length field: rejected before any allocation.
  bad = good;
  bad[0] = 0xFF;
  bad[1] = 0xFF;
  bad[2] = 0xFF;
  bad[3] = 0xFF;
  EXPECT_EQ(serve::wire::decode_request(bad.data(), bad.size(), out,
                                        consumed),
            serve::wire::DecodeStatus::kTooLarge);
  EXPECT_EQ(consumed, 0u);  // stream desync: not skippable

  // Invalid deadline class byte. The envelope decoded through the id
  // field, so kMalformed must echo the id (a pipelined client matches
  // the error response to its request by it).
  bad = good;
  bad[10] = 7;
  out.request_id = 0;
  EXPECT_EQ(serve::wire::decode_request(bad.data(), bad.size(), out,
                                        consumed),
            serve::wire::DecodeStatus::kMalformed);
  EXPECT_EQ(consumed, bad.size());
  EXPECT_EQ(out.request_id, req.request_id);

  // Declared dims that disagree with the payload bytes actually present.
  bad = good;
  const std::size_t ndims_off = 4 + 4 + 1 + 1 + 1 + 1 + 8 + 8 + 2 + 1;
  ASSERT_EQ(bad[ndims_off], 1u);          // rank-1 tensor...
  bad[ndims_off + 1] = 200;               // ...now claims 200 elements
  out.request_id = 0;
  EXPECT_EQ(serve::wire::decode_request(bad.data(), bad.size(), out,
                                        consumed),
            serve::wire::DecodeStatus::kMalformed);
  EXPECT_EQ(out.request_id, req.request_id);

  // Empty model id.
  bad = good;
  bad[4 + 4 + 1 + 1 + 1 + 1 + 8 + 8] = 0;  // id_len low byte
  EXPECT_EQ(serve::wire::decode_request(bad.data(), bad.size(), out,
                                        consumed),
            serve::wire::DecodeStatus::kMalformed);
}

// The v2 control frames ride the same envelope, so they must fail the
// same tamper matrix (bad magic / version / type) the request frame
// does. Their round-trip + truncation coverage lives in test_tcp.
TEST(Wire, ControlFramesShareTheEnvelopeTamperMatrix) {
  wire::PingFrame ping;
  ping.nonce = 42;
  wire::StatsFrame stats;
  stats.request_id = 7;
  const auto frames = {serve::wire::encode_ping(ping),
                       serve::wire::encode_stats(stats)};
  for (const auto& good : frames) {
    std::size_t consumed = 0;
    wire::PingFrame pout;
    wire::StatsFrame sout;
    std::uint8_t type = 0;
    ASSERT_EQ(serve::wire::peek_type(good.data(), good.size(), type),
              serve::wire::DecodeStatus::kOk);
    const bool is_ping = type == serve::wire::kTypePing;
    const auto decode = [&](const std::vector<std::uint8_t>& buf) {
      return is_ping ? serve::wire::decode_ping(buf.data(), buf.size(),
                                                pout, consumed)
                     : serve::wire::decode_stats(buf.data(), buf.size(),
                                                 sout, consumed);
    };

    auto bad = good;
    bad[4] ^= 0xFF;
    EXPECT_EQ(decode(bad), serve::wire::DecodeStatus::kBadMagic);
    EXPECT_EQ(consumed, bad.size());  // boundary still known: skippable

    bad = good;
    bad[8] = 99;
    EXPECT_EQ(decode(bad), serve::wire::DecodeStatus::kBadVersion);

    // A request frame where the control frame is expected.
    bad = good;
    bad[9] = serve::wire::kTypeRequest;
    EXPECT_EQ(decode(bad), serve::wire::DecodeStatus::kBadType);
  }
}

// ----------------------------------------------------------- TCP loopback --

// Minimal blocking client for the loopback tests.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EB_REQUIRE(fd_ >= 0, "client socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EB_REQUIRE(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) == 0,
               "client connect() failed");
  }
  ~WireClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t k =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(k, 0);
      off += static_cast<std::size_t>(k);
    }
  }

  // Blocks until one whole type-6 stats frame arrives.
  bool read_stats(wire::StatsFrame& out) {
    std::uint8_t chunk[4096];
    for (;;) {
      std::size_t consumed = 0;
      const auto st = serve::wire::decode_stats(buf_.data(), buf_.size(),
                                                out, consumed);
      if (st == serve::wire::DecodeStatus::kOk) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return true;
      }
      if (st != serve::wire::DecodeStatus::kNeedMoreData) {
        ADD_FAILURE() << "bad stats frame: " << to_string(st);
        return false;
      }
      const ssize_t k = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (k <= 0) {
        return false;
      }
      buf_.insert(buf_.end(), chunk, chunk + k);
    }
  }

  // Blocks until one whole response frame arrives (or EOF -> nullopt-ish
  // failure reported through gtest).
  bool read_response(wire::ResponseFrame& out) {
    std::uint8_t chunk[4096];
    for (;;) {
      std::size_t consumed = 0;
      const auto st = serve::wire::decode_response(buf_.data(), buf_.size(),
                                                   out, consumed);
      if (st == serve::wire::DecodeStatus::kOk) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(consumed));
        return true;
      }
      if (st != serve::wire::DecodeStatus::kNeedMoreData) {
        ADD_FAILURE() << "bad response frame: " << to_string(st);
        return false;
      }
      const ssize_t k = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (k <= 0) {
        return false;  // connection closed
      }
      buf_.insert(buf_.end(), chunk, chunk + k);
    }
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
};

TEST(TcpFrontend, LoopbackRoundTripIsByteIdenticalToInProcessSubmit) {
  const Network net = make_net_a();
  const auto inputs = make_inputs(10, kDimA, 51);
  GatewayConfig gcfg;
  gcfg.pool_threads = 0;
  Gateway gw(gcfg);
  ModelConfig mcfg;
  mcfg.server.max_batch = 4;
  mcfg.server.batching_window_us = 200;
  gw.register_model("mlp-a", net, mcfg);
  TcpFrontend frontend(gw);
  ASSERT_GT(frontend.port(), 0);

  // In-process reference answers.
  std::vector<Tensor> want;
  for (const auto& in : inputs) {
    Result r = gw.submit("mlp-a", in, DeadlineClass::kBatch).get();
    ASSERT_EQ(r.status, Status::kOk);
    want.push_back(std::move(r.output));
  }

  WireClient client(frontend.port());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    wire::RequestFrame req;
    req.request_id = 1000 + i;
    req.cls = DeadlineClass::kBatch;
    req.model_id = "mlp-a";
    req.tensor = inputs[i];
    client.send_bytes(serve::wire::encode_request(req));
  }
  // Workers complete out of order: match responses by echoed id.
  std::map<std::uint64_t, wire::ResponseFrame> responses;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    wire::ResponseFrame resp;
    ASSERT_TRUE(client.read_response(resp));
    responses[resp.request_id] = std::move(resp);
  }
  ASSERT_EQ(responses.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto it = responses.find(1000 + i);
    ASSERT_NE(it, responses.end());
    EXPECT_EQ(it->second.status, Status::kOk);
    ASSERT_EQ(it->second.tensor.size(), want[i].size());
    for (std::size_t k = 0; k < want[i].size(); ++k) {
      // Byte-identical across the wire: raw IEEE-754 bit patterns.
      EXPECT_EQ(it->second.tensor[k], want[i][k]) << "req " << i;
    }
  }
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.requests, inputs.size());
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(TcpFrontend, MalformedFramesGetErrorResponsesWithoutCrashing) {
  const Network net = make_net_a();
  Gateway gw;
  gw.register_model("mlp-a", net);
  TcpFrontend frontend(gw);

  // Connection 1: a content-malformed frame (bad class byte) inside a
  // valid length prefix -- the frontend answers kInvalidArgument and the
  // connection survives for the valid frame that follows.
  {
    Rng rng(61);
    wire::RequestFrame req;
    req.request_id = 7;
    req.model_id = "mlp-a";
    req.tensor = Tensor::random_uniform({kDimA}, 1.0, rng);
    auto bad = serve::wire::encode_request(req);
    bad[10] = 9;  // invalid deadline class
    WireClient client(frontend.port());
    client.send_bytes(bad);
    wire::ResponseFrame resp;
    ASSERT_TRUE(client.read_response(resp));
    EXPECT_EQ(resp.status, Status::kInvalidArgument);
    // The envelope (through the id field) decoded cleanly, so the error
    // echoes the offending frame's id -- a pipelined client can match it.
    EXPECT_EQ(resp.request_id, 7u);

    client.send_bytes(serve::wire::encode_request(req));  // still alive?
    ASSERT_TRUE(client.read_response(resp));
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.request_id, 7u);
  }

  // Connection 2: garbage that desyncs the stream (bad magic) -- error
  // response, then the frontend closes this connection.
  {
    WireClient client(frontend.port());
    std::vector<std::uint8_t> garbage = {8, 0, 0, 0, 'n', 'o', 'p', 'e',
                                         1, 1, 0, 0};
    client.send_bytes(garbage);
    wire::ResponseFrame resp;
    ASSERT_TRUE(client.read_response(resp));
    EXPECT_EQ(resp.status, Status::kInvalidArgument);
    EXPECT_EQ(resp.request_id, 0u);  // envelope garbage: no id to trust
    EXPECT_FALSE(client.read_response(resp));  // closed by the frontend
  }

  // The listener itself survived both abuses.
  {
    Rng rng(62);
    wire::RequestFrame req;
    req.request_id = 8;
    req.model_id = "mlp-a";
    req.tensor = Tensor::random_uniform({kDimA}, 1.0, rng);
    WireClient client(frontend.port());
    client.send_bytes(serve::wire::encode_request(req));
    wire::ResponseFrame resp;
    ASSERT_TRUE(client.read_response(resp));
    EXPECT_EQ(resp.status, Status::kOk);
  }
  const auto stats = frontend.stats();
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_GE(stats.connections, 3u);
}

// The drift-monitor counters flow from Gateway::record_canary /
// record_rewrite through GatewaySnapshot into the type-6 stats response
// a remote balancer polls.
TEST(Gateway, DriftCountersSurfaceInSnapshotAndStatsFrame) {
  Gateway gw;
  gw.record_canary(true);
  gw.record_canary(true);
  gw.record_canary(false);
  gw.record_rewrite(1'234);
  gw.record_rewrite(567);

  const auto snap = gw.metrics();
  EXPECT_EQ(snap.canaries_sent, 3u);
  EXPECT_EQ(snap.canary_failures, 1u);
  EXPECT_EQ(snap.rewrites, 2u);
  EXPECT_EQ(snap.rewrite_us_last, 567u);  // latest, not largest

  TcpFrontend frontend(gw);
  WireClient client(frontend.port());
  wire::StatsFrame req;
  req.request_id = 4242;
  client.send_bytes(serve::wire::encode_stats(req));
  wire::StatsFrame resp;
  ASSERT_TRUE(client.read_stats(resp));
  EXPECT_TRUE(resp.response);
  EXPECT_EQ(resp.request_id, 4242u);
  EXPECT_EQ(resp.canaries_sent, 3u);
  EXPECT_EQ(resp.canary_failures, 1u);
  EXPECT_EQ(resp.rewrites, 2u);
  EXPECT_EQ(resp.rewrite_us_last, 567u);
}

TEST(TcpFrontend, UnknownModelOverWireResolvesRejected) {
  Gateway gw;
  TcpFrontend frontend(gw);
  Rng rng(63);
  wire::RequestFrame req;
  req.request_id = 99;
  req.model_id = "ghost";
  req.tensor = Tensor::random_uniform({4}, 1.0, rng);
  WireClient client(frontend.port());
  client.send_bytes(serve::wire::encode_request(req));
  wire::ResponseFrame resp;
  ASSERT_TRUE(client.read_response(resp));
  EXPECT_EQ(resp.status, Status::kRejected);
  EXPECT_EQ(resp.request_id, 99u);
  EXPECT_EQ(resp.tensor.size(), 0u);
}

}  // namespace
}  // namespace eb
