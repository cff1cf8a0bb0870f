#include "serve/server.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace eb::serve {

namespace {

double to_us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kDeadlineExceeded:
      return "deadline_exceeded";
    case Status::kRejected:
      return "rejected";
    case Status::kInternalError:
      return "internal_error";
    case Status::kInvalidArgument:
      return "invalid_argument";
  }
  EB_UNREACHABLE("unknown serve::Status");
}

void Server::validate_config() const {
  EB_REQUIRE(cfg_.max_batch >= 1, "max_batch must be >= 1");
  EB_REQUIRE(cfg_.workers >= 1, "need at least one worker");
  EB_REQUIRE(cfg_.queue_capacity >= 1, "queue capacity must be >= 1");
}

Server::Server(const bnn::Network& net, ServerConfig cfg)
    : cfg_(cfg),
      owned_pool_(std::make_unique<ThreadPool>(cfg.pool_threads)),
      pool_(owned_pool_.get()) {
  validate_config();
  bnn::BatchRunnerConfig rcfg;
  rcfg.batch_size = cfg_.max_batch;  // one GEMM batch per dispatched batch
  runners_.reserve(cfg_.workers);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    runners_.push_back(std::make_unique<bnn::BatchRunner>(net, *pool_, rcfg));
  }
  start_workers();
}

Server::Server(BatchHandler handler, ServerConfig cfg)
    : cfg_(cfg),
      owned_pool_(std::make_unique<ThreadPool>(cfg.pool_threads)),
      pool_(owned_pool_.get()),
      handler_(std::move(handler)) {
  EB_REQUIRE(handler_ != nullptr, "handler must be callable");
  validate_config();
  start_workers();
}

Server::Server(const bnn::Network& net, ThreadPool& shared_pool,
               ServerConfig cfg)
    : cfg_(cfg), pool_(&shared_pool) {
  validate_config();
  bnn::BatchRunnerConfig rcfg;
  rcfg.batch_size = cfg_.max_batch;
  runners_.reserve(cfg_.workers);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    runners_.push_back(std::make_unique<bnn::BatchRunner>(net, *pool_, rcfg));
  }
  start_workers();
}

Server::Server(BatchHandler handler, ThreadPool& shared_pool,
               ServerConfig cfg)
    : cfg_(cfg), pool_(&shared_pool), handler_(std::move(handler)) {
  EB_REQUIRE(handler_ != nullptr, "handler must be callable");
  validate_config();
  start_workers();
}

Server::~Server() { shutdown(); }

void Server::fulfil(Pending& r, Result res) {
  if (r.done) {
    r.done(std::move(res));
  } else {
    r.promise.set_value(std::move(res));
  }
}

void Server::start_workers() {
  for (const double w : cfg_.class_weights) {
    queue_.add_queue(w);
  }
  workers_.reserve(cfg_.workers);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

std::future<Result> Server::submit(bnn::Tensor input,
                                   std::uint64_t deadline_us) {
  return enqueue(std::move(input), deadline_us, nullptr,
                 /*want_future=*/true, DeadlineClass::kInteractive);
}

void Server::submit_async(bnn::Tensor input, std::uint64_t deadline_us,
                          Completion done, DeadlineClass cls) {
  EB_REQUIRE(done != nullptr, "submit_async needs a completion callback");
  (void)enqueue(std::move(input), deadline_us, std::move(done),
                /*want_future=*/false, cls);
}

std::future<Result> Server::enqueue(bnn::Tensor input,
                                    std::uint64_t deadline_us,
                                    Completion done, bool want_future,
                                    DeadlineClass cls) {
  const auto lane = static_cast<std::size_t>(cls);
  EB_REQUIRE(lane < kNumClasses, "invalid deadline class");
  Pending r;
  r.input = std::move(input);
  r.done = std::move(done);
  std::future<Result> fut;
  if (want_future) {
    fut = r.promise.get_future();
  }
  bool accepted = false;
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!draining_ && queue_.total_size() < cfg_.queue_capacity) {
      // Timestamp under the lock: each lane's order == enqueue-time order,
      // the invariant the window's arrival count (and window 0's
      // serve-singly guarantee) relies on when submitters race.
      r.enqueue = clk().now();
      r.deadline = deadline_us == 0
                       ? Clock::time_point::max()
                       : r.enqueue + std::chrono::microseconds(deadline_us);
      queue_.push(lane, std::move(r));
      depth = queue_.total_size();
      accepted = true;
    }
  }
  if (accepted) {
    metrics_.record_submitted(depth);
    wake_workers();
  } else {
    // Backpressure / post-shutdown: the caller still gets a fulfilled
    // future, just not an answer.
    metrics_.record_rejected();
    Result res;
    res.status = Status::kRejected;
    fulfil(r, std::move(res));
  }
  return fut;
}

void Server::worker_loop(std::size_t worker_idx) {
  std::vector<Pending> batch;
  while (form_batch(batch)) {
    serve_batch(worker_idx, std::move(batch));
    batch.clear();
  }
}

void Server::wake_workers() {
  if (cfg_.batching_window_us.has_value()) {
    // Window workers wait under two predicates (idle vs window
    // wait_until), and a single token handed to the "wrong" one costs a
    // window of latency. Worker counts are small, so the extra wakeups
    // are noise next to the batch work.
    cv_.notify_all();
  } else {
    cv_.notify_one();  // one predicate: any idle worker takes the batch
  }
}

bool Server::form_batch(std::vector<Pending>& batch) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return draining_ || queue_.total_size() != 0; });
    if (queue_.total_size() == 0) {
      return false;  // draining and fully drained
    }
    // Work-conserving, and draining under either policy: take what is
    // queued, full batches, no wait.
    std::size_t live = std::min(queue_.total_size(), cfg_.max_batch);
    if (cfg_.batching_window_us.has_value() && !draining_) {
      // Fixed window: the batch is anchored on the oldest queued request
      // (the oldest lane head); it closes at max_batch or when that
      // request's window expires. Anything another worker pops under us
      // we just recompute.
      auto anchor = Clock::time_point::max();
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        if (queue_.size(c) != 0) {
          anchor = std::min(anchor, queue_.items(c).front().enqueue);
        }
      }
      const auto close =
          anchor + std::chrono::microseconds(*cfg_.batching_window_us);
      // The batch holds as many requests as arrived, in any lane, within
      // the anchor's window; DRR picks which. Taking each lane's in-window
      // requests instead would serve the classes oldest-first and erase
      // their weights. Window 0 degenerates to singleton batches: the
      // no-coalescing baseline.
      live = 0;
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        for (const Pending& r : queue_.items(c)) {
          if (live == cfg_.max_batch || r.enqueue > close) {
            break;
          }
          ++live;
        }
      }
      if (live < cfg_.max_batch && clk().now() < close) {
        // Under-full batch inside its window: sleep until the window
        // closes or an arrival / drain notification re-evaluates the
        // policy. The wait goes through the injected clock so a
        // VirtualClock can expire the window without wall time passing.
        clk().wait_until(lock, cv_, close);
        continue;
      }
    }
    batch.clear();
    batch.reserve(live);
    for (std::size_t i = 0; i < live; ++i) {
      // live <= total_size(), so every pop yields an item.
      batch.push_back(std::move(queue_.pop_next()->second));
    }
    if (queue_.total_size() != 0) {
      wake_workers();  // the remainder may already form the next batch
    }
    return true;
  }
}

void Server::serve_batch(std::size_t worker_idx, std::vector<Pending> batch) {
  const auto formed = clk().now();
  // Deadline gate at batch formation: expired requests complete here with
  // kDeadlineExceeded and never occupy GEMM space.
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& r : batch) {
    if (formed >= r.deadline) {
      Result res;
      res.status = Status::kDeadlineExceeded;
      res.queue_us = to_us(formed - r.enqueue);
      res.total_us = res.queue_us;
      metrics_.record_deadline_exceeded();
      fulfil(r, std::move(res));
    } else {
      live.push_back(std::move(r));
    }
  }
  if (live.empty()) {
    return;
  }
  metrics_.record_batch(live.size());
  std::vector<bnn::Tensor> inputs;
  inputs.reserve(live.size());
  for (auto& r : live) {
    inputs.push_back(std::move(r.input));
  }
  std::vector<bnn::Tensor> outputs;
  try {
    if (!runners_.empty()) {
      outputs = runners_[worker_idx]->forward_all(inputs);
    } else {
      outputs = handler_(std::span<const bnn::Tensor>(inputs), *pool_);
    }
    EB_ASSERT(outputs.size() == live.size(),
              "batch handler must produce one output per input");
  } catch (...) {
    // A failing batch fails every request in it. Future-mode requests
    // carry the handler's exception; callback-mode requests (which have
    // no exception channel) complete with kInternalError.
    const auto err = std::current_exception();
    for (auto& r : live) {
      if (r.done) {
        Result res;
        res.status = Status::kInternalError;
        r.done(std::move(res));
      } else {
        r.promise.set_exception(err);
      }
    }
    return;
  }
  const auto done = clk().now();
  for (std::size_t i = 0; i < live.size(); ++i) {
    Result res;
    res.status = Status::kOk;
    res.output = std::move(outputs[i]);
    res.queue_us = to_us(formed - live[i].enqueue);
    res.total_us = to_us(done - live[i].enqueue);
    res.batch_size = live.size();
    metrics_.record_completed(res.total_us);
    fulfil(live[i], std::move(res));
  }
}

void Server::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  const std::lock_guard<std::mutex> lock(join_mu_);
  if (!joined_) {
    for (auto& t : workers_) {
      t.join();
    }
    joined_ = true;
  }
}

MetricsSnapshot Server::metrics() const {
  return metrics_.snapshot(queue_depth());
}

std::size_t Server::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.total_size();
}

}  // namespace eb::serve
