#include "serve/balancer.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"

namespace eb::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

/// One routed request: the canonical frame (re-encoded per attempt), the
/// terminal callback and the retry bookkeeping. Exactly one attempt is
/// outstanding at a time, so the non-atomic fields are only ever touched
/// by the thread currently driving the flight (the submitter, then the
/// I/O thread of whichever replica just failed it).
struct Balancer::Flight {
  wire::RequestFrame req;
  Completion done;
  std::vector<bool> tried;
  std::size_t attempts = 0;
  std::atomic<bool> finished{false};
  Clock::time_point start{};
};

Balancer::Balancer(BalancerConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  EB_REQUIRE(!cfg_.replicas.empty(), "balancer needs at least one replica");
  if (cfg_.max_attempts == 0) {
    cfg_.max_attempts = cfg_.replicas.size();
  }
  clients_.reserve(cfg_.replicas.size());
  for (const auto& addr : cfg_.replicas) {
    ReplicaClientConfig ccfg = cfg_.client;
    ccfg.address = addr;
    clients_.push_back(std::make_unique<ReplicaClient>(ccfg));
  }
}

Balancer::~Balancer() { shutdown(); }

std::future<Result> Balancer::submit(const std::string& model,
                                     bnn::Tensor input, DeadlineClass cls,
                                     std::uint64_t deadline_us) {
  auto promise = std::make_shared<std::promise<Result>>();
  auto future = promise->get_future();
  submit_async(model, std::move(input), cls, deadline_us,
               [promise](Result r) { promise->set_value(std::move(r)); });
  return future;
}

void Balancer::submit_async(const std::string& model, bnn::Tensor input,
                            DeadlineClass cls, std::uint64_t deadline_us,
                            Completion done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const auto start = Clock::now();
  bool draining = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining = draining_;
  }
  if (draining) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Result r;
    r.status = Status::kRejected;
    r.total_us = us_since(start);
    done(std::move(r));
    return;
  }
  // The admission-time shape gate, run against the input_size the
  // replicas advertise over stats frames: a wrong-shaped request fails
  // here, exactly once, and never enters the retry loop -- a dead
  // replica must not turn a client mistake into max_attempts sends.
  const std::size_t want = known_input_size(model);
  if (want != 0 && input.size() != want) {
    shape_gated_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    Result r;
    r.status = Status::kInvalidArgument;
    r.total_us = us_since(start);
    done(std::move(r));
    return;
  }
  auto flight = std::make_shared<Flight>();
  flight->req.model_id = model;
  flight->req.cls = cls;
  flight->req.deadline_us = deadline_us;
  flight->req.tensor = std::move(input);
  flight->done = std::move(done);
  flight->tried.assign(clients_.size(), false);
  flight->start = start;
  dispatch(flight);
}

void Balancer::dispatch(const std::shared_ptr<Flight>& flight) {
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (draining_) {
        break;
      }
    }
    if (flight->attempts >= cfg_.max_attempts) {
      break;
    }
    int idx = -1;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      idx = pick_replica(flight->tried);
    }
    if (idx < 0) {
      break;
    }
    flight->tried[static_cast<std::size_t>(idx)] = true;
    ++flight->attempts;
    if (flight->attempts > 1) {
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
    auto self = flight;
    const bool sent = clients_[static_cast<std::size_t>(idx)]->submit(
        flight->req,
        [this, self](wire::ResponseFrame resp) {
          Result r;
          r.status = resp.status;
          r.queue_us = resp.queue_us;
          if (resp.status == Status::kOk) {
            r.output = std::move(resp.tensor);
          }
          finish(self, std::move(r));
        },
        [this, self] {
          // Replica died with the request in flight: re-route. The
          // handler runs on the dead client's I/O thread, outside its
          // lock, so dialing a sibling from here is safe.
          dispatch(self);
        });
    if (sent) {
      return;
    }
    // The replica died between the pick and the send; its alive() flag
    // is already down, so the next iteration picks someone else (or
    // runs out of attempts/candidates and fails loudly below).
  }
  Result r;
  r.status = Status::kRejected;
  finish(flight, std::move(r));
}

int Balancer::pick_replica(const std::vector<bool>& tried) {
  // Candidates: live replicas not yet tried by this flight; when every
  // live replica was already tried (it died and came back), allow
  // re-tries -- the attempts cap still bounds the flight.
  std::vector<std::size_t> cand;
  cand.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i]->alive() && !tried[i]) {
      cand.push_back(i);
    }
  }
  if (cand.empty()) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->alive()) {
        cand.push_back(i);
      }
    }
  }
  if (cand.empty()) {
    return -1;
  }
  if (cand.size() == 1) {
    return static_cast<int>(cand[0]);
  }
  // Power of two choices: sample two distinct candidates, score each by
  // outstanding work (our in-flight + the replica's last reported
  // admitted-not-completed count), route to the lighter one.
  const std::size_t a = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(cand.size()) - 1));
  std::size_t b = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(cand.size()) - 2));
  if (b >= a) {
    ++b;
  }
  const auto score = [this](std::size_t i) {
    return static_cast<std::uint64_t>(clients_[i]->in_flight()) +
           clients_[i]->stats().queue_depth;
  };
  return static_cast<int>(score(cand[a]) <= score(cand[b]) ? cand[a]
                                                           : cand[b]);
}

void Balancer::finish(const std::shared_ptr<Flight>& flight, Result res) {
  if (flight->finished.exchange(true)) {
    return;
  }
  res.total_us = us_since(flight->start);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (res.status == Status::kRejected) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  flight->done(std::move(res));
}

void Balancer::fill_stats(wire::StatsFrame& out) {
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.completed = completed_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.invalid = shape_gated_.load(std::memory_order_relaxed);
  for (const auto& client : clients_) {
    if (!client->has_stats()) {
      continue;
    }
    const wire::StatsFrame s = client->stats();
    out.deadline_exceeded += s.deadline_exceeded;
    out.errors += s.errors;
    out.queue_depth += s.queue_depth;
    out.canaries_sent += s.canaries_sent;
    out.canary_failures += s.canary_failures;
    out.rewrites += s.rewrites;
    // A fleet has no single "last" rewrite; report the slowest replica's.
    out.rewrite_us_last = std::max(out.rewrite_us_last, s.rewrite_us_last);
    for (const auto& m : s.models) {
      auto it = std::find_if(out.models.begin(), out.models.end(),
                             [&](const wire::StatsModel& e) {
                               return e.id == m.id;
                             });
      if (it == out.models.end()) {
        out.models.push_back(m);
      } else {
        it->queue_depth += m.queue_depth;
        it->completed += m.completed;
        if (it->input_size == 0) {
          it->input_size = m.input_size;
        }
      }
    }
  }
  std::sort(out.models.begin(), out.models.end(),
            [](const wire::StatsModel& a, const wire::StatsModel& b) {
              return a.id < b.id;
            });
  for (const auto& client : clients_) {
    out.queue_depth += client->in_flight();
  }
}

wire::ModelAdminFrame Balancer::handle_model_admin(
    const wire::ModelAdminFrame& req) {
  wire::ModelAdminFrame resp;
  resp.response = true;
  resp.request_id = req.request_id;
  resp.op = req.op;
  resp.model_id = req.model_id;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      resp.status = Status::kRejected;
      resp.message = "balancer is shut down";
      return resp;
    }
  }
  // Fan out to every live replica; each ack (or connection death) ticks
  // the join counter on that client's I/O thread while this thread
  // blocks on the condition variable -- never a self-wait, since admin
  // ops only ever run on frontend/caller threads.
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t outstanding = 0;
    std::size_t deaths = 0;
    std::vector<wire::ModelAdminFrame> acks;
  };
  auto join = std::make_shared<Join>();
  std::size_t sent = 0;
  for (auto& client : clients_) {
    if (!client->alive()) {
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(join->mu);
      ++join->outstanding;
    }
    const bool queued = client->admin(
        req,
        [join](wire::ModelAdminFrame ack) {
          const std::lock_guard<std::mutex> lock(join->mu);
          join->acks.push_back(std::move(ack));
          --join->outstanding;
          join->cv.notify_all();
        },
        [join] {
          const std::lock_guard<std::mutex> lock(join->mu);
          ++join->deaths;
          --join->outstanding;
          join->cv.notify_all();
        });
    if (queued) {
      ++sent;
    } else {
      const std::lock_guard<std::mutex> lock(join->mu);
      --join->outstanding;  // raced a teardown: neither handler will run
    }
  }
  if (sent == 0) {
    resp.status = Status::kRejected;
    resp.message = "no live replica";
    return resp;
  }
  std::size_t timed_out = 0;
  {
    std::unique_lock<std::mutex> lock(join->mu);
    join->cv.wait_for(lock, std::chrono::milliseconds(cfg_.admin_timeout_ms),
                      [&] { return join->outstanding == 0; });
    timed_out = join->outstanding;
  }
  // Aggregate under join->mu-free reads: after the wait, every handler
  // that will ever run for a counted attempt has either run or is a
  // straggler we report as timed out (its late ack mutates only `join`,
  // which outlives this frame via the shared_ptr captures).
  std::vector<wire::ModelAdminFrame> acks;
  std::size_t deaths = 0;
  {
    const std::lock_guard<std::mutex> lock(join->mu);
    acks = join->acks;
    deaths = join->deaths;
  }
  resp.status = Status::kOk;
  std::size_t failures = 0;
  for (const auto& ack : acks) {
    if (ack.status != Status::kOk) {
      ++failures;
      if (resp.message.empty()) {
        resp.message = ack.message;
      }
    }
    for (const auto& id : ack.models) {
      resp.models.push_back(id);
    }
  }
  std::sort(resp.models.begin(), resp.models.end());
  resp.models.erase(std::unique(resp.models.begin(), resp.models.end()),
                    resp.models.end());
  if (failures > 0) {
    resp.status = Status::kInvalidArgument;
    resp.message = std::to_string(failures) + "/" + std::to_string(sent) +
                   " replicas failed: " + resp.message;
  } else if (deaths > 0 || timed_out > 0) {
    resp.status = Status::kInternalError;
    resp.message = std::to_string(deaths) + " replica connection(s) died, " +
                   std::to_string(timed_out) +
                   " timed out during the admin op";
  }
  return resp;
}

std::size_t Balancer::alive_replicas() const {
  std::size_t n = 0;
  for (const auto& client : clients_) {
    if (client->alive()) {
      ++n;
    }
  }
  return n;
}

std::size_t Balancer::known_input_size(const std::string& model) const {
  for (const auto& client : clients_) {
    if (!client->has_stats()) {
      continue;
    }
    const wire::StatsFrame s = client->stats();
    for (const auto& m : s.models) {
      if (m.id == model && m.input_size != 0) {
        return static_cast<std::size_t>(m.input_size);
      }
    }
  }
  return 0;
}

bool Balancer::wait_ready(std::size_t min_alive, std::uint32_t timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::size_t ready = 0;
    for (const auto& client : clients_) {
      if (client->alive() && client->has_stats()) {
        ++ready;
      }
    }
    if (ready >= min_alive) {
      return true;
    }
    if (Clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

BalancerSnapshot Balancer::metrics() const {
  BalancerSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shape_gated = shape_gated_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.replicas.reserve(clients_.size());
  for (const auto& client : clients_) {
    ReplicaSnapshot r;
    r.address = client->address();
    r.alive = client->alive();
    r.in_flight = client->in_flight();
    r.queue_depth =
        client->has_stats() ? client->stats().queue_depth : 0;
    const auto c = client->counters();
    r.requests = c.requests;
    r.deaths = c.deaths;
    s.replicas.push_back(std::move(r));
  }
  return s;
}

void Balancer::shutdown() {
  const std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) {
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  // Each shutdown fails that client's in-flight requests through their
  // death handlers; the re-dispatch sees draining_ and finishes them
  // kRejected, so every accepted request still resolves.
  for (const auto& client : clients_) {
    client->shutdown();
  }
  joined_ = true;
}

}  // namespace eb::serve
