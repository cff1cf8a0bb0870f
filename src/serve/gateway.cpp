#include "serve/gateway.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bnn/format.hpp"
#include "common/error.hpp"

namespace eb::serve {

namespace {

double to_us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

std::size_t class_index(DeadlineClass cls) {
  const auto c = static_cast<std::size_t>(cls);
  EB_REQUIRE(c < kNumClasses, "invalid deadline class");
  return c;
}

}  // namespace

ServerConfig default_model_server_config() {
  ServerConfig scfg;
  // Shallow server queue: backlog must pool in the gateway's admission
  // queues (where the weighted scheduler arbitrates), not in the model
  // server's FIFO.
  scfg.queue_capacity = 2 * scfg.max_batch;
  return scfg;
}

std::string GatewaySnapshot::summary() const {
  std::size_t invalid_total = 0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    invalid_total += invalid[c];
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "gateway: %zu models | served %zu/%zu ok (%zu deadline, "
                "%zu rejected, %zu invalid) | per-class ok i/b/e "
                "%zu/%zu/%zu",
                models.size(), completed, submitted, deadline_exceeded,
                rejected, invalid_total, classes[0].completed,
                classes[1].completed, classes[2].completed);
  return buf;
}

/// Registry slot: the model's server plus its DRR queue handles.
struct Gateway::ModelEntry {
  std::string id;
  double weight = 1.0;
  std::size_t input_size = 0;  // 0 = unchecked
  /// Set only for load_model() registrations: the gateway owns the
  /// decoded network. Declared before `server` so the server (which
  /// borrows the network) is destroyed first.
  std::shared_ptr<const bnn::Network> owned_net;
  std::unique_ptr<Server> server;
  std::array<std::size_t, kNumClasses> slots{};
  /// Requests a pump popped for this server but has not yet forwarded;
  /// they count against its queue capacity. Guarded by Gateway::mu_.
  std::size_t forwarding = 0;
};

Gateway::Gateway(GatewayConfig cfg)
    : cfg_(cfg), pool_(cfg.pool_threads) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    EB_REQUIRE(cfg_.classes[c].weight > 0.0, "class weight must be > 0");
    EB_REQUIRE(cfg_.classes[c].queue_capacity >= 1,
               "class queue capacity must be >= 1");
  }
}

Gateway::~Gateway() { shutdown(); }

void Gateway::register_model(const std::string& id, const bnn::Network& net,
                             ModelConfig mcfg) {
  if (mcfg.input_size == 0 && net.layer_count() > 0) {
    // MLP-style networks declare their input width on the first layer;
    // conv front-ends do not, so those stay unchecked unless the caller
    // sets ModelConfig::input_size.
    mcfg.input_size = net.layer(0).spec().in_features;
  }
  // The Network server ctor (per-worker BatchRunners, bit-exact forward
  // path) rather than a hand-rolled handler.
  install_entry(id, mcfg, [&](const ServerConfig& scfg) {
    return std::make_unique<Server>(net, pool_, scfg);
  });
}

void Gateway::register_model(const std::string& id, BatchHandler handler,
                             ModelConfig mcfg) {
  install_entry(id, mcfg, [&](const ServerConfig& scfg) {
    return std::make_unique<Server>(std::move(handler), pool_, scfg);
  });
}

void Gateway::register_model(const std::string& id,
                             std::shared_ptr<const map::MappedExecutor> exec,
                             std::shared_ptr<const dev::NoiseModel> noise,
                             ModelConfig mcfg) {
  if (mcfg.input_size == 0) {
    mcfg.input_size = exec->dims().m;  // the executors' hard requirement
  }
  register_model(id,
                 make_mapped_handler(std::move(exec), std::move(noise)),
                 mcfg);
}

void Gateway::load_model(const std::string& id, const std::string& file,
                         ModelConfig mcfg) {
  EB_REQUIRE(!cfg_.model_dir.empty(),
             "model loading is disabled: the gateway has no model_dir");
  // The wire's load op hands this name straight through, so confine it
  // to a plain file name inside model_dir -- no separators, no "..".
  EB_REQUIRE(!file.empty() && file.find('/') == std::string::npos &&
                 file.find('\\') == std::string::npos && file != "." &&
                 file != "..",
             "model file must be a plain file name, got '" + file + "'");
  auto net = std::make_shared<const bnn::Network>(
      bnn::load_network(cfg_.model_dir + "/" + file));
  if (mcfg.input_size == 0 && net->layer_count() > 0) {
    mcfg.input_size = net->layer(0).spec().in_features;
  }
  install_entry(
      id, mcfg,
      [&](const ServerConfig& scfg) {
        return std::make_unique<Server>(*net, pool_, scfg);
      },
      net);
}

void Gateway::install_entry(
    const std::string& id, const ModelConfig& mcfg,
    const std::function<std::unique_ptr<Server>(const ServerConfig&)>&
        make_server,
    std::shared_ptr<const bnn::Network> owned) {
  EB_REQUIRE(!id.empty() && id.size() <= 255,
             "model id must be 1..255 bytes");
  EB_REQUIRE(mcfg.weight > 0.0, "model weight must be > 0");
  ServerConfig scfg = mcfg.server;
  scfg.on_dequeue = [this] { pump(); };  // capacity freed: top it up
  if (scfg.clock == nullptr) {
    // Model servers tick on the gateway's clock unless a registration
    // injects its own: one VirtualClock drives admission deadlines AND
    // every model's batching windows.
    scfg.clock = cfg_.clock;
  }
  auto entry = std::make_shared<ModelEntry>();
  entry->id = id;
  entry->weight = mcfg.weight;
  entry->input_size = mcfg.input_size;
  entry->owned_net = std::move(owned);
  entry->server = make_server(scfg);
  const std::lock_guard<std::mutex> lock(mu_);
  EB_REQUIRE(!draining_, "register_model after shutdown");
  EB_REQUIRE(models_.count(id) == 0,
             "model id '" + id + "' is already registered");
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const std::size_t h =
        drr_.add_queue(mcfg.weight * cfg_.classes[c].weight);
    entry->slots[c] = h;
    if (h < slot_entry_.size()) {
      slot_entry_[h] = entry;  // reused slot of an unregistered model
    } else {
      EB_ASSERT(h == slot_entry_.size(),
                "DRR handle / slot table out of sync");
      slot_entry_.push_back(entry);
    }
  }
  models_[id] = entry;
}

bool Gateway::unregister_model(const std::string& id) {
  std::shared_ptr<ModelEntry> entry;
  std::vector<GwPending> orphans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(id);
    if (it == models_.end()) {
      return false;
    }
    entry = it->second;
    models_.erase(it);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      auto drained = drr_.remove_queue(entry->slots[c]);
      EB_ASSERT(class_depth_[c] >= drained.size(),
                "class depth accounting underflow");
      class_depth_[c] -= drained.size();
      slot_entry_[entry->slots[c]] = nullptr;
      for (auto& r : drained) {
        orphans.push_back(std::move(r));
      }
    }
  }
  cv_.notify_all();  // a shutdown() may be waiting for the queues to empty
  // Admission-queue stragglers: the model is gone before they were
  // dispatched; reject them (outside the lock -- callbacks are user code).
  for (auto& r : orphans) {
    Result res;
    res.status = Status::kRejected;
    finish(r.cls, r.done, std::move(res));
  }
  // Everything already forwarded drains inside the model's server; any
  // dispatch racing this shutdown gets the server's kRejected, which the
  // forward callback passes through. Every accepted request is fulfilled.
  entry->server->shutdown();
  return true;
}

std::vector<std::string> Gateway::model_ids() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [id, _] : models_) {
    ids.push_back(id);
  }
  return ids;
}

bool Gateway::has_model(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return models_.count(id) != 0;
}

std::future<Result> Gateway::submit(const std::string& model,
                                    bnn::Tensor input, DeadlineClass cls,
                                    std::uint64_t deadline_us) {
  auto p = std::make_shared<std::promise<Result>>();
  auto fut = p->get_future();
  submit_async(model, std::move(input), cls, deadline_us,
               [p](Result r) { p->set_value(std::move(r)); });
  return fut;
}

void Gateway::submit_async(const std::string& model, bnn::Tensor input,
                           DeadlineClass cls, std::uint64_t deadline_us,
                           Completion done) {
  EB_REQUIRE(done != nullptr, "submit_async needs a completion callback");
  const std::size_t c = class_index(cls);
  GwPending r;
  r.input = std::move(input);
  r.cls = cls;
  r.done = std::move(done);
  bool accepted = false;
  Status reject_status = Status::kRejected;
  std::size_t depth_after = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(model);
    if (it != models_.end() && it->second->input_size != 0 &&
        r.input.size() != it->second->input_size) {
      // Shape gate at admission: a wrong-shaped request must fail alone
      // with kInvalidArgument, never inside a batch where the handler's
      // exception would take co-batched tenants down with it.
      reject_status = Status::kInvalidArgument;
    } else if (!draining_ && it != models_.end() &&
               class_depth_[c] < cfg_.classes[c].queue_capacity) {
      // Timestamp under the lock: per-queue order == admission order.
      r.enqueue = clk().now();
      const std::uint64_t effective =
          deadline_us != 0 ? deadline_us : cfg_.classes[c].default_deadline_us;
      r.deadline = effective == 0
                       ? Clock::time_point::max()
                       : r.enqueue + std::chrono::microseconds(effective);
      r.entry = it->second;
      drr_.push(it->second->slots[c], std::move(r));
      depth_after = ++class_depth_[c];
      accepted = true;
    }
  }
  if (accepted) {
    class_metrics_[c].record_submitted(depth_after);
    pump();
  } else {
    // Unknown model, wrong request shape, class partition full, or
    // draining: terminal status, delivered inline.
    Result res;
    res.status = reject_status;
    finish(cls, r.done, std::move(res));
  }
}

void Gateway::pump() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto popped = drr_.pop_next([this](std::size_t h) {
      const auto& e = slot_entry_[h];
      return e != nullptr && e->server->queue_depth() + e->forwarding <
                                 e->server->config().queue_capacity;
    });
    if (!popped.has_value()) {
      // Empty, or every backlogged server is at capacity: the next
      // on_dequeue of such a server pumps again.
      return;
    }
    GwPending item = std::move(popped->second);
    const std::size_t c = class_index(item.cls);
    EB_ASSERT(class_depth_[c] > 0, "class depth accounting underflow");
    --class_depth_[c];
    const std::shared_ptr<ModelEntry> entry = item.entry;
    ++entry->forwarding;
    ++forwarding_;
    lock.unlock();
    forward(std::move(item));
    lock.lock();
    // If unregister_model() raced this forward, `entry` may now hold the
    // model's last reference and free it under mu_; that server was
    // already shut down there, so its destructor joins nothing.
    --entry->forwarding;
    --forwarding_;
    if (draining_ && forwarding_ == 0 && drr_.total_size() == 0) {
      cv_.notify_all();  // shutdown() waits for the backlog to be forwarded
    }
  }
}

void Gateway::forward(GwPending item) {
  const auto now = clk().now();
  if (now >= item.deadline) {
    // Expired while waiting for admission dispatch: terminal here, the
    // model server never sees it.
    Result res;
    res.status = Status::kDeadlineExceeded;
    res.queue_us = to_us(now - item.enqueue);
    res.total_us = res.queue_us;
    finish(item.cls, item.done, std::move(res));
    return;
  }
  std::uint64_t remaining_us = 0;  // 0 = no deadline for the server
  if (item.deadline != Clock::time_point::max()) {
    const auto rem = std::chrono::duration_cast<std::chrono::microseconds>(
        item.deadline - now);
    // >= 1: a deadline that rounds to zero must stay a deadline.
    remaining_us = std::max<std::int64_t>(rem.count(), 1);
  }
  const auto enqueue = item.enqueue;
  const DeadlineClass cls = item.cls;
  Server& server = *item.entry->server;
  server.submit_async(
      std::move(item.input), remaining_us,
      [this, enqueue, cls, done = std::move(item.done)](Result r) mutable {
        // Rebase to end-to-end latency: admission -> completion (queue_us
        // keeps the server-side queueing component).
        r.total_us = to_us(clk().now() - enqueue);
        finish(cls, done, std::move(r));
      });
}

void Gateway::finish(DeadlineClass cls, Completion& done, Result res) {
  const std::size_t c = class_index(cls);
  switch (res.status) {
    case Status::kOk:
      class_metrics_[c].record_completed(res.total_us);
      break;
    case Status::kDeadlineExceeded:
      class_metrics_[c].record_deadline_exceeded();
      break;
    case Status::kRejected:
      class_metrics_[c].record_rejected();
      break;
    case Status::kInternalError:
      class_errors_[c].fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::kInvalidArgument:
      class_invalid_[c].fetch_add(1, std::memory_order_relaxed);
      break;
  }
  done(std::move(res));
}

void Gateway::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    // Admissions are closed; the pumps that server dequeues run keep
    // forwarding the backlog until it is gone.
    cv_.wait(lock,
             [this] { return drr_.total_size() == 0 && forwarding_ == 0; });
  }
  const std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) {
    return;
  }
  std::vector<std::shared_ptr<ModelEntry>> entries;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(models_.size());
    for (const auto& [_, e] : models_) {
      entries.push_back(e);
    }
  }
  for (const auto& e : entries) {
    e->server->shutdown();  // fulfils everything already forwarded
  }
  joined_ = true;
}

GatewaySnapshot Gateway::metrics() const {
  GatewaySnapshot s;
  std::vector<std::shared_ptr<ModelEntry>> entries;
  std::array<std::size_t, kNumClasses> depth{};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    depth = class_depth_;
    entries.reserve(models_.size());
    for (const auto& [_, e] : models_) {
      entries.push_back(e);
    }
  }
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    s.classes[c] = class_metrics_[c].snapshot(depth[c]);
    s.errors[c] = class_errors_[c].load(std::memory_order_relaxed);
    s.invalid[c] = class_invalid_[c].load(std::memory_order_relaxed);
    s.submitted += s.classes[c].submitted;
    s.completed += s.classes[c].completed;
    s.deadline_exceeded += s.classes[c].deadline_exceeded;
    s.rejected += s.classes[c].rejected;
  }
  s.canaries_sent = canaries_sent_.load(std::memory_order_relaxed);
  s.canary_failures = canary_failures_.load(std::memory_order_relaxed);
  s.rewrites = rewrites_.load(std::memory_order_relaxed);
  s.rewrite_us_last = rewrite_us_last_.load(std::memory_order_relaxed);
  s.models.reserve(entries.size());
  for (const auto& e : entries) {
    s.models.push_back(
        ModelSnapshot{e->id, e->weight, e->input_size, e->server->metrics()});
  }
  return s;
}

void Gateway::record_canary(bool ok) {
  canaries_sent_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    canary_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Gateway::record_rewrite(std::uint64_t duration_us) {
  rewrites_.fetch_add(1, std::memory_order_relaxed);
  rewrite_us_last_.store(duration_us, std::memory_order_relaxed);
}

}  // namespace eb::serve
