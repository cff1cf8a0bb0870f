#include "serve/gateway.hpp"

#include <cstdio>
#include <limits>
#include <utility>

#include "bnn/format.hpp"
#include "common/error.hpp"

namespace eb::serve {

namespace {

std::size_t class_index(DeadlineClass cls) {
  const auto c = static_cast<std::size_t>(cls);
  EB_REQUIRE(c < kNumClasses, "invalid deadline class");
  return c;
}

}  // namespace

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

/// Registry slot: the model's server and its admission shape gate.
struct Gateway::ModelEntry {
  std::string id;
  std::size_t input_size = 0;  // 0 = unchecked
  /// Set only for load_model() registrations: the gateway owns the
  /// decoded network. Declared before `server` so the server (which
  /// borrows the network) is destroyed first.
  std::shared_ptr<const bnn::Network> owned_net;
  std::unique_ptr<Server> server;
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
  ServerConfig scfg = mcfg.server;
  // The class partitions bound admission; a server-side bound could only
  // turn a request the gateway admitted into a kRejected.
  scfg.queue_capacity = std::numeric_limits<std::size_t>::max();
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    scfg.class_weights[c] = cfg_.classes[c].weight;
  }
  if (scfg.clock == nullptr) {
    // Model servers tick on the gateway's clock unless a registration
    // injects its own: one VirtualClock drives admission deadlines AND
    // every model's batching windows.
    scfg.clock = cfg_.clock;
  }
  auto entry = std::make_shared<ModelEntry>();
  entry->id = id;
  entry->input_size = mcfg.input_size;
  entry->owned_net = std::move(owned);
  entry->server = make_server(scfg);
  const std::lock_guard<std::mutex> lock(mu_);
  EB_REQUIRE(!draining_, "register_model after shutdown");
  EB_REQUIRE(models_.count(id) == 0,
             "model id '" + id + "' is already registered");
  models_[id] = entry;
}

bool Gateway::unregister_model(const std::string& id) {
  std::shared_ptr<ModelEntry> entry;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(id);
    if (it == models_.end()) {
      return false;
    }
    entry = it->second;
    models_.erase(it);
  }
  // Every admitted request is in the server's lanes or in a batch: the
  // drain serves them all. A submission that looked the model up before
  // the erase is either served too or, once the drain has begun,
  // rejected inline by the server.
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
  std::shared_ptr<ModelEntry> entry;
  Status reject_status = Status::kRejected;
  std::size_t depth_after = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(model);
    if (it != models_.end() && it->second->input_size != 0 &&
        input.size() != it->second->input_size) {
      // Shape gate at admission: a wrong-shaped request must fail alone
      // with kInvalidArgument, never inside a batch where the handler's
      // exception would take co-batched tenants down with it.
      reject_status = Status::kInvalidArgument;
    } else if (!draining_ && it != models_.end() &&
               class_depth_[c].load(std::memory_order_relaxed) <
                   cfg_.classes[c].queue_capacity) {
      entry = it->second;
      depth_after = class_depth_[c].fetch_add(1, std::memory_order_relaxed) + 1;
    }
  }
  if (entry == nullptr) {
    // Unknown model, wrong request shape, class partition full, or
    // draining: terminal status, delivered inline.
    Result res;
    res.status = reject_status;
    finish(cls, done, std::move(res));
    return;
  }
  class_metrics_[c].record_submitted(depth_after);
  const std::uint64_t effective =
      deadline_us != 0 ? deadline_us : cfg_.classes[c].default_deadline_us;
  // `entry` keeps the server alive through this call even if
  // unregister_model() erases it meanwhile; that server is then draining
  // and completes the request kRejected inline.
  entry->server->submit_async(
      std::move(input), effective,
      [this, cls, c, done = std::move(done)](Result r) mutable {
        class_depth_[c].fetch_sub(1, std::memory_order_relaxed);
        finish(cls, done, std::move(r));
      },
      cls);
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
  std::vector<std::shared_ptr<ModelEntry>> entries;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;  // admissions closed
    entries.reserve(models_.size());
    for (const auto& [_, e] : models_) {
      entries.push_back(e);
    }
  }
  for (const auto& e : entries) {
    e->server->shutdown();  // idempotent; serves every admitted request
  }
}

GatewaySnapshot Gateway::metrics() const {
  GatewaySnapshot s;
  std::vector<std::shared_ptr<ModelEntry>> entries;
  std::array<std::size_t, kNumClasses> depth{};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      depth[c] = class_depth_[c].load(std::memory_order_relaxed);
    }
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
        ModelSnapshot{e->id, e->input_size, e->server->metrics()});
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
