// Multi-model gateway load bench: two named models x two deadline
// classes through one serve::Gateway, with a per-class latency report and
// a CI gate on per-class p99 + weighted-fairness ratio.
//
// Two phases, each on a fresh gateway so its per-class metrics describe
// exactly one traffic shape:
//
//  * rated    -- open-loop Poisson streams (fixed arrival seeds) for every
//                (model, class) pair at a fraction of the calibrated
//                serving rate; reports per-class p50/p99 and checks the
//                accounting invariant (nothing lost, nothing dropped).
//  * saturated -- preloads one model's interactive (weight 3) and batch
//                (weight 1) class lanes and measures the interactive
//                share of the completion-order prefix while both classes
//                stay backlogged: the model server's weighted-deficit
//                batch formation must land the served-throughput ratio
//                near 3:1.
//
// mode=ci additionally gates against bench/baselines/gateway_load_ci.json
// (per-class p99 budgets + allowed fairness-ratio band) and exits 1 on
// violation; the gateway-load CI step runs exactly that.
//
// Usage (strict key=value args -- unknown keys fail loudly):
//   gateway_load                        # default sweep-size run
//   gateway_load mode=smoke             # ~2 s small-model run
//   gateway_load mode=ci json=gateway_load_report.json
//                baseline=bench/baselines/gateway_load_ci.json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
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
#include "serve/metrics.hpp"
#include "serve/router.hpp"

namespace {

using eb::Config;
using eb::RngStream;
using eb::bench::json_number_field;
using eb::bnn::Network;
using eb::bnn::Tensor;
using eb::serve::DeadlineClass;
using eb::serve::Gateway;
using eb::serve::GatewayConfig;
using eb::serve::MetricsSnapshot;
using eb::serve::ModelConfig;
using eb::serve::Result;
using eb::serve::Status;
using Clock = std::chrono::steady_clock;

constexpr auto kInteractive = DeadlineClass::kInteractive;
constexpr auto kBatch = DeadlineClass::kBatch;

std::size_t cls_idx(DeadlineClass c) { return static_cast<std::size_t>(c); }

std::vector<Tensor> make_inputs(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  RngStream rng(seed);
  std::vector<Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Tensor::random_uniform({dim}, 1.0, rng));
  }
  return inputs;
}

// Gateway-wide config for this bench: interactive weighs 3x batch, no
// default deadlines (latency is reported, not enforced, so p99 stays a
// complete-sample statistic).
GatewayConfig gateway_config(std::size_t threads) {
  GatewayConfig gcfg;
  gcfg.pool_threads = threads;
  gcfg.classes[cls_idx(kInteractive)] = {3.0, 0, 1 << 16};
  gcfg.classes[cls_idx(kBatch)] = {1.0, 0, 1 << 16};
  return gcfg;
}

ModelConfig model_config(const Config& cfg) {
  ModelConfig mcfg;
  mcfg.server.max_batch =
      static_cast<std::size_t>(cfg.get_int("max_batch", 16));
  mcfg.server.batching_window_us =
      static_cast<std::uint64_t>(cfg.get_int("window_us", 1000));
  mcfg.server.workers = static_cast<std::size_t>(cfg.get_int("workers", 1));
  return mcfg;
}

// Serving rate of one model through the gateway (closed loop, batch
// class): the anchor the rated phase expresses offered load against.
double calibrate_rps(Gateway& gw, const std::string& model,
                     const std::vector<Tensor>& inputs, std::size_t n) {
  const auto t0 = Clock::now();
  std::vector<std::future<Result>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(gw.submit(model, inputs[i % inputs.size()], kBatch));
  }
  std::size_t ok = 0;
  for (auto& f : futures) {
    ok += f.get().status == Status::kOk ? 1 : 0;
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s > 0.0 && ok > 0 ? static_cast<double>(ok) / s : 1000.0;
}

struct RatedResult {
  double offered_rps_per_stream = 0.0;
  std::array<MetricsSnapshot, eb::serve::kNumClasses> classes;
};

// Open-loop Poisson traffic on every (model, class) stream at
// `offered_rps_per_stream`, all submissions from one pacing thread per
// stream with a fixed seed (reproducible schedules).
RatedResult run_rated(Gateway& gw, const std::vector<std::string>& models,
                      const std::vector<std::vector<Tensor>>& inputs,
                      double offered_rps_per_stream, double duration_s) {
  std::vector<std::thread> streams;
  std::mutex mu;
  std::vector<std::future<Result>> futures;
  std::uint64_t seed = 0xA771BA1;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (const auto cls : {kInteractive, kBatch}) {
      const std::uint64_t stream_seed = seed++;
      streams.emplace_back([&, m, cls, stream_seed] {
        RngStream arrivals(stream_seed);
        const auto n = static_cast<std::size_t>(
            std::max(8.0, offered_rps_per_stream * duration_s));
        auto next = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
          std::this_thread::sleep_until(next);
          auto fut =
              gw.submit(models[m], inputs[m][i % inputs[m].size()], cls);
          {
            const std::lock_guard<std::mutex> lock(mu);
            futures.push_back(std::move(fut));
          }
          const double gap_s = -std::log(1.0 - arrivals.uniform()) /
                               offered_rps_per_stream;
          next += std::chrono::nanoseconds(
              static_cast<std::int64_t>(gap_s * 1e9));
        }
      });
    }
  }
  for (auto& t : streams) {
    t.join();
  }
  for (auto& f : futures) {
    f.wait();  // completion under any status -- nothing may be dropped
  }
  RatedResult r;
  r.offered_rps_per_stream = offered_rps_per_stream;
  r.classes = gw.metrics().classes;
  return r;
}

// Saturates one model from both classes and measures the interactive
// share of the first `window` completions (both classes backlogged for
// that whole prefix by construction).
double run_saturated(Gateway& gw, const std::string& model,
                     const std::vector<Tensor>& inputs,
                     std::size_t per_class) {
  std::mutex mu;
  std::vector<DeadlineClass> order;
  std::vector<std::future<Result>> futures;
  for (std::size_t i = 0; i < per_class; ++i) {
    for (const auto cls : {kInteractive, kBatch}) {
      auto p = std::make_shared<std::promise<Result>>();
      futures.push_back(p->get_future());
      gw.submit_async(model, inputs[i % inputs.size()], cls,
                      /*deadline_us=*/0, [&, cls, p](Result r) {
                        {
                          const std::lock_guard<std::mutex> lock(mu);
                          order.push_back(cls);
                        }
                        p->set_value(std::move(r));
                      });
    }
  }
  for (auto& f : futures) {
    (void)f.get();
  }
  std::size_t interactive = 0;
  const std::size_t window = per_class;  // batch alone cannot finish sooner
  for (std::size_t i = 0; i < window; ++i) {
    interactive += order[i] == kInteractive ? 1 : 0;
  }
  return static_cast<double>(interactive) /
         static_cast<double>(window - interactive);
}

void json_class(std::ostringstream& os, const char* name,
                const MetricsSnapshot& s, bool last) {
  os << "    \"" << name << "\": {\"submitted\": " << s.submitted
     << ", \"completed\": " << s.completed
     << ", \"deadline_exceeded\": " << s.deadline_exceeded
     << ", \"rejected\": " << s.rejected
     << ", \"latency_p50_us\": " << s.latency_p50_us
     << ", \"latency_p95_us\": " << s.latency_p95_us
     << ", \"latency_p99_us\": " << s.latency_p99_us
     << ", \"latency_max_us\": " << s.latency_max_us << "}"
     << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Strict flag set: a mistyped key fails loudly (clean exit, not an
  // uncaught-exception abort).
  Config cfg;
  try {
    cfg = Config::from_args(
        argc, argv,
        {"mode", "json", "baseline", "duration_s", "workers", "threads",
         "max_batch", "window_us", "per_class"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 2;
  }
  const std::string mode = cfg.get_string("mode", "sweep");
  const bool smoke = mode == "smoke" || mode == "ci";

  // Two named models of different shapes -- the registry's whole point.
  eb::RngStream model_rng(17);
  const Network net_a =
      smoke ? eb::bnn::build_mlp("gw-mlp-a", {128, 128, 10}, model_rng)
            : eb::bnn::build_mlp("gw-mlp-a", {512, 512, 10}, model_rng);
  const Network net_b =
      smoke ? eb::bnn::build_mlp("gw-mlp-b", {96, 96, 8}, model_rng)
            : eb::bnn::build_mlp("gw-mlp-b", {256, 256, 8}, model_rng);
  const std::size_t dim_a = smoke ? 128 : 512;
  const std::size_t dim_b = smoke ? 96 : 256;
  const std::vector<std::string> models = {"mlp-a", "mlp-b"};
  const std::vector<std::vector<Tensor>> inputs = {
      make_inputs(64, dim_a, 0xBEEF), make_inputs(64, dim_b, 0xCAFE)};

  const auto threads =
      static_cast<std::size_t>(cfg.get_int("threads", 1));
  const ModelConfig mcfg = model_config(cfg);
  const double duration_s = cfg.get_double("duration_s", smoke ? 0.5 : 2.0);

  std::printf("== gateway_load (%s): 2 models x 2 classes, weights 3:1 ==\n",
              mode.c_str());

  // Calibration gateway (scrapped afterwards so phase metrics stay pure).
  double cal_rps = 0.0;
  {
    Gateway gw(gateway_config(threads));
    gw.register_model(models[0], net_a, mcfg);
    gw.register_model(models[1], net_b, mcfg);
    const std::size_t n = smoke ? 400 : 1500;
    const double rps_a = calibrate_rps(gw, models[0], inputs[0], n);
    const double rps_b = calibrate_rps(gw, models[1], inputs[1], n);
    cal_rps = std::min(rps_a, rps_b);
    std::printf("calibration: mlp-a %.0f req/s, mlp-b %.0f req/s\n", rps_a,
                rps_b);
  }

  // Rated phase: each of the 4 (model, class) streams offers 1/8 of the
  // slower model's calibrated rate -- half the fleet's capacity in total.
  RatedResult rated;
  {
    Gateway gw(gateway_config(threads));
    gw.register_model(models[0], net_a, mcfg);
    gw.register_model(models[1], net_b, mcfg);
    rated = run_rated(gw, models, inputs, cal_rps / 8.0, duration_s);
  }
  const auto& icls = rated.classes[cls_idx(kInteractive)];
  const auto& bcls = rated.classes[cls_idx(kBatch)];
  std::printf("rated   interactive: %zu ok  p50 %7.0fus  p99 %7.0fus\n",
              icls.completed, icls.latency_p50_us, icls.latency_p99_us);
  std::printf("rated   batch      : %zu ok  p50 %7.0fus  p99 %7.0fus\n",
              bcls.completed, bcls.latency_p50_us, bcls.latency_p99_us);
  for (const auto* c : {&icls, &bcls}) {
    if (c->submitted !=
        c->completed + c->deadline_exceeded) {  // all resolved, none lost
      std::fprintf(stderr, "FAIL: rated-phase accounting leak\n");
      return 1;
    }
  }

  // Saturated phase: weighted fairness on model A.
  double fairness = 0.0;
  {
    Gateway gw(gateway_config(threads));
    ModelConfig tight = mcfg;
    tight.server.max_batch = std::max<std::size_t>(1, mcfg.server.max_batch / 4);
    tight.server.batching_window_us = 0;
    gw.register_model(models[0], net_a, tight);
    const auto per_class = static_cast<std::size_t>(
        cfg.get_int("per_class", smoke ? 300 : 1000));
    fairness = run_saturated(gw, models[0], inputs[0], per_class);
  }
  std::printf("saturated fairness: interactive/batch admitted-throughput "
              "ratio %.2f (weights 3:1)\n",
              fairness);

  // JSON report.
  const std::string json_path = cfg.get_string("json", "");
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n"
       << "  \"bench\": \"gateway_load\",\n"
       << "  \"mode\": \"" << mode << "\",\n"
       << "  \"models\": [\"" << net_a.name() << "\", \"" << net_b.name()
       << "\"],\n"
       << "  \"calibrated_rps\": " << cal_rps << ",\n"
       << "  \"rated\": {\n"
       << "    \"offered_rps_per_stream\": "
       << rated.offered_rps_per_stream << ",\n";
    json_class(os, "interactive", icls, false);
    json_class(os, "batch", bcls, true);
    os << "  },\n"
       << "  \"saturated\": {\"fairness_ratio\": " << fairness
       << ", \"weight_ratio\": 3.0}\n"
       << "}\n";
    std::ofstream out(json_path);
    out << os.str();
    std::printf("report written to %s\n", json_path.c_str());
  }

  // CI gate: per-class p99 budgets + fairness band from the baseline.
  if (mode == "ci") {
    const std::string baseline_path = cfg.get_string("baseline", "");
    std::string text;
    if (!eb::bench::read_baseline(baseline_path, text)) {
      return 1;
    }
    const double i_budget =
        json_number_field(text, "interactive_p99_budget_us", 0.0);
    const double b_budget =
        json_number_field(text, "batch_p99_budget_us", 0.0);
    const double fair_min = json_number_field(text, "fairness_min", 0.0);
    const double fair_max = json_number_field(text, "fairness_max", 0.0);
    if (i_budget <= 0.0 || b_budget <= 0.0 || fair_min <= 0.0 ||
        fair_max <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: baseline %s is missing interactive_p99_budget_us/"
                   "batch_p99_budget_us/fairness_min/fairness_max\n",
                   baseline_path.c_str());
      return 1;
    }
    std::printf("\nci gate: interactive p99 %.0f us (budget %.0f), batch "
                "p99 %.0f us (budget %.0f), fairness %.2f (band "
                "[%.2f, %.2f])\n",
                icls.latency_p99_us, i_budget, bcls.latency_p99_us,
                b_budget, fairness, fair_min, fair_max);
    bool fail = false;
    if (icls.latency_p99_us > i_budget) {
      std::fprintf(stderr, "FAIL: interactive p99 exceeds budget\n");
      fail = true;
    }
    if (bcls.latency_p99_us > b_budget) {
      std::fprintf(stderr, "FAIL: batch p99 exceeds budget\n");
      fail = true;
    }
    if (fairness < fair_min || fairness > fair_max) {
      std::fprintf(stderr,
                   "FAIL: fairness ratio %.2f outside [%.2f, %.2f]\n",
                   fairness, fair_min, fair_max);
      fail = true;
    }
    if (fail) {
      return 1;
    }
    std::printf("ci gate: PASS\n");
  }
  return 0;
}
