// Accuracy-under-drift vs. recalibration-interval curves, with a CI gate.
//
// One point per recalibration interval R: a mapped electrical model
// serves through a Gateway on a VirtualClock while a serve::DriftMonitor
// ages its crossbars (dev::DriftParams::realistic()) and probes canaries
// every R virtual seconds, rewriting when the round falls below the
// accuracy floor. The bench drives virtual time one epoch at a time --
// advance exactly R, wait for the epoch to land -- so every epoch's
// drift age is exact and the whole lifetime costs only real compute, no
// wall-clock sleeps. Longer intervals let the crossbars age further
// between probes, so mean canary accuracy falls with R: that curve is
// the report.
//
// After every rewrite the bench re-probes the canaries immediately
// (clock frozen, table freshly cleared): post-recalibration accuracy
// must recover to gold. Closed-loop tenant traffic runs through every
// phase; the accounting gate demands zero dropped requests -- every
// submission resolves kOk, nothing rejected, nothing lost during any
// rewrite.
//
// mode=ci gates against bench/baselines/drift_recal_ci.json
// (post_recal_accuracy_min, max_dropped, min_rewrites) and exits 1 on
// violation; the serve-load CI job runs exactly that and uploads the
// JSON curve as an artifact.
//
// Usage (strict key=value args -- unknown keys fail loudly):
//   drift_recal                      # full sweep
//   drift_recal mode=smoke           # small-model quick run
//   drift_recal mode=ci json=drift_recal_report.json
//               baseline=bench/baselines/drift_recal_ci.json
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline.hpp"
#include "bnn/tensor.hpp"
#include "common/bitvec.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "device/drift.hpp"
#include "device/noise.hpp"
#include "mapping/executor.hpp"
#include "mapping/task.hpp"
#include "serve/drift_monitor.hpp"
#include "serve/gateway.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace {

using eb::BitVec;
using eb::Config;
using eb::Rng;
using eb::VirtualClock;
using eb::bench::json_number_field;
using eb::bnn::Tensor;
using eb::serve::DeadlineClass;
using eb::serve::DriftMonitor;
using eb::serve::DriftMonitorConfig;
using eb::serve::Gateway;
using eb::serve::GatewayConfig;
using eb::serve::ModelConfig;
using eb::serve::Result;
using eb::serve::Status;

Tensor tensor_of(const BitVec& bits, std::size_t m) {
  Tensor t({m});
  for (std::size_t j = 0; j < m; ++j) {
    t[j] = bits.get(j) ? 1.0 : 0.0;
  }
  return t;
}

double exact_fraction(const Tensor& got,
                      const std::vector<std::size_t>& gold) {
  if (got.size() != gold.size()) {
    return 0.0;
  }
  std::size_t hits = 0;
  for (std::size_t j = 0; j < gold.size(); ++j) {
    hits += std::llround(got[j]) == static_cast<long long>(gold[j]) ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(gold.size());
}

// One curve point: lifetime statistics of serving under drift with
// canary checks every `interval_s` virtual seconds.
struct IntervalResult {
  double interval_s = 0.0;
  std::size_t epochs = 0;
  std::size_t rewrites = 0;
  double mean_accuracy = 1.0;      // per-epoch canary accuracy, averaged
  double min_accuracy = 1.0;       // worst epoch
  double post_recal_accuracy = 1.0;  // worst re-probe right after a rewrite
  std::size_t traffic_sent = 0;
  std::size_t traffic_ok = 0;
  std::size_t dropped = 0;  // admitted but not completed, or non-kOk
};

struct Workload {
  eb::map::XnorPopcountTask task;
  std::vector<std::vector<std::size_t>> gold;
};

IntervalResult run_interval(const Workload& w, double interval_s,
                            std::size_t epochs, double accuracy_floor) {
  IntervalResult out;
  out.interval_s = interval_s;

  eb::map::MappedExecutorOptions opt;
  opt.xbar_rows = 64;
  opt.xbar_cols = 64;
  std::shared_ptr<const eb::map::MappedExecutor> exec =
      eb::map::make_mapped_executor("electrical", w.task.weights, opt);

  VirtualClock vclock;
  GatewayConfig gcfg;
  gcfg.pool_threads = 0;
  gcfg.clock = &vclock;
  for (auto& cls : gcfg.classes) {
    cls.default_deadline_us = 0;  // virtual jumps must not expire tenants
  }
  Gateway gw(gcfg);
  ModelConfig mcfg;
  mcfg.server.max_batch = 4;
  mcfg.server.batching_window_us = 0;  // batches close without clock help
  gw.register_model("pcm", exec, std::make_shared<eb::dev::NoNoise>(), mcfg);

  // Closed-loop tenant traffic through every epoch and rewrite.
  std::atomic<bool> stop_traffic{false};
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> ok{0};
  std::thread traffic([&] {
    std::size_t i = 0;
    while (!stop_traffic.load(std::memory_order_relaxed)) {
      const auto& x = w.task.inputs[i % w.task.inputs.size()];
      Result r = gw.submit("pcm", tensor_of(x, w.task.m()),
                           DeadlineClass::kInteractive)
                     .get();
      sent.fetch_add(1, std::memory_order_relaxed);
      ok.fetch_add(r.status == Status::kOk ? 1 : 0,
                   std::memory_order_relaxed);
      ++i;
    }
  });

  DriftMonitorConfig dcfg;
  dcfg.model = "pcm";
  dcfg.exec = exec;
  // Milder than DriftParams::realistic(): scoring is element-exact, and
  // nu = 0.05 collapses every interval >= 10 s straight to 0, flattening
  // the curve. A gentler exponent keeps the decay resolvable across the
  // decade sweep while exercising the identical drift/rewrite machinery.
  dcfg.drift.nu = 0.005;
  dcfg.drift.nu_sigma = 0.002;
  for (std::size_t i = 0; i < w.task.inputs.size(); ++i) {
    eb::serve::Canary probe;
    probe.input = tensor_of(w.task.inputs[i], w.task.m());
    probe.gold = w.gold[i];
    dcfg.canaries.push_back(std::move(probe));
  }
  dcfg.interval_us =
      static_cast<std::uint64_t>(std::llround(interval_s * 1e6));
  dcfg.min_accuracy = accuracy_floor;
  dcfg.clock = &vclock;
  DriftMonitor mon(gw, dcfg);

  double accuracy_sum = 0.0;
  bool stalled = false;
  for (std::size_t e = 1; e <= epochs && !stalled; ++e) {
    const std::size_t rewrites_before = mon.rewrites();
    vclock.advance_us(dcfg.interval_us);
    for (int spin = 0; spin < 30000 && mon.epochs() < e; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (mon.epochs() < e) {
      std::fprintf(stderr, "FAIL: epoch %zu stalled at interval %.0fs\n", e,
                   interval_s);
      stalled = true;
      break;
    }
    const double acc = mon.last_accuracy();
    accuracy_sum += acc;
    out.min_accuracy = std::min(out.min_accuracy, acc);
    if (mon.rewrites() > rewrites_before) {
      // A rewrite just landed: re-probe with the clock frozen -- the
      // recalibrated crossbars must answer gold again right now.
      for (std::size_t i = 0; i < dcfg.canaries.size(); ++i) {
        Result r = gw.submit("pcm", dcfg.canaries[i].input,
                             DeadlineClass::kBestEffort)
                       .get();
        const double f =
            r.status == Status::kOk ? exact_fraction(r.output, w.gold[i])
                                    : 0.0;
        out.post_recal_accuracy = std::min(out.post_recal_accuracy, f);
      }
    }
  }
  out.epochs = mon.epochs();
  out.rewrites = mon.rewrites();
  out.mean_accuracy =
      out.epochs > 0 ? accuracy_sum / static_cast<double>(out.epochs) : 1.0;

  stop_traffic.store(true);
  traffic.join();
  mon.stop();

  const auto snap = gw.metrics();
  out.traffic_sent = sent.load();
  out.traffic_ok = ok.load();
  out.dropped = (snap.submitted - snap.completed) + snap.rejected +
                (out.traffic_sent - out.traffic_ok);
  if (stalled) {
    out.dropped += 1;  // make the stall trip the gate too
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = Config::from_args(argc, argv,
                            {"mode", "json", "baseline", "epochs"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 2;
  }
  const std::string mode = cfg.get_string("mode", "sweep");
  const bool smoke = mode == "smoke" || mode == "ci";

  // Fixed workload: gold is the packed reference, exact by construction.
  Rng rng(0xD21F7);
  Workload w{eb::map::XnorPopcountTask::random(smoke ? 96 : 256,
                                               smoke ? 48 : 128,
                                               smoke ? 4 : 8, rng),
             {}};
  w.gold = w.task.reference();

  const auto epochs = static_cast<std::size_t>(
      cfg.get_int("epochs", smoke ? 6 : 12));
  const double floor = 0.99;
  // Recalibration-interval sweep, virtual seconds. t0 = 1 s, so 1 s of
  // age is factor-1 (healthy) and 10^4 s is deep decay.
  const std::vector<double> intervals = {1.0, 10.0, 100.0, 1000.0, 10000.0};

  std::printf("== drift_recal (%s): accuracy under drift vs. "
              "recalibration interval, floor %.2f ==\n",
              mode.c_str(), floor);
  std::vector<IntervalResult> curve;
  for (const double interval_s : intervals) {
    curve.push_back(run_interval(w, interval_s, epochs, floor));
    const auto& r = curve.back();
    std::printf("interval %7.0fs: %zu epochs, %zu rewrites, mean acc "
                "%.4f, min acc %.4f, post-recal %.4f, traffic %zu/%zu ok, "
                "dropped %zu\n",
                r.interval_s, r.epochs, r.rewrites, r.mean_accuracy,
                r.min_accuracy, r.post_recal_accuracy, r.traffic_ok,
                r.traffic_sent, r.dropped);
  }

  // JSON report (the CI artifact).
  const std::string json_path = cfg.get_string("json", "");
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n  \"bench\": \"drift_recal\",\n  \"mode\": \"" << mode
       << "\",\n  \"accuracy_floor\": " << floor << ",\n  \"epochs\": "
       << epochs << ",\n  \"curve\": [\n";
    for (std::size_t i = 0; i < curve.size(); ++i) {
      const auto& r = curve[i];
      os << "    {\"interval_s\": " << r.interval_s
         << ", \"epochs\": " << r.epochs << ", \"rewrites\": " << r.rewrites
         << ", \"mean_accuracy\": " << r.mean_accuracy
         << ", \"min_accuracy\": " << r.min_accuracy
         << ", \"post_recal_accuracy\": " << r.post_recal_accuracy
         << ", \"traffic_sent\": " << r.traffic_sent
         << ", \"traffic_ok\": " << r.traffic_ok
         << ", \"dropped\": " << r.dropped << "}"
         << (i + 1 < curve.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    std::ofstream outf(json_path);
    outf << os.str();
    std::printf("report written to %s\n", json_path.c_str());
  }

  // CI gate.
  if (mode == "ci") {
    const std::string baseline_path = cfg.get_string("baseline", "");
    std::string text;
    if (!eb::bench::read_baseline(baseline_path, text)) {
      return 1;
    }
    const double recal_min =
        json_number_field(text, "post_recal_accuracy_min", -1.0);
    const double max_dropped = json_number_field(text, "max_dropped", -1.0);
    const double min_rewrites = json_number_field(text, "min_rewrites", -1.0);
    if (recal_min < 0.0 || max_dropped < 0.0 || min_rewrites < 0.0) {
      std::fprintf(stderr,
                   "FAIL: baseline %s is missing post_recal_accuracy_min/"
                   "max_dropped/min_rewrites\n",
                   baseline_path.c_str());
      return 1;
    }
    std::size_t total_rewrites = 0;
    bool fail = false;
    for (const auto& r : curve) {
      total_rewrites += r.rewrites;
      if (r.rewrites > 0 && r.post_recal_accuracy < recal_min) {
        std::fprintf(stderr,
                     "FAIL: interval %.0fs post-recal accuracy %.4f < "
                     "%.4f\n",
                     r.interval_s, r.post_recal_accuracy, recal_min);
        fail = true;
      }
      if (static_cast<double>(r.dropped) > max_dropped) {
        std::fprintf(stderr, "FAIL: interval %.0fs dropped %zu requests\n",
                     r.interval_s, r.dropped);
        fail = true;
      }
    }
    // The sweep must actually exercise the rewrite path (long intervals
    // age deep enough to trip the floor) or the gate is vacuous.
    if (static_cast<double>(total_rewrites) < min_rewrites) {
      std::fprintf(stderr, "FAIL: only %zu rewrites across the sweep\n",
                   total_rewrites);
      fail = true;
    }
    if (fail) {
      return 1;
    }
    std::printf("ci gate: PASS (post-recal accuracy >= %.2f, zero dropped, "
                "%zu rewrites)\n",
                recal_min, total_rewrites);
  }
  return 0;
}
