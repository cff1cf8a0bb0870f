// Balancer load bench: the scale-out tier's routing overhead, gated
// against direct-to-replica traffic at equal offered load.
//
// Spawns `replicas` real gateway_replica processes (the same binary the
// fork/exec integration test uses, port=0 + port_file handshake), then
// drives two closed-loop phases at a fixed in-flight window:
//
//  * direct   -- one ReplicaClient pipelining straight into replica 0:
//                the single-replica floor the balancer is judged against.
//  * balancer -- a serve::Balancer routing the same load over the whole
//                fleet (power-of-two-choices + stats-driven scoring).
//
// Both phases measure client-side latency per request (submit -> terminal
// completion) and require every request to resolve kOk. mode=ci gates
// against bench/baselines/balancer_load_ci.json: zero failures in both
// phases, balancer p99 within max_p99_ratio of direct p99, plus an
// absolute balancer p99 budget; exits 1 on violation. The scale-out CI
// lane runs exactly that.
//
// Usage (strict key=value args -- unknown keys fail loudly):
//   balancer_load replica_bin=build/gateway_replica      # default run
//   balancer_load mode=smoke replica_bin=...             # ~2 s
//   balancer_load mode=ci replica_bin=... json=balancer_load_report.json
//                 baseline=bench/baselines/balancer_load_ci.json
//   balancer_load replicas=4 requests=5000 window=64 replica_bin=...
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline.hpp"
#include "bnn/tensor.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "serve/balancer.hpp"
#include "serve/replica_client.hpp"
#include "serve/wire.hpp"

extern char** environ;

namespace {

using eb::Config;
using eb::bench::json_number_field;
using eb::bnn::Tensor;
using eb::serve::Balancer;
using eb::serve::BalancerConfig;
using eb::serve::DeadlineClass;
using eb::serve::ReplicaClient;
using eb::serve::ReplicaClientConfig;
using eb::serve::Status;
namespace wire = eb::serve::wire;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDeadlineUs = 60'000'000;

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

// ------------------------------------------------------ replica spawner --

/// One spawned gateway_replica process; stdout/stderr land in
/// balancer_load_r<i>.log (the scale-out lane uploads them on failure).
struct Replica {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string port_file;

  bool start(const std::string& bin, std::size_t index) {
    const std::string tag = "balancer_load_r" + std::to_string(index);
    port_file = tag + ".port";
    const std::string log_file = tag + ".log";
    std::remove(port_file.c_str());

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<std::string> args = {bin, "port=0", "port_file=" + port_file,
                                     "seed=17"};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const int rc =
        ::posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid = -1;
      std::fprintf(stderr, "FAIL: posix_spawn(%s): %s\n", bin.c_str(),
                   std::strerror(rc));
      return false;
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      if (std::FILE* f = std::fopen(port_file.c_str(), "r")) {
        long p = 0;
        const int got = std::fscanf(f, "%ld", &p);
        std::fclose(f);
        if (got == 1 && p > 0 && p <= 65535) {
          port = static_cast<std::uint16_t>(p);
          return true;
        }
      }
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        std::fprintf(stderr,
                     "FAIL: replica %zu exited before publishing a port "
                     "(see %s)\n",
                     index, log_file.c_str());
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::fprintf(stderr, "FAIL: timed out waiting for %s\n",
                 port_file.c_str());
    return false;
  }

  void stop() {
    if (pid <= 0) {
      return;
    }
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  ~Replica() {
    stop();
    if (!port_file.empty()) {
      std::remove(port_file.c_str());
    }
  }
};

// ---------------------------------------------------------- closed loop --

struct PhaseReport {
  std::size_t requests = 0;
  std::size_t failed = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double wall_s = 0.0;
};

/// Completion-driven closed loop: keeps `window` requests outstanding
/// until `total` were issued. `submit_one(i, done)` must arrange for
/// done(ok, latency_us) to run exactly once.
PhaseReport run_closed_loop(
    std::size_t total, std::size_t window,
    const std::function<void(std::size_t,
                             std::function<void(bool, double)>)>& submit_one) {
  PhaseReport rep;
  rep.requests = total;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;
  std::size_t completed = 0;
  std::vector<double> lat;
  lat.reserve(total);

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < total; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < window; });
      ++in_flight;
    }
    submit_one(i, [&](bool ok, double us) {
      const std::lock_guard<std::mutex> lock(mu);
      lat.push_back(us);
      if (!ok) {
        ++rep.failed;
      }
      --in_flight;
      ++completed;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == total; });
  }
  rep.wall_s = to_us(Clock::now() - t0) / 1e6;
  rep.p50_us = percentile(lat, 0.50);
  rep.p99_us = percentile(lat, 0.99);
  return rep;
}

std::vector<Tensor> make_inputs(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  eb::Rng rng(seed);
  std::vector<Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Tensor::random_uniform({dim}, 1.0, rng));
  }
  return inputs;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = Config::from_args(argc, argv,
                            {"mode", "json", "baseline", "replica_bin",
                             "replicas", "requests", "window"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "balancer_load: %s\n", e.what());
    return 2;
  }
  const std::string mode = cfg.get_string("mode", "");
  const bool smoke = mode == "smoke";
  const bool ci = mode == "ci";

  std::string bin = cfg.get_string("replica_bin", "");
  if (bin.empty()) {
    if (const char* env = std::getenv("EB_REPLICA_BIN")) {
      bin = env;
    }
  }
  if (bin.empty()) {
    std::fprintf(stderr,
                 "FAIL: replica_bin=<path to gateway_replica> (or "
                 "EB_REPLICA_BIN) is required\n");
    return 2;
  }

  const auto n_replicas = static_cast<std::size_t>(
      cfg.get_int("replicas", smoke ? 2 : 3));
  const auto requests = static_cast<std::size_t>(
      cfg.get_int("requests", smoke ? 300 : 2000));
  const auto window =
      static_cast<std::size_t>(cfg.get_int("window", smoke ? 16 : 32));

  std::vector<Replica> fleet(n_replicas);
  for (std::size_t i = 0; i < n_replicas; ++i) {
    if (!fleet[i].start(bin, i)) {
      return 1;
    }
  }
  std::printf("spawned %zu replicas (ports:", n_replicas);
  for (const auto& r : fleet) {
    std::printf(" %u", static_cast<unsigned>(r.port));
  }
  std::printf(")\n");

  const auto inputs_a = make_inputs(64, 128, 101);
  const auto inputs_b = make_inputs(64, 96, 103);

  // Phase 1: direct to replica 0 -- the single-replica floor.
  PhaseReport direct;
  {
    ReplicaClientConfig ccfg;
    ccfg.address = {"127.0.0.1", fleet[0].port};
    ccfg.ping_interval_ms = 50;
    ReplicaClient client(ccfg);
    const auto up = Clock::now() + std::chrono::seconds(10);
    while (!(client.alive() && client.has_stats()) && Clock::now() < up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!client.alive()) {
      std::fprintf(stderr, "FAIL: could not connect to replica 0\n");
      return 1;
    }
    direct = run_closed_loop(
        requests, window, [&](std::size_t i, std::function<void(bool, double)> done) {
          wire::RequestFrame req;
          const bool a = (i % 2) == 0;
          req.model_id = a ? "mlp-a" : "mlp-b";
          req.cls = a ? DeadlineClass::kInteractive : DeadlineClass::kBatch;
          req.deadline_us = kDeadlineUs;
          req.tensor = a ? inputs_a[i % inputs_a.size()]
                         : inputs_b[i % inputs_b.size()];
          const auto t0 = Clock::now();
          const bool sent = client.submit(
              std::move(req),
              [done, t0](wire::ResponseFrame resp) {
                done(resp.status == Status::kOk, to_us(Clock::now() - t0));
              },
              [done, t0] { done(false, to_us(Clock::now() - t0)); });
          if (!sent) {
            done(false, 0.0);
          }
        });
    client.shutdown();
  }
  std::printf(
      "direct   : %zu reqs window %zu  p50 %.0f us  p99 %.0f us  "
      "failed %zu  (%.2f s)\n",
      direct.requests, window, direct.p50_us, direct.p99_us, direct.failed,
      direct.wall_s);

  // Phase 2: the balancer over the whole fleet at the same load.
  PhaseReport routed;
  {
    BalancerConfig bcfg;
    for (const auto& r : fleet) {
      bcfg.replicas.push_back({"127.0.0.1", r.port});
    }
    bcfg.client.ping_interval_ms = 50;
    Balancer lb(bcfg);
    if (!lb.wait_ready(n_replicas, 10'000)) {
      std::fprintf(stderr, "FAIL: balancer could not reach %zu replicas\n",
                   n_replicas);
      return 1;
    }
    routed = run_closed_loop(
        requests, window, [&](std::size_t i, std::function<void(bool, double)> done) {
          const bool a = (i % 2) == 0;
          const auto t0 = Clock::now();
          lb.submit_async(
              a ? "mlp-a" : "mlp-b",
              a ? inputs_a[i % inputs_a.size()]
                : inputs_b[i % inputs_b.size()],
              a ? DeadlineClass::kInteractive : DeadlineClass::kBatch,
              kDeadlineUs, [done, t0](eb::serve::Result r) {
                done(r.status == Status::kOk, to_us(Clock::now() - t0));
              });
        });
    const auto snap = lb.metrics();
    std::printf("balancer : retries %zu  alive %zu/%zu  per-replica:",
                snap.retries, lb.alive_replicas(), n_replicas);
    for (const auto& r : snap.replicas) {
      std::printf(" %zu", r.requests);
    }
    std::printf("\n");
    lb.shutdown();
  }
  const double ratio = routed.p99_us / std::max(direct.p99_us, 1.0);
  std::printf(
      "balancer : %zu reqs window %zu  p50 %.0f us  p99 %.0f us  "
      "failed %zu  (%.2f s)  p99 ratio %.2fx\n",
      routed.requests, window, routed.p50_us, routed.p99_us, routed.failed,
      routed.wall_s, ratio);

  for (auto& r : fleet) {
    r.stop();
  }

  const std::string json_path = cfg.get_string("json", "");
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n"
       << "  \"replicas\": " << n_replicas << ",\n"
       << "  \"requests\": " << requests << ",\n"
       << "  \"window\": " << window << ",\n"
       << "  \"direct_p50_us\": " << direct.p50_us << ",\n"
       << "  \"direct_p99_us\": " << direct.p99_us << ",\n"
       << "  \"direct_failed\": " << direct.failed << ",\n"
       << "  \"balancer_p50_us\": " << routed.p50_us << ",\n"
       << "  \"balancer_p99_us\": " << routed.p99_us << ",\n"
       << "  \"balancer_failed\": " << routed.failed << ",\n"
       << "  \"p99_ratio\": " << ratio << "\n"
       << "}\n";
    std::ofstream out(json_path);
    out << os.str();
    std::printf("report written to %s\n", json_path.c_str());
  }

  if (ci) {
    const std::string baseline_path = cfg.get_string("baseline", "");
    std::string text;
    if (!eb::bench::read_baseline(baseline_path, text)) {
      return 1;
    }
    const double min_requests =
        json_number_field(text, "min_requests", 0.0);
    const double ratio_max = json_number_field(text, "max_p99_ratio", 0.0);
    const double p99_budget =
        json_number_field(text, "balancer_p99_budget_us", 0.0);
    if (min_requests <= 0.0 || ratio_max <= 0.0 || p99_budget <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: baseline %s is missing min_requests/"
                   "max_p99_ratio/balancer_p99_budget_us\n",
                   baseline_path.c_str());
      return 1;
    }
    bool ok = true;
    if (static_cast<double>(requests) < min_requests) {
      std::fprintf(stderr, "FAIL: ran %zu requests < min_requests %.0f\n",
                   requests, min_requests);
      ok = false;
    }
    if (direct.failed != 0 || routed.failed != 0) {
      std::fprintf(stderr,
                   "FAIL: dropped requests (direct %zu, balancer %zu); "
                   "every submitted request must resolve kOk\n",
                   direct.failed, routed.failed);
      ok = false;
    }
    if (ratio > ratio_max) {
      std::fprintf(stderr,
                   "FAIL: balancer p99 %.0f us is %.2fx direct p99 %.0f us "
                   "(max %.2fx)\n",
                   routed.p99_us, ratio, direct.p99_us, ratio_max);
      ok = false;
    }
    if (routed.p99_us > p99_budget) {
      std::fprintf(stderr, "FAIL: balancer p99 %.0f us > budget %.0f us\n",
                   routed.p99_us, p99_budget);
      ok = false;
    }
    if (!ok) {
      return 1;
    }
    std::printf("CI gate PASSED: 0 failures, p99 ratio %.2fx <= %.2fx, "
                "p99 %.0f us <= %.0f us\n",
                ratio, ratio_max, routed.p99_us, p99_budget);
  }
  return 0;
}
