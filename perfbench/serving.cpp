// sfc-wire and wdm-mapped: the two serving workloads. Each runs a `rated`
// phase (open-loop Poisson arrivals at a fixed absolute rate, light load)
// and a `sat` phase (closed loop holding enough requests in flight to fill
// max_batch). Offered rates are constants, never derived from an in-run
// calibration, and every phase is sized by request count.
//
// System-under-test threads are set explicitly so that, with the client's
// sender and receiver, busy threads stay within a 4-vCPU host.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "arch/cost_model.hpp"
#include "bnn/autotune.hpp"
#include "bnn/batch_runner.hpp"
#include "bnn/dataset.hpp"
#include "bnn/format.hpp"
#include "bnn/layers.hpp"
#include "bnn/model_zoo.hpp"
#include "common/rng.hpp"
#include "device/noise.hpp"
#include "mapping/executor.hpp"
#include "serve/balancer.hpp"
#include "serve/gateway.hpp"
#include "serve/mapped_backend.hpp"
#include "serve/tcp_frontend.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using eb::bnn::Network;
using eb::bnn::Tensor;
using eb::serve::DeadlineClass;
using eb::serve::Gateway;
using eb::serve::GatewayConfig;
using eb::serve::ModelConfig;
using eb::serve::Result;
using eb::serve::TcpFrontend;
namespace wire = eb::serve::wire;

constexpr std::size_t kMaxBatch = 64;
// Distinct inputs per workload; request i carries input i % kInputs.
constexpr std::size_t kInputs = 256;
// Shares of --seconds: the rated phase's length, and the nominal length
// the sat phase's request count is sized for.
constexpr double kRatedShare = 0.4;
constexpr double kSatShare = 0.4;

// sfc-wire: rated is about a fifth of the wire path's saturation rate at
// the time of writing (52-59k req/s on 4 vCPUs); the sat sizing rate is
// that saturation rate.
constexpr double kSfcRatedRps = 10000.0;
constexpr double kSfcSatSizingRps = 50000.0;
// wdm-mapped: each request costs milliseconds of CPU in the optical
// simulation. Rated keeps the one model worker under half busy: near
// saturation, queueing would amplify any host slowdown into p50.
constexpr double kWdmRatedRps = 100.0;
constexpr double kWdmSatSizingRps = 400.0;
// wdm-mapped requests keep their class but carry an explicit 5 s
// deadline: a rated request takes ~5 ms and a sat one ~0.25 s, yet
// stalls of a shared 4-vCPU VM pushed the rated p99 to 95 ms and expired
// a few against the interactive class's 100 ms default.
constexpr std::uint64_t kWdmDeadlineUs = 5'000'000;

const char* const kSfcModel = "sfc";
const char* const kWdmModel = "fc2";

ModelConfig model_config() {
  ModelConfig m;  // default_model_server_config(): shallow server queue
  m.server.workers = 1;
  m.server.max_batch = kMaxBatch;
  return m;
}

std::vector<std::size_t> hist_of(const Gateway& gw) {
  return gw.metrics().models.at(0).server.batch_size_hist;
}

// Batch sizes formed between two histogram snapshots, ascending.
std::vector<std::size_t> batches_between(const std::vector<std::size_t>& a,
                                         const std::vector<std::size_t>& b) {
  std::vector<std::size_t> sizes;
  for (std::size_t k = 1; k < b.size(); ++k) {
    const std::size_t before = k < a.size() ? a[k] : 0;
    sizes.insert(sizes.end(), b[k] - before, k);
  }
  return sizes;
}

double mean_size(const std::vector<std::size_t>& sizes) {
  double sum = 0.0;
  for (const std::size_t s : sizes) {
    sum += static_cast<double>(s);
  }
  return sizes.empty() ? 0.0 : sum / static_cast<double>(sizes.size());
}

// Evenly spaced subset of at most `cap` entries of an ascending list, so
// a replay keeps the phase's batch-size distribution.
std::vector<std::size_t> thin(const std::vector<std::size_t>& sizes,
                              std::size_t cap) {
  if (sizes.size() <= cap) {
    return sizes;
  }
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < cap; ++j) {
    out.push_back(sizes[j * sizes.size() / cap]);
  }
  return out;
}

// Samples of an open-loop phase, pooled over rounds.
struct Open {
  Counts counts;
  std::vector<double> lat_us;  // failures are +inf
  std::vector<double> cpu_us;  // process CPU per request, per window
  std::vector<double> late_us;
  std::vector<double> queue_us;

  Open& operator+=(const Open& o) {
    counts += o.counts;
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    cpu_us.insert(cpu_us.end(), o.cpu_us.begin(), o.cpu_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    queue_us.insert(queue_us.end(), o.queue_us.begin(), o.queue_us.end());
    return *this;
  }
  [[nodiscard]] double p50_us() const { return median(lat_us); }
  [[nodiscard]] double cpu() const { return median(cpu_us); }
};

Open finish_open(Collector& col, const OpenLoopStats& ol) {
  col.wait_all(std::chrono::seconds(30));
  Open o;
  o.counts = col.counts();
  o.lat_us = col.latencies_us();
  o.cpu_us = ol.cpu_us_per_request;
  o.late_us = ol.late_us;
  o.queue_us = col.queue_us();
  return o;
}

void print_tail(const char* phase, const Open& o) {
  const std::size_t n = o.lat_us.size();
  std::printf("  %s tail: p99 %.1f us (%zu samples beyond), p99.9 %.1f us "
              "(%zu beyond), of %zu\n",
              phase, quantile(o.lat_us, 0.99), n - static_cast<std::size_t>(
                                                      std::ceil(0.99 * n)),
              quantile(o.lat_us, 0.999),
              n - static_cast<std::size_t>(std::ceil(0.999 * n)), n);
  std::printf("  %s generator lateness: p50 %.1f us, p99 %.1f us\n", phase,
              quantile(o.late_us, 0.5), quantile(o.late_us, 0.99));
}

// ------------------------------------------------------------ sfc-wire --

// FINN-style SFC: Sign input (binarized at 0.5), three 256-wide binary
// layers whose BatchNorm+Sign pairs fold to integer thresholds, and an
// 8-bit 10-way classifier.
Network build_sfc(std::uint64_t seed) {
  eb::Rng rng(seed);
  Network net("SFC", "MNIST");
  const std::size_t in = eb::bnn::SyntheticMnist::kFeatures;
  net.add(eb::bnn::BatchNormLayer("in_bn", std::vector<double>(in, 1.0),
                                  std::vector<double>(in, 0.0),
                                  std::vector<double>(in, 0.5),
                                  std::vector<double>(in, 1.0)));
  net.add(eb::bnn::SignLayer("in_sign", in));
  std::size_t width = in;
  for (int l = 1; l <= 3; ++l) {
    const std::string idx = std::to_string(l);
    net.add(eb::bnn::BinaryDenseLayer::random("fc" + idx, width, 256, rng));
    // Pre-activations 2*popcount - m have spread ~sqrt(m): random BN
    // statistics on that scale, a quarter with negative gamma.
    const double m = static_cast<double>(width);
    std::vector<double> gamma(256), beta(256), mu(256), var(256);
    for (std::size_t j = 0; j < 256; ++j) {
      gamma[j] = (rng.bernoulli(0.25) ? -1.0 : 1.0) * rng.uniform(0.5, 1.5);
      beta[j] = rng.uniform(-1.0, 1.0);
      mu[j] = rng.uniform(-1.0, 1.0) * std::sqrt(m);
      var[j] = rng.uniform(0.5, 2.0) * m;
    }
    net.add(eb::bnn::BatchNormLayer("bn" + idx, gamma, beta, mu, var));
    net.add(eb::bnn::SignLayer("sign" + idx, 256));
    width = 256;
  }
  net.add(eb::bnn::DenseLayer::random("fc4", width, 10,
                                      eb::bnn::Precision::Int8, rng));
  return eb::bnn::fold_network(net);
}

// One served replica: a Gateway with the SFC model plus its frontend.
struct WireStack {
  std::unique_ptr<Gateway> gw;
  std::unique_ptr<TcpFrontend> fe;

  explicit WireStack(const std::string& model_dir) {
    GatewayConfig cfg;
    cfg.pool_threads = 1;  // batches run inline on the model's one worker
    cfg.model_dir = model_dir;
    gw = std::make_unique<Gateway>(cfg);
    gw->load_model(kSfcModel, "sfc.ebm", model_config());
    fe = std::make_unique<TcpFrontend>(*gw);  // one event loop
  }
};

struct Rung {
  std::string name;
  double p50_us = 0.0;
  double cpu_us = 0.0;
};

}  // namespace

void run_sfc_wire(const Args& args, Report& report) {
  const CpuTimes host0 = read_cpu_times();
  std::printf("workload sfc-wire: SFC (784-256-256-256-10, folded) over a "
              "loopback TcpFrontend; rated %.0f req/s Poisson, sat window %zu\n",
              kSfcRatedRps, 2 * kMaxBatch);

  // Model file, inputs and gold outputs from the seed (not timed).
  const Network sfc = build_sfc(args.seed);
  const std::string dir =
      args.workdir + "/sfc-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  eb::bnn::save_network(sfc, dir + "/sfc.ebm");
  std::vector<Tensor> inputs;
  std::vector<Tensor> gold;
  const eb::bnn::SyntheticMnist mnist(args.seed);
  for (std::size_t k = 0; k < kInputs; ++k) {
    inputs.push_back(mnist.sample(k).image);
    gold.push_back(sfc.forward(inputs.back()));
  }
  std::vector<wire::RequestFrame> frames(kInputs);
  for (std::size_t k = 0; k < kInputs; ++k) {
    frames[k].model_id = kSfcModel;
    frames[k].tensor = inputs[k];
  }
  const auto check = [&](std::size_t i, const Tensor& out) {
    return same_bytes(out, gold[i % kInputs]);
  };
  const auto n_rated = static_cast<std::size_t>(
      kSfcRatedRps * kRatedShare * args.seconds / kRounds);
  const auto n_sat = static_cast<std::size_t>(
      kSfcSatSizingRps * kSatShare * args.seconds / kRounds);

  // A wire phase over one pipelined connection.
  const auto wire_open = [&](const std::string& name, std::uint16_t port,
                             const std::vector<double>& schedule,
                             Tracer* tracer) {
    Collector col(name, schedule.size(), check);
    if (tracer != nullptr) {
      col.trace_into(tracer, name);
    }
    OpenLoopStats ol;
    {
      WireClient client(port, [&col](wire::ResponseFrame& r) {
        col.complete(r.request_id - 1, r.status, &r.tensor, r.queue_us);
      });
      ol = run_open_loop(schedule, col, [&](std::size_t i) {
        wire::RequestFrame& f = frames[i % kInputs];
        f.request_id = i + 1;
        f.cls = DeadlineClass::kInteractive;
        client.send(f);
      });
      col.wait_all(std::chrono::seconds(30));
    }
    return finish_open(col, ol);
  };

  // Rounds of set-up (EBM decode, registration with autotuner warm-up,
  // frontend bind -- after clearing the tuning table) followed by the
  // rated and sat phases.
  std::vector<double> setups;
  std::vector<double> schedule;
  Open rated;  // pooled over rounds
  std::vector<double> round_p50;
  std::vector<double> round_cpu;
  Counts sat_counts;
  std::vector<double> sat_rates;
  std::vector<std::size_t> rated_batches;
  std::vector<std::size_t> sat_batches;
  for (int round = 0; round < kRounds; ++round) {
    eb::bnn::Autotuner::instance().clear();
    const auto t0 = Steady::now();
    const WireStack stack(dir);
    setups.push_back(seconds_between(t0, Steady::now()));
    schedule = poisson_schedule(n_rated, kSfcRatedRps,
                                args.seed * 0x9E3779B97F4A7C15ull + round);

    const auto h0 = hist_of(*stack.gw);
    const Open r = wire_open("rated", stack.fe->port(), schedule, nullptr);
    round_p50.push_back(r.p50_us());
    round_cpu.push_back(r.cpu());
    rated += r;
    const auto h1 = hist_of(*stack.gw);

    Collector sat("sat", n_sat, check);
    {
      WireClient client(stack.fe->port(), [&sat](wire::ResponseFrame& resp) {
        sat.complete(resp.request_id - 1, resp.status, &resp.tensor,
                     resp.queue_us);
      });
      sat_rates.push_back(
          run_closed_loop(n_sat, 2 * kMaxBatch, sat, [&](std::size_t i) {
            wire::RequestFrame& f = frames[i % kInputs];
            f.request_id = i + 1;
            f.cls = DeadlineClass::kBatch;
            client.send(f);
          }));
    }
    sat_counts += sat.counts();
    const auto h2 = hist_of(*stack.gw);
    // The ladder replays the last round's schedule and batch sizes.
    rated_batches = batches_between(h0, h1);
    const auto s = batches_between(h1, h2);
    sat_batches.insert(sat_batches.end(), s.begin(), s.end());
  }
  rated.counts.phase = "rated";
  sat_counts.phase = "sat";
  report.phase(rated.counts);
  report.phase(sat_counts);

  std::printf("\nend-to-end (sfc-wire):\n");
  report.e2e("throughput_per_s",
             across_rounds("throughput_per_s", sat_rates, Across::kMedian),
             "1/s", "sat_rps");
  report.e2e("p50_us", across_rounds("p50_us", round_p50, Across::kLowest),
             "us", "rated_p50_us");
  report.e2e("cpu_us", across_rounds("cpu_us", round_cpu, Across::kMedian),
             "us", "rated_cpu_us");
  report.e2e("setup_s", across_rounds("setup_s", setups, Across::kMedian),
             "s", "median EBM decode + load_model + frontend bind");
  print_tail("rated", rated);
  std::printf("  batches: rated mean %.2f (last round), sat mean %.2f "
              "(max_batch %zu); %d rounds\n",
              mean_size(rated_batches), mean_size(sat_batches), kMaxBatch,
              kRounds);
  print_autotuner_picks();
  std::printf("threads: Gateway pool 1 (inline), dispatcher 1, Server "
              "workers 1, event loops 1, client sender 1 + receiver 1\n");

  if (report.trace()) {
    Tracer tracer;
    std::printf("\nper-layer:\n");
    report.layer("server.batch_fill_rated", mean_size(rated_batches) / kMaxBatch,
                 "ratio");
    report.layer("server.batch_fill_sat", mean_size(sat_batches) / kMaxBatch,
                 "ratio");
    report.layer("server.queue_us_p50", median(rated.queue_us), "us");
    report.layer("gen.late_us_p50", quantile(rated.late_us, 0.5), "us");
    report.layer("gen.late_us_p99", quantile(rated.late_us, 0.99), "us");

    // Codec cost over the workload's own frames.
    std::vector<std::vector<std::uint8_t>> encoded;
    for (auto& f : frames) {
      encoded.push_back(wire::encode_request(f));
    }
    std::vector<double> dec_us;
    std::vector<double> enc_us;
    for (int pass = 0; pass < 20; ++pass) {
      auto t0 = Steady::now();
      for (const auto& bytes : encoded) {
        wire::RequestFrame out;
        std::size_t used = 0;
        if (wire::decode_request(bytes.data(), bytes.size(), out, used) !=
            wire::DecodeStatus::kOk) {
          throw std::runtime_error("workload request frame failed to decode");
        }
      }
      dec_us.push_back(1e6 * seconds_between(t0, Steady::now()) / kInputs);
      t0 = Steady::now();
      for (std::size_t k = 0; k < kInputs; ++k) {
        wire::ResponseFrame resp;
        resp.request_id = k + 1;
        resp.status = eb::serve::Status::kOk;
        resp.tensor = gold[k];
        const auto bytes = wire::encode_response(resp);
        if (bytes.empty()) {
          throw std::runtime_error("empty response encoding");
        }
      }
      enc_us.push_back(1e6 * seconds_between(t0, Steady::now()) / kInputs);
    }
    report.layer("wire.request_bytes", static_cast<double>(encoded[0].size()),
                 "bytes");
    report.layer("wire.decode_us", median(dec_us), "us");
    report.layer("wire.encode_us", median(enc_us), "us");

    // The depth ladder: the rated schedule and inputs driven at five
    // depths; the difference between neighbouring rungs is a layer's cost.
    std::vector<Rung> rungs;
    const Network net = eb::bnn::load_network(dir + "/sfc.ebm");

    {  // 1: BatchRunner::forward_all on the batch sizes rated formed.
      const eb::bnn::BatchRunner runner(net, {kMaxBatch, 1});
      std::size_t total = 0;
      for (const std::size_t b : rated_batches) {
        total += b;
      }
      Collector col("ladder.1.compute", total, check);
      col.trace_into(&tracer, "ladder.1.compute");
      const double c0 = cpu_seconds();
      std::size_t next = 0;
      for (const std::size_t b : rated_batches) {
        std::vector<Tensor> in;
        for (std::size_t j = 0; j < b; ++j) {
          in.push_back(inputs[(next + j) % kInputs]);
        }
        const auto t0 = Steady::now();
        const auto out = runner.forward_all(in);
        for (std::size_t j = 0; j < b; ++j) {
          col.set_due(next + j, t0);
        }
        for (std::size_t j = 0; j < b; ++j) {
          col.complete(next + j, eb::serve::Status::kOk, &out[j]);
        }
        next += b;
      }
      const double cpu = 1e6 * (cpu_seconds() - c0) /
                         static_cast<double>(std::max<std::size_t>(1, total));
      report.phase(col.counts());
      rungs.push_back({"compute", median(col.latencies_us()), cpu});
    }
    {  // 2: Server::submit_async.
      Collector col("ladder.2.server", n_rated, check);
      col.trace_into(&tracer, "ladder.2.server");
      eb::serve::ServerConfig scfg;  // standalone: default deep queue
      scfg.max_batch = kMaxBatch;
      scfg.workers = 1;
      scfg.pool_threads = 1;
      eb::serve::Server server(net, scfg);
      const auto ol = run_open_loop(schedule, col, [&](std::size_t i) {
        server.submit_async(inputs[i % kInputs], 0, [&col, i](Result r) {
          col.complete(i, r.status, &r.output, r.queue_us);
        });
      });
      const Open o = finish_open(col, ol);
      report.phase(o.counts);
      rungs.push_back({"server", o.p50_us(), o.cpu()});
    }
    {  // 3: Gateway::submit_async.
      Collector col("ladder.3.gateway", n_rated, check);
      col.trace_into(&tracer, "ladder.3.gateway");
      GatewayConfig cfg;
      cfg.pool_threads = 1;
      cfg.model_dir = dir;
      Gateway gw(cfg);
      gw.load_model(kSfcModel, "sfc.ebm", model_config());
      const auto ol = run_open_loop(schedule, col, [&](std::size_t i) {
        gw.submit_async(kSfcModel, inputs[i % kInputs],
                        DeadlineClass::kInteractive, 0, [&col, i](Result r) {
                          col.complete(i, r.status, &r.output, r.queue_us);
                        });
      });
      const Open o = finish_open(col, ol);
      report.phase(o.counts);
      rungs.push_back({"gateway", o.p50_us(), o.cpu()});
    }
    {  // 4: loopback TcpFrontend (the untraced rated phase, traced).
      const WireStack rung(dir);
      const Open o =
          wire_open("ladder.4.wire", rung.fe->port(), schedule, &tracer);
      report.phase(o.counts);
      rungs.push_back({"wire", o.p50_us(), o.cpu()});
      report.layer("trace.overhead_pct",
                   100.0 * (o.p50_us() - rated.p50_us()) / rated.p50_us(),
                   "%");
    }
    {  // 5: Balancer over two in-process replicas, behind its own frontend.
      const WireStack r0(dir);
      const WireStack r1(dir);
      eb::serve::BalancerConfig bcfg;
      bcfg.replicas = {{"127.0.0.1", r0.fe->port()},
                       {"127.0.0.1", r1.fe->port()}};
      eb::serve::Balancer balancer(bcfg);
      if (!balancer.wait_ready(2, 5000)) {
        throw std::runtime_error("balancer replicas did not come up");
      }
      Open o;
      {
        TcpFrontend front(balancer);
        o = wire_open("ladder.5.fleet", front.port(), schedule, &tracer);
      }
      const std::size_t retries = balancer.metrics().retries;
      balancer.shutdown();
      report.phase(o.counts);
      std::printf("  ladder.5.fleet retries %zu\n", retries);
      rungs.push_back({"fleet", o.p50_us(), o.cpu()});
    }

    std::printf("\n  rung        p50 us   CPU us/req\n");
    for (const Rung& r : rungs) {
      std::printf("  %-9s %9.1f %12.2f\n", r.name.c_str(), r.p50_us, r.cpu_us);
    }
    report.layer("ladder.compute_us", rungs[0].p50_us, "us");
    report.layer("ladder.compute_cpu_us", rungs[0].cpu_us, "us");
    report.layer("ladder.server_us", rungs[1].p50_us - rungs[0].p50_us, "us");
    report.layer("ladder.gateway_us", rungs[2].p50_us - rungs[1].p50_us, "us");
    report.layer("ladder.gateway_cpu_us", rungs[2].cpu_us - rungs[1].cpu_us,
                 "us");
    report.layer("ladder.wire_us", rungs[3].p50_us - rungs[2].p50_us, "us");
    report.layer("ladder.wire_cpu_us", rungs[3].cpu_us - rungs[2].cpu_us, "us");
    report.layer("ladder.fleet_us", rungs[4].p50_us - rungs[3].p50_us, "us");
    report.layer("ladder.fleet_cpu_us", rungs[4].cpu_us - rungs[3].cpu_us,
                 "us");
    std::printf("threads at rung 5: 2 replicas x (dispatcher, worker, event "
                "loop), balancer frontend loop, 2 replica clients, client "
                "sender + receiver\n");
    const std::string path = args.workdir + "/trace-sfc-wire.csv";
    std::printf("  %zu spans -> %s%s\n", tracer.spans().size(), path.c_str(),
                tracer.write_csv(path) ? "" : " (write failed)");
  }

  std::filesystem::remove_all(dir);
  std::printf("\n");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.layer("host.steal_pct", steal_pct(host0, read_cpu_times()), "%");
}

// ---------------------------------------------------------- wdm-mapped --

void run_wdm_mapped(const Args& args, Report& report) {
  const CpuTimes host0 = read_cpu_times();
  std::printf("workload wdm-mapped: MLP-S fc2 (500->250) on the optical "
              "executor, 512x512 crossbars, %d wavelengths, ideal readout; "
              "rated %.0f req/s Poisson, sat window %zu\n",
              16, kWdmRatedRps, kMaxBatch);

  // Weights and fc2's real input activations from the seed (not timed).
  eb::Rng rng(args.seed);
  const Network mlp = eb::bnn::build_mlp_s(rng);
  const auto& fc2 = dynamic_cast<const eb::bnn::BinaryDenseLayer&>(mlp.layer(3));
  const eb::BitMatrix& weights = fc2.weights();
  const std::size_t m = weights.cols();
  std::vector<Tensor> inputs;
  std::vector<std::vector<std::size_t>> gold;
  double density = 0.0;
  const eb::bnn::SyntheticMnist mnist(args.seed);
  for (std::size_t k = 0; k < kInputs; ++k) {
    std::vector<Tensor> layer_inputs;
    (void)mlp.forward_trace(mnist.sample(k).image, layer_inputs);
    inputs.push_back(layer_inputs.at(3));
    const eb::BitVec bits = eb::serve::tensor_to_bits(inputs.back(), m);
    gold.push_back(weights.xnor_popcount_all(bits));
    density += static_cast<double>(bits.popcount()) / static_cast<double>(m);
  }
  const auto check = [&](std::size_t i, const Tensor& out) {
    const auto& want = gold[i % kInputs];
    if (out.size() != want.size()) {
      return false;
    }
    for (std::size_t j = 0; j < want.size(); ++j) {
      if (out[j] != static_cast<double>(want[j])) {
        return false;
      }
    }
    return true;
  };
  std::printf("  input bit density %.3f over %zu inputs\n",
              density / kInputs, kInputs);

  const auto noise = std::make_shared<const eb::dev::NoNoise>();
  eb::map::MappedExecutorOptions opt;
  opt.xbar_rows = 512;
  opt.xbar_cols = 512;
  opt.wdm_capacity = 16;
  opt.seed = args.seed + 1;
  const auto n_rated = static_cast<std::size_t>(
      kWdmRatedRps * kRatedShare * args.seconds / kRounds);
  const auto n_sat = static_cast<std::size_t>(
      kWdmSatSizingRps * kSatShare * args.seconds / kRounds);

  // Rounds of set-up (crossbar programming + registration) followed by
  // the rated and sat phases. The last round's gateway stays up for the
  // traced phases.
  std::shared_ptr<const eb::map::MappedExecutor> exec;
  std::unique_ptr<Gateway> gw;
  std::vector<double> setups;
  std::vector<double> schedule;
  const auto rated_phase = [&](const std::string& name, Tracer* tracer) {
    Collector col(name, schedule.size(), check);
    if (tracer != nullptr) {
      col.trace_into(tracer, name);
    }
    const auto ol = run_open_loop(schedule, col, [&](std::size_t i) {
      gw->submit_async(kWdmModel, inputs[i % kInputs],
                       DeadlineClass::kInteractive, kWdmDeadlineUs,
                       [&col, i](Result r) {
                         col.complete(i, r.status, &r.output, r.queue_us);
                       });
    });
    return finish_open(col, ol);
  };
  Open rated;  // pooled over rounds
  std::vector<double> round_p50;
  std::vector<double> round_cpu;
  Counts sat_counts;
  std::vector<double> sat_rates;
  std::vector<std::size_t> rated_batches;
  std::vector<std::size_t> sat_batches;
  for (int round = 0; round < kRounds; ++round) {
    gw.reset();
    exec.reset();
    const auto t0 = Steady::now();
    exec = eb::map::make_mapped_executor("optical", weights, opt);
    GatewayConfig cfg;
    cfg.pool_threads = 2;
    gw = std::make_unique<Gateway>(cfg);
    gw->register_model(kWdmModel, exec, noise, model_config());
    setups.push_back(seconds_between(t0, Steady::now()));
    schedule = poisson_schedule(n_rated, kWdmRatedRps,
                                args.seed * 0x9E3779B97F4A7C15ull + 64 + round);

    const auto h0 = hist_of(*gw);
    const Open r = rated_phase("rated", nullptr);
    round_p50.push_back(r.p50_us());
    round_cpu.push_back(r.cpu());
    rated += r;
    const auto h1 = hist_of(*gw);
    // sat: 64 in flight fill one batch.
    Collector sat("sat", n_sat, check);
    sat_rates.push_back(
        run_closed_loop(n_sat, kMaxBatch, sat, [&](std::size_t i) {
          gw->submit_async(kWdmModel, inputs[i % kInputs],
                           DeadlineClass::kBatch, kWdmDeadlineUs,
                           [&sat, i](Result r) {
                             sat.complete(i, r.status, &r.output, r.queue_us);
                           });
        }));
    sat_counts += sat.counts();
    const auto h2 = hist_of(*gw);
    auto s = batches_between(h0, h1);
    rated_batches.insert(rated_batches.end(), s.begin(), s.end());
    s = batches_between(h1, h2);
    sat_batches.insert(sat_batches.end(), s.begin(), s.end());
  }
  std::sort(rated_batches.begin(), rated_batches.end());
  std::sort(sat_batches.begin(), sat_batches.end());
  rated.counts.phase = "rated";
  sat_counts.phase = "sat";
  report.phase(rated.counts);
  report.phase(sat_counts);
  std::printf("  executor: %s\n", exec->descriptor().c_str());

  std::printf("\nend-to-end (wdm-mapped):\n");
  report.e2e("throughput_per_s",
             across_rounds("throughput_per_s", sat_rates, Across::kMedian),
             "1/s", "sat_rps");
  report.e2e("p50_us", across_rounds("p50_us", round_p50, Across::kLowest),
             "us", "rated_p50_us");
  report.e2e("cpu_us", across_rounds("cpu_us", round_cpu, Across::kMedian),
             "us", "rated_cpu_us");
  report.e2e("setup_s", across_rounds("setup_s", setups, Across::kMedian),
             "s", "median crossbar programming + registration");
  print_tail("rated", rated);
  std::printf("  batches: rated mean %.2f, sat mean %.2f (max_batch %zu); "
              "%d rounds\n",
              mean_size(rated_batches), mean_size(sat_batches), kMaxBatch,
              kRounds);
  std::printf("threads: Gateway pool 2 (caller included), dispatcher 1, "
              "Server workers 1, no event loop, client sender 1\n");

  if (report.trace()) {
    Tracer tracer;
    std::printf("\nper-layer:\n");
    report.layer("server.batch_fill_rated", mean_size(rated_batches) / kMaxBatch,
                 "ratio");
    report.layer("server.batch_fill_sat", mean_size(sat_batches) / kMaxBatch,
                 "ratio");
    report.layer("server.queue_us_p50", median(rated.queue_us), "us");
    report.layer("gen.late_us_p50", quantile(rated.late_us, 0.5), "us");
    report.layer("gen.late_us_p99", quantile(rated.late_us, 0.99), "us");

    const Open traced = rated_phase("rated.traced", &tracer);
    report.phase(traced.counts);
    report.layer("trace.overhead_pct",
                 100.0 * (traced.p50_us() - rated.p50_us()) / rated.p50_us(),
                 "%");

    // Replay of each phase's batch sizes with spans around the mapped
    // backend's two steps: tensor_to_bits and execute_batch.
    eb::RngStream base(args.seed);
    double to_bits_us = 0.0;
    std::size_t requests = 0;
    const auto replay = [&](const std::string& phase,
                            const std::vector<std::size_t>& sizes) {
      Counts c;
      c.phase = "replay." + phase;
      double exec_ms = 0.0;
      std::size_t lanes = 0;
      std::size_t next = 0;
      for (const std::size_t b : sizes) {
        const long span = tracer.begin("batch." + phase, -1, next);
        const long bits_span = tracer.begin("mapping.to_bits", span, next);
        std::vector<eb::BitVec> bits;
        for (std::size_t j = 0; j < b; ++j) {
          bits.push_back(eb::serve::tensor_to_bits(inputs[(next + j) % kInputs], m));
        }
        tracer.end(bits_span);
        const long exec_span = tracer.begin("mapping.execute_batch", span, next);
        eb::RngStream batch_rng = base.split();
        const auto out = exec->execute_batch(bits, *noise, batch_rng, &gw->pool());
        tracer.end(exec_span);
        tracer.end(span);
        to_bits_us += tracer.duration_us(bits_span);
        exec_ms += tracer.duration_us(exec_span) / 1e3;
        for (std::size_t j = 0; j < b; ++j) {
          ++c.attempted;
          if (j < out.size() && out[j] == gold[(next + j) % kInputs]) {
            ++c.ok;
          } else {
            ++c.mismatch;
          }
        }
        lanes += (b + 15) / 16 * 16;
        requests += b;
        next += b;
      }
      report.phase(c);
      report.layer("mapping.execute_ms_" + phase,
                   sizes.empty() ? 0.0 : exec_ms / static_cast<double>(sizes.size()),
                   "ms");
      report.layer("mapping.wdm_fill_" + phase,
                   lanes == 0 ? 0.0 : static_cast<double>(next) / lanes, "ratio");
    };
    replay("rated", thin(rated_batches, 40));
    replay("sat", thin(sat_batches, 8));
    report.layer("mapping.to_bits_us",
                 to_bits_us / static_cast<double>(std::max<std::size_t>(1, requests)),
                 "us");

    const eb::arch::CostModel cm(eb::arch::TechParams::paper_defaults());
    eb::bnn::XnorWorkload w;
    w.layer_name = "fc2";
    w.m = m;
    w.n = weights.rows();
    const double eb_ns = cm.einstein_barrier(w).latency_ns;
    std::printf("  arch.eb_layer_ns %.1f (modelled EinsteinBarrier fc2 "
                "inference; Baseline-ePCM %.1f ns)\n",
                eb_ns, cm.baseline_epcm(w).latency_ns);
    const std::string path = args.workdir + "/trace-wdm-mapped.csv";
    std::printf("  %zu spans -> %s%s\n", tracer.spans().size(), path.c_str(),
                tracer.write_csv(path) ? "" : " (write failed)");
  }

  gw.reset();
  std::printf("\n");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.layer("host.steal_pct", steal_pct(host0, read_cpu_times()), "%");
}

}  // namespace pb
