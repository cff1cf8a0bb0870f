// zoo-mlp-l: the paper's largest MLP, run offline through BatchRunner at
// batch 64 on a 2-thread pool.
//
// Why: pure compute, no serving layer. At batch 64 MLP-L spends most of
// its time in fc1's f64 real GEMM (9.4 MB of weights, larger than L2),
// the rest in the XNOR GEMMs of its binary layers and their threshold
// epilogues. Layers isolated: bnn (real GEMM, XNOR GEMM, epilogue) and the
// autotuner. The paper's VGG-D is not a workload: its batches fault in
// ~90 MB of fresh pages each, and on a shared 4-vCPU VM its timings
// drifted with other tenants' load by up to a quarter between runs of
// the same code.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "arch/cost_model.hpp"
#include "bnn/autotune.hpp"
#include "bnn/batch_runner.hpp"
#include "bnn/dataset.hpp"
#include "bnn/format.hpp"
#include "bnn/model_zoo.hpp"
#include "common/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using eb::bnn::BatchRunner;
using eb::bnn::LayerKind;
using eb::bnn::Network;
using eb::bnn::Precision;
using eb::bnn::Tensor;

constexpr std::size_t kBatch = 64;
constexpr std::size_t kPoolThreads = 2;
// Shares of --seconds spent in the full-batch and single-sample phases.
constexpr double kBatchShare = 0.7;
constexpr double kSingleShare = 0.3;

// The per-layer buckets of bnn self time.
const char* bucket(const eb::bnn::LayerSpec& s) {
  switch (s.kind) {
    case LayerKind::Dense:
    case LayerKind::Conv2d:
      return s.precision == Precision::Binary ? "xnor" : "real";
    case LayerKind::MaxPool2d:
    case LayerKind::Flatten:
      return "pool";
    case LayerKind::BatchNorm:
    case LayerKind::Sign:
    case LayerKind::Threshold:
      return "epilogue";
  }
  return "epilogue";
}

// Compares outputs with their references byte for byte.
Counts check_outputs(const std::vector<Tensor>& got,
                     const std::vector<Tensor>& want) {
  Counts c;
  c.attempted = want.size();
  for (std::size_t j = 0; j < want.size(); ++j) {
    if (j < got.size() && same_bytes(got[j], want[j])) {
      ++c.ok;
    } else {
      ++c.mismatch;
    }
  }
  return c;
}

}  // namespace

void run_zoo(const Args& args, Report& report) {
  const CpuTimes host0 = read_cpu_times();
  std::printf("workload %s: MLP-L, folded, EBM round trip, BatchRunner batch "
              "%zu on a %zu-thread pool, closed loop with one caller\n",
              args.workload.c_str(), kBatch, kPoolThreads);

  // Inputs and the model file, from the seed (not timed).
  eb::Rng rng(args.seed);
  const Network built =
      eb::bnn::build_mlp("MLP-L", {784, 1500, 1000, 500, 10}, rng);
  const std::string ebm = args.workdir + "/zoo-" + std::to_string(::getpid()) +
                          ".ebm";
  eb::bnn::save_network(eb::bnn::fold_network(built), ebm);
  constexpr std::size_t set_batches = 4;
  std::vector<std::vector<Tensor>> batches(set_batches);
  const eb::bnn::SyntheticMnist mnist(args.seed);
  for (std::size_t i = 0; i < set_batches * kBatch; ++i) {
    batches[i / kBatch].push_back(mnist.sample(i).image);
  }

  // Rounds of set-up (EBM decode + BatchRunner construction with its
  // autotuner warm-up, after clearing the tuning table) followed by the
  // two measured phases. Batch times are pooled over rounds; each round
  // yields one batch-1 p50.
  std::unique_ptr<Network> net;
  std::unique_ptr<BatchRunner> runner;
  std::vector<std::vector<Tensor>> ref;
  std::vector<double> setups;
  std::vector<double> batch_s;       // pooled over rounds
  std::vector<double> batch_cpu_us;  // per sample, pooled over rounds
  std::vector<double> round_single_us;
  Counts full;
  full.phase = "batch64";
  Counts single;
  single.phase = "single";
  for (int round = 0; round < kRounds; ++round) {
    runner.reset();
    net.reset();
    eb::bnn::Autotuner::instance().clear();
    const auto t0 = Steady::now();
    net = std::make_unique<Network>(eb::bnn::load_network(ebm));
    runner = std::make_unique<BatchRunner>(
        *net, eb::bnn::BatchRunnerConfig{kBatch, kPoolThreads});
    setups.push_back(seconds_between(t0, Steady::now()));

    if (round == 0) {
      // Reference outputs: the first batched pass, checked against the
      // per-sample reference path on a seeded subset.
      for (const auto& b : batches) {
        ref.push_back(runner->forward_all(b));
      }
      Counts subset;
      subset.phase = "check.per_sample";
      eb::RngStream pick(args.seed ^ 0x5A11u);
      for (std::size_t k = 0; k < 16; ++k) {
        const auto i = static_cast<std::size_t>(pick.uniform_int(
            0, static_cast<std::int64_t>(set_batches * kBatch) - 1));
        subset += check_outputs({net->forward(batches[i / kBatch][i % kBatch])},
                                {ref[i / kBatch][i % kBatch]});
      }
      report.phase(subset);
    }

    // Phase batch64: full batches, back to back.
    const auto phase0 = Steady::now();
    for (std::size_t it = 0;
         it < 3 || seconds_between(phase0, Steady::now()) <
                       kBatchShare * args.seconds / kRounds;
         ++it) {
      const auto& in = batches[it % set_batches];
      const double c0 = cpu_seconds();
      const auto b0 = Steady::now();
      const auto out = runner->forward_all(in);
      batch_s.push_back(seconds_between(b0, Steady::now()));
      batch_cpu_us.push_back(1e6 * (cpu_seconds() - c0) / kBatch);
      full += check_outputs(out, ref[it % set_batches]);
    }

    // Phase single: one sample per call -- the latency of a lone caller.
    // The first calls tune the batch-1 kernel shapes and are not timed.
    std::vector<double> single_us;
    const auto single0 = Steady::now();
    for (std::size_t it = 0;
         it < 5 || seconds_between(single0, Steady::now()) <
                       kSingleShare * args.seconds / kRounds;
         ++it) {
      const std::size_t i = it % (set_batches * kBatch);
      const std::vector<Tensor> in{batches[i / kBatch][i % kBatch]};
      const auto s0 = Steady::now();
      const auto out = runner->forward_all(in);
      const double us = 1e6 * seconds_between(s0, Steady::now());
      if (it >= 2) {
        single_us.push_back(us);
      }
      single += check_outputs(out, {ref[i / kBatch][i % kBatch]});
    }
    round_single_us.push_back(median(single_us));
  }
  std::filesystem::remove(ebm);
  report.phase(full);
  report.phase(single);

  const double untraced_batch_s = median(batch_s);
  std::printf("\nend-to-end (MLP-L):\n");
  report.e2e("throughput_per_s", kBatch / untraced_batch_s, "1/s",
             "sps_mlp_l, median batch64 batch time");
  report.e2e("p50_us",
             across_rounds("p50_us", round_single_us, Across::kLowest), "us",
             "batch-1 forward_all p50");
  report.e2e("cpu_us", median(batch_cpu_us), "us",
             "median process CPU per sample at batch 64");
  report.e2e("setup_s", across_rounds("setup_s", setups, Across::kMedian),
             "s", "median EBM decode + autotuned runner");
  std::printf("  batches %zu, single calls %zu, rounds %d\n", batch_s.size(),
              single.attempted, kRounds);

  print_autotuner_picks();
  std::printf("threads: BatchRunner pool %zu (caller included)\n",
              kPoolThreads);

  if (report.trace()) {
    // Replay of Network::forward_batch's layer order with a span around
    // every layer's forward_batch call.
    Tracer tracer;
    Counts traced;
    traced.phase = "batch64.traced";
    std::vector<long> batch_spans;
    std::vector<double> minflt;
    const auto trace0 = Steady::now();
    for (std::size_t it = 0;
         batch_spans.size() < 3 ||
         seconds_between(trace0, Steady::now()) <
             kBatchShare * args.seconds / kRounds;
         ++it) {
      const auto& in = batches[it % set_batches];
      const long f0 = minor_faults();
      const long span = tracer.begin("batch", -1, it);
      std::vector<Tensor> xs;
      for (std::size_t l = 0; l < net->layer_count(); ++l) {
        const auto& layer = net->layer(l);
        const long ls = tracer.begin(layer.name(), span, it);
        xs = l == 0 ? layer.forward_batch(in, runner->pool())
                    : layer.forward_batch(xs, runner->pool());
        tracer.end(ls);
      }
      tracer.end(span);
      minflt.push_back(static_cast<double>(minor_faults() - f0));
      batch_spans.push_back(span);
      traced += check_outputs(xs, ref[it % set_batches]);
    }
    report.phase(traced);

    // Self time per network layer and per bucket, averaged per batch.
    const std::vector<double> self = tracer.self_us();
    std::map<std::string, double> layer_ms;
    std::map<std::string, double> bucket_ms{
        {"real", 0.0}, {"xnor", 0.0}, {"epilogue", 0.0}};
    std::map<std::string, std::string> layer_bucket;
    for (std::size_t l = 0; l < net->layer_count(); ++l) {
      layer_bucket[net->layer(l).name()] = bucket(net->layer(l).spec());
    }
    const double nb = static_cast<double>(batch_spans.size());
    double glue_ms = 0.0;
    double batch_ms = 0.0;
    std::vector<double> traced_batch_s;
    for (std::size_t s = 0; s < tracer.spans().size(); ++s) {
      const Span& sp = tracer.spans()[s];
      if (sp.parent < 0) {
        glue_ms += self[s] / 1e3 / nb;
        batch_ms += (sp.end_us - sp.start_us) / 1e3 / nb;
        traced_batch_s.push_back((sp.end_us - sp.start_us) / 1e6);
      } else {
        layer_ms[sp.name] += self[s] / 1e3 / nb;
        bucket_ms[layer_bucket[sp.name]] += self[s] / 1e3 / nb;
      }
    }

    const eb::arch::CostModel cm(eb::arch::TechParams::paper_defaults());
    const auto eb_cost = cm.evaluate(eb::arch::Design::EinsteinBarrier, net->spec());
    const auto base_cost = cm.evaluate(eb::arch::Design::BaselineEpcm, net->spec());
    std::map<std::string, std::pair<double, double>> modelled;
    for (std::size_t k = 0; k < eb_cost.layers.size(); ++k) {
      modelled[eb_cost.layers[k].layer] = {eb_cost.layers[k].latency_ns,
                                           base_cost.layers[k].latency_ns};
    }
    std::printf("\nper-layer host self time vs the modelled EinsteinBarrier "
                "layer (CostModel, per inference)\n");
    std::printf("  %-10s %-9s %10s %7s %14s %14s %10s\n", "layer", "bucket",
                "host ms/b", "share", "EB model ns", "ePCM model ns",
                "EB speedup");
    for (std::size_t l = 0; l < net->layer_count(); ++l) {
      const std::string name = net->layer(l).name();
      std::printf("  %-10s %-9s %10.3f %6.1f%%", name.c_str(),
                  layer_bucket[name].c_str(), layer_ms[name],
                  100.0 * layer_ms[name] / batch_ms);
      const auto m = modelled.find(name);
      if (m != modelled.end()) {
        std::printf(" %14.1f %14.1f %9.1fx", m->second.first, m->second.second,
                    m->second.second / m->second.first);
      }
      std::printf("\n");
    }
    std::printf("  network EB model %.1f ns vs Baseline-ePCM %.1f ns: %.1fx "
                "(paper Fig. 7: EinsteinBarrier ~22x..~3113x, TacitMap up to "
                "~154x)\n",
                eb_cost.latency_ns, base_cost.latency_ns,
                base_cost.latency_ns / eb_cost.latency_ns);
    std::printf("  self times:");
    double sum_ms = glue_ms;
    for (const auto& [name, ms] : bucket_ms) {
      std::printf(" %s %.3f +", name.c_str(), ms);
      sum_ms += ms;
    }
    std::printf(" replay glue %.3f = %.3f ms = traced batch %.3f ms\n",
                glue_ms, sum_ms, batch_ms);

    std::printf("\nper-layer:\n");
    report.layer("bnn.real_ms", bucket_ms["real"], "ms");
    report.layer("bnn.xnor_ms", bucket_ms["xnor"], "ms");
    report.layer("bnn.epilogue_ms", bucket_ms["epilogue"], "ms");
    report.layer("bnn.minflt_per_batch", mean(minflt), "count");
    report.layer("trace.overhead_pct",
                 100.0 * (median(traced_batch_s) - untraced_batch_s) /
                     untraced_batch_s,
                 "%");
    const std::string path = args.workdir + "/trace-" + args.workload + ".csv";
    std::printf("  %zu spans -> %s%s\n", tracer.spans().size(), path.c_str(),
                tracer.write_csv(path) ? "" : " (write failed)");
  }

  std::printf("\n");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.layer("host.steal_pct", steal_pct(host0, read_cpu_times()), "%");
}

}  // namespace pb
