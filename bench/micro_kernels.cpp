// google-benchmark microbenchmarks of the simulation substrate itself:
// the packed XNOR+Popcount kernel, the real-valued panel GEMM,
// functional crossbar VMMs, mapping construction and execution. These
// gate the practicality of the functional validation path (everything
// else in bench/ measures the *modeled* hardware, not the simulator).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bnn/autotune.hpp"
#include "bnn/batch_runner.hpp"
#include "bnn/binarize.hpp"
#include "bnn/format.hpp"
#include "bnn/kernels.hpp"
#include "bnn/layers.hpp"
#include "bnn/network.hpp"
#include "bnn/packed.hpp"
#include "bnn/real_gemm.hpp"
#include "common/bitvec.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "mapping/custbinarymap.hpp"
#include "mapping/tacitmap.hpp"
#include "mapping/task.hpp"
#include "xbar/crossbar.hpp"

namespace {

const eb::dev::NoNoise kNoNoise;

void BM_XnorPopcount(benchmark::State& state) {
  eb::Rng rng(1);
  const auto len = static_cast<std::size_t>(state.range(0));
  const eb::BitVec a = eb::BitVec::random(len, rng);
  const eb::BitVec b = eb::BitVec::random(len, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.xnor_popcount(b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_XnorPopcount)->Arg(128)->Arg(1024)->Arg(4096)->Arg(65536);

void BM_BinaryDenseLayerForward(benchmark::State& state) {
  eb::Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const eb::BitMatrix w = eb::BitMatrix::random(n, 1024, rng);
  const eb::BitVec x = eb::BitVec::random(1024, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.xnor_popcount_all(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * 1024));
}
BENCHMARK(BM_BinaryDenseLayerForward)->Arg(64)->Arg(512)->Arg(4096);

void BM_ElectricalCrossbarVmm(benchmark::State& state) {
  eb::Rng rng(3);
  const auto dim = static_cast<std::size_t>(state.range(0));
  eb::xbar::ElectricalCrossbar xb({dim, dim}, eb::dev::EpcmParams::ideal());
  for (std::size_t c = 0; c < dim; ++c) {
    xb.program_column(c, eb::BitVec::random(dim, rng));
  }
  const eb::BitVec active = eb::BitVec::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        xb.vmm_currents_bits(active, 0.2, kNoNoise, rng));
  }
}
BENCHMARK(BM_ElectricalCrossbarVmm)->Arg(64)->Arg(256)->Arg(512);

void BM_TacitMapBuild(benchmark::State& state) {
  eb::Rng rng(4);
  const auto task = eb::map::XnorPopcountTask::random(512, 256, 1, rng);
  for (auto _ : state) {
    eb::map::TacitMapElectrical mapped(task.weights,
                                       eb::map::TacitElectricalConfig{});
    benchmark::DoNotOptimize(mapped.partition().crossbars());
  }
}
BENCHMARK(BM_TacitMapBuild);

void BM_TacitMapExecute(benchmark::State& state) {
  eb::Rng rng(5);
  const auto task = eb::map::XnorPopcountTask::random(512, 256, 1, rng);
  const eb::map::TacitMapElectrical mapped(task.weights,
                                           eb::map::TacitElectricalConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapped.execute(task.inputs[0], kNoNoise, rng));
  }
}
BENCHMARK(BM_TacitMapExecute);

void BM_CustBinaryMapExecute(benchmark::State& state) {
  eb::Rng rng(6);
  const auto task = eb::map::XnorPopcountTask::random(512, 256, 1, rng);
  const eb::map::CustBinaryMap mapped(task.weights,
                                      eb::map::CustBinaryConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapped.execute(task.inputs[0], kNoNoise, rng));
  }
}
BENCHMARK(BM_CustBinaryMapExecute);

// -- scalar per-sample vs packed batched inference engine ----------------
//
// The trio below is the headline comparison for the batched engine: one
// 1024x1024 binarized dense layer hit by a batch of 64 +/-1 activation
// tensors.
//  * scalar reference : the per-sample path the engine replaced (Tensor
//    in, bit-by-bit binarize, one BitVec::signed_dot per weight row) --
//    reproduced here, over one BitVec per weight row as the seed's layer
//    held them, so the replaced schedule stays measurable;
//  * forward          : today's per-sample path (a one-row GEMM);
//  * forward_batch    : the batched engine (pack the batch once, one
//    fused XNOR+Popcount GEMM).
// All three produce bit-identical outputs.

constexpr std::size_t kEngineDim = 1024;
constexpr std::size_t kEngineBatch = 64;

// The seed's BinaryDenseLayer::forward, before the packed engine landed.
eb::bnn::Tensor scalar_reference_forward(const std::vector<eb::BitVec>& w,
                                         const eb::bnn::Tensor& x) {
  const eb::BitVec xb = eb::bnn::binarize(x);
  eb::bnn::Tensor out({w.size()});
  for (std::size_t r = 0; r < w.size(); ++r) {
    out[r] = static_cast<double>(w[r].signed_dot(xb));
  }
  return out;
}

struct EngineFixture {
  eb::bnn::BinaryDenseLayer layer;
  std::vector<eb::BitVec> rows;  // the layer's weights, one BitVec a row
  std::vector<eb::bnn::Tensor> batch;

  EngineFixture() : layer(make_layer()), batch(make_batch()) {
    for (std::size_t r = 0; r < layer.weights().rows(); ++r) {
      rows.push_back(layer.weights().row(r));
    }
  }

  static eb::bnn::BinaryDenseLayer make_layer() {
    eb::Rng rng(8);
    return eb::bnn::BinaryDenseLayer::random("bench-fc", kEngineDim,
                                             kEngineDim, rng);
  }
  static std::vector<eb::bnn::Tensor> make_batch() {
    eb::Rng rng(9);
    std::vector<eb::bnn::Tensor> xs;
    xs.reserve(kEngineBatch);
    for (std::size_t i = 0; i < kEngineBatch; ++i) {
      xs.push_back(eb::bnn::to_signed_tensor(
          eb::BitVec::random(kEngineDim, rng), {kEngineDim}));
    }
    return xs;
  }
};

const EngineFixture& engine_fixture() {
  static const EngineFixture f;
  return f;
}

void BM_ScalarReferenceDense(benchmark::State& state) {
  const auto& f = engine_fixture();
  for (auto _ : state) {
    for (const auto& x : f.batch) {
      benchmark::DoNotOptimize(scalar_reference_forward(f.rows, x));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch * kEngineDim *
                                               kEngineDim));
}
BENCHMARK(BM_ScalarReferenceDense);

void BM_ScalarPerSampleDense(benchmark::State& state) {
  const auto& f = engine_fixture();
  for (auto _ : state) {
    for (const auto& x : f.batch) {
      benchmark::DoNotOptimize(f.layer.forward(x));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch * kEngineDim *
                                               kEngineDim));
}
BENCHMARK(BM_ScalarPerSampleDense);

void BM_PackedBatchedDense(benchmark::State& state) {
  const auto& f = engine_fixture();
  eb::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.layer.forward_batch(f.batch, pool));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch * kEngineDim *
                                               kEngineDim));
}
BENCHMARK(BM_PackedBatchedDense)->Arg(1)->Arg(0);

// -- BatchNorm+Sign epilogue vs folded integer threshold ------------------
//
// The serving epilogue of a binary hidden layer: sign(BN(x)) over integer
// pre-activations against the ThresholdLayer fold_network() replaces it
// with (docs/MODELS.md). Both run over the same batch of pre-activations
// from the 1024x1024 engine layer; the fixture checks bit-identity once at
// construction so the timed pair can never drift apart semantically. Half
// the BN channels carry negative gamma, so the folded path exercises
// flipped comparisons too.

struct EpilogueFixture {
  eb::bnn::Network unfolded;  // fc | bn | sign
  eb::bnn::Network folded;    // fc | threshold
  std::vector<eb::bnn::Tensor> pre;

  EpilogueFixture()
      : unfolded(make_unfolded()),
        folded(eb::bnn::fold_network(unfolded)),
        pre(make_pre(unfolded)) {
    EB_REQUIRE(folded.layer_count() == 2 &&
                   folded.layer(1).spec().kind ==
                       eb::bnn::LayerKind::Threshold,
               "epilogue fixture did not fold to a ThresholdLayer");
    for (const auto& x : pre) {
      const eb::bnn::Tensor a =
          unfolded.layer(2).forward(unfolded.layer(1).forward(x));
      const eb::bnn::Tensor b = folded.layer(1).forward(x);
      for (std::size_t c = 0; c < a.size(); ++c) {
        EB_REQUIRE(a[c] == b[c], "folded epilogue diverged from BN+Sign");
      }
    }
  }

  static eb::bnn::Network make_unfolded() {
    eb::Rng rng(10);
    eb::bnn::Network net("epilogue-bench", "synthetic");
    net.add(eb::bnn::BinaryDenseLayer::random("fc", kEngineDim, kEngineDim,
                                              rng));
    std::vector<double> gamma(kEngineDim);
    std::vector<double> beta(kEngineDim);
    std::vector<double> mean(kEngineDim);
    std::vector<double> var(kEngineDim);
    for (std::size_t c = 0; c < kEngineDim; ++c) {
      gamma[c] = (c % 2 == 0 ? 1.0 : -1.0) * rng.uniform(0.2, 1.5);
      beta[c] = rng.uniform(-0.5, 0.5);
      mean[c] = rng.uniform(-32.0, 32.0);
      var[c] = rng.uniform(1.0, 64.0);
    }
    net.add(eb::bnn::BatchNormLayer("bn", gamma, beta, mean, var));
    net.add(eb::bnn::SignLayer("sign", kEngineDim));
    return net;
  }

  static std::vector<eb::bnn::Tensor> make_pre(const eb::bnn::Network& net) {
    eb::Rng rng(11);
    std::vector<eb::bnn::Tensor> xs;
    xs.reserve(kEngineBatch);
    for (std::size_t i = 0; i < kEngineBatch; ++i) {
      xs.push_back(net.layer(0).forward(eb::bnn::to_signed_tensor(
          eb::BitVec::random(kEngineDim, rng), {kEngineDim})));
    }
    return xs;
  }
};

const EpilogueFixture& epilogue_fixture() {
  static const EpilogueFixture f;
  return f;
}

void BM_BatchNormSignEpilogue(benchmark::State& state) {
  const auto& f = epilogue_fixture();
  const eb::bnn::Layer& bn = f.unfolded.layer(1);
  const eb::bnn::Layer& sign = f.unfolded.layer(2);
  for (auto _ : state) {
    for (const auto& x : f.pre) {
      benchmark::DoNotOptimize(sign.forward(bn.forward(x)));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch * kEngineDim));
}
BENCHMARK(BM_BatchNormSignEpilogue);

void BM_FoldedThresholdEpilogue(benchmark::State& state) {
  const auto& f = epilogue_fixture();
  const eb::bnn::Layer& thr = f.folded.layer(1);
  for (auto _ : state) {
    for (const auto& x : f.pre) {
      benchmark::DoNotOptimize(thr.forward(x));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch * kEngineDim));
}
BENCHMARK(BM_FoldedThresholdEpilogue);

// -- serial vs sharded mapped execution ----------------------------------
//
// The mapped executors flatten (row segment x column tile) crossbar steps
// through map::CrossbarScheduler. This fixture is a paper-scale hidden
// layer (m = 2048 inputs, n = 1024 weight vectors) on 512x512 crossbars:
// 2m = 4096 rows -> 8 segments x 2 column tiles = 16 independent shards,
// executed under realistic Gaussian read noise.

struct ShardedFixture {
  eb::map::XnorPopcountTask task;
  eb::map::TacitMapElectrical mapped;
  eb::dev::GaussianReadNoise noise{0.001};

  ShardedFixture()
      : task(make_task()),
        mapped(task.weights, eb::map::TacitElectricalConfig{}) {}

  static eb::map::XnorPopcountTask make_task() {
    eb::Rng rng(21);
    return eb::map::XnorPopcountTask::random(2048, 1024, 1, rng);
  }
};

const ShardedFixture& sharded_fixture() {
  static const ShardedFixture f;
  return f;
}

void BM_TacitMapExecuteSharded(benchmark::State& state) {
  const auto& f = sharded_fixture();
  const auto threads = static_cast<std::size_t>(state.range(0));
  eb::ThreadPool pool(threads);
  eb::Rng rng(22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.mapped.execute(f.task.inputs[0], f.noise, rng, &pool));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(f.mapped.partition().crossbars()));
}
BENCHMARK(BM_TacitMapExecuteSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_OpticalWdmExecute(benchmark::State& state) {
  eb::Rng rng(7);
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto task = eb::map::XnorPopcountTask::random(256, 64, k, rng);
  eb::map::TacitOpticalConfig cfg;
  cfg.wdm_capacity = 16;
  const eb::map::TacitMapOptical mapped(task.weights, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapped.execute_wdm(task.inputs, kNoNoise, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(BM_OpticalWdmExecute)->Arg(1)->Arg(4)->Arg(16);

// -- optical WDM sweep candidates ------------------------------------------
//
// One single-threaded OpticalCrossbar::wdm_powers pass per iteration, for
// every sweep candidate the host supports (BM_OpticalWdmPass/<candidate>/
// <K>/<cols>), at the repository benchmark's wdm-mapped shape: MLP-S fc2
// (m 500, n 250) on 512x512 crossbars, so the first row segment is 512
// driven-or-not rows of [x ; ~x] and 250 programmed columns. K channels
// ride the pass with ideal readout and read the 250 columns the tile's
// receivers convert (what TacitMapOptical reads) or all 512; items are
// channels, so items/s inverts to the time per channel per shard.

struct WdmPassFixture {
  eb::xbar::OpticalCrossbar xb{{512, 512}, eb::dev::OpcmParams::ideal()};
  std::vector<eb::BitVec> drives;

  WdmPassFixture() {
    eb::Rng rng(0x3d);
    const auto task = eb::map::XnorPopcountTask::random(500, 250, 16, rng);
    for (std::size_t j = 0; j < task.weights.rows(); ++j) {
      xb.program_column(
          j, eb::map::tacit_column_stack(task.weights.row(j)).slice(0, 512));
    }
    for (const auto& x : task.inputs) {
      drives.push_back(eb::map::tacit_row_drive(x).slice(0, 512));
    }
  }
};

void run_wdm_pass(benchmark::State& state, const eb::xbar::WdmKernel& kernel,
                  std::size_t channels, std::size_t cols) {
  static const WdmPassFixture f;
  const std::span<const eb::BitVec> drives(f.drives.data(), channels);
  eb::RngStream rng(0x3e);
  const std::vector<eb::RngStream*> rngs(channels, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.xb.wdm_powers(kernel, drives, 1.0, kNoNoise, rngs, cols));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(channels));
}

void register_wdm_pass_benchmarks() {
  for (const auto& kernel : eb::xbar::wdm_kernels()) {
    if (!kernel.supported) {
      continue;
    }
    for (const std::size_t channels : {1, 16}) {
      for (const std::size_t cols : {250, 512}) {
        const std::string name = std::string("BM_OpticalWdmPass/") +
                                 kernel.name + "/" + std::to_string(channels) +
                                 "/" + std::to_string(cols);
        benchmark::RegisterBenchmark(name.c_str(), run_wdm_pass, kernel,
                                     channels, cols);
      }
    }
  }
}

// -- real-valued GEMM candidates -------------------------------------------
//
// One single-threaded real_gemm_bias call per iteration, for every
// real-GEMM candidate the host supports (BM_RealGemm/<candidate>/<shape>),
// on the precision-end GEMMs of the model zoo: MLP-L's fc1 at batch 1 and
// 64, the conv1 im2col GEMMs of CNN-1, CNN-2 and VGG-D, and the sfc
// model's fc4 at batch 8. Items are multiply-adds.

struct RealGemmShape {
  const char* name;
  std::size_t m;
  std::size_t n;
  std::size_t k;
};

constexpr RealGemmShape kRealGemmShapes[] = {
    {"mlp_l_fc1_m1", 1, 1500, 784}, {"mlp_l_fc1_m64", 64, 1500, 784},
    {"cnn1_conv1", 36864, 5, 25},   {"cnn2_conv1", 30976, 10, 49},
    {"vgg_d_conv1", 8192, 64, 27},  {"sfc_fc4", 8, 10, 256},
};

void run_real_gemm(benchmark::State& state,
                   const eb::bnn::RealGemmKernel& kernel,
                   const RealGemmShape& s) {
  eb::RngStream rng(0x6e33);
  const auto values = [&rng](std::size_t count) {
    std::vector<double> v(count);
    for (auto& e : v) {
      e = rng.uniform(-1.0, 1.0);
    }
    return v;
  };
  const std::vector<double> x = values(s.m * s.k);
  const std::vector<double> bias = values(s.n);
  const eb::bnn::PanelMatrix w(s.n, s.k, values(s.n * s.k));
  std::vector<double> out(s.m * s.n);
  for (auto _ : state) {
    eb::bnn::real_gemm_bias(kernel, s.m, x.data(), w, bias.data(),
                            out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.m * s.n * s.k));
}

void register_real_gemm_benchmarks() {
  for (const auto& kernel : eb::bnn::real_gemm_kernels()) {
    if (!kernel.supported) {
      continue;
    }
    for (const auto& shape : kRealGemmShapes) {
      const std::string name =
          std::string("BM_RealGemm/") + kernel.name + "/" + shape.name;
      benchmark::RegisterBenchmark(name.c_str(), run_real_gemm, kernel,
                                   shape);
    }
  }
}

// Explicit acceptance check: times both engines directly (min-of-5 runs)
// and prints the speedup of the packed batched engine over the scalar
// per-sample path on the 1024x1024 / batch-64 layer.
void report_engine_speedup() {
  const auto& f = engine_fixture();
  eb::ThreadPool inline_pool(1);
  auto time_min_s = [](auto&& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  const double reference_s = time_min_s([&f] {
    for (const auto& x : f.batch) {
      benchmark::DoNotOptimize(scalar_reference_forward(f.rows, x));
    }
  });
  const double forward_s = time_min_s([&f] {
    for (const auto& x : f.batch) {
      benchmark::DoNotOptimize(f.layer.forward(x));
    }
  });
  const double packed_s = time_min_s([&f, &inline_pool] {
    benchmark::DoNotOptimize(f.layer.forward_batch(f.batch, inline_pool));
  });
  const double ops =
      static_cast<double>(kEngineBatch * kEngineDim * kEngineDim);
  std::printf(
      "\n== packed batched engine vs scalar per-sample path "
      "(%zux%zu XNOR layer, batch %zu) ==\n",
      kEngineDim, kEngineDim, kEngineBatch);
  std::printf("scalar reference (replaced path) : %8.3f ms  (%6.1f Gbitop/s)\n",
              reference_s * 1e3, ops / reference_s * 1e-9);
  std::printf("per-sample forward (1-row GEMM)  : %8.3f ms  (%6.1f Gbitop/s)\n",
              forward_s * 1e3, ops / forward_s * 1e-9);
  std::printf("packed batched engine            : %8.3f ms  (%6.1f Gbitop/s)\n",
              packed_s * 1e3, ops / packed_s * 1e-9);
  std::printf("speedup vs replaced path         : %8.2fx (single-threaded)\n",
              reference_s / packed_s);
}

// Acceptance check for the sharded crossbar scheduler: times the mapped
// noisy execution of the paper-scale fixture serially and at 1, 2 and N
// threads (min-of-5 runs each) and prints crossbar steps/sec + speedup.
void report_sharded_mapping_speedup() {
  const auto& f = sharded_fixture();
  const std::size_t hw =
      std::max<std::size_t>(4, std::thread::hardware_concurrency());
  auto time_min_s = [](auto&& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  const auto time_with_pool = [&](eb::ThreadPool* pool) {
    eb::Rng rng(23);
    return time_min_s([&f, pool, &rng] {
      for (int i = 0; i < 4; ++i) {
        benchmark::DoNotOptimize(
            f.mapped.execute(f.task.inputs[0], f.noise, rng, pool));
      }
    });
  };
  const double steps =
      4.0 * static_cast<double>(f.mapped.partition().crossbars());
  const double serial_s = time_with_pool(nullptr);
  std::printf(
      "\n== sharded mapped execution vs serial loop "
      "(TacitMap-ePCM, m=2048 n=1024, %zu shards, read noise 0.1%%) ==\n",
      f.mapped.partition().crossbars());
  std::printf("serial nested loops              : %8.3f ms  (%7.0f steps/s)\n",
              serial_s * 1e3, steps / serial_s);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    eb::ThreadPool pool(threads);
    const double s = time_with_pool(&pool);
    std::printf(
        "sharded scheduler, %2zu thread%s    : %8.3f ms  (%7.0f steps/s)  "
        "%5.2fx\n",
        threads, threads == 1 ? " " : "s", s * 1e3, steps / s,
        serial_s / s);
  }
}

// -- kernel-matrix report -------------------------------------------------
//
// mode=matrix times every supported registry candidate on a shape grid
// (1024 weight rows; 256/1024/4096 cols; batch 1/8/64) plus the
// autotuner's pick per shape, prints the matrix and optionally writes it
// as a JSON artifact (json=path). mode=ci is the CI smoke: only the gate
// shape (1024x1024, batch 64), asserting the tuned pick is at least
// 1.15x the forced-portable kernel -- the empirical dispatch must never
// regress below the floor a portable build would deliver. tune_cache=path
// additionally saves the tuned table (the EB_TUNE_CACHE format) so CI can
// upload it next to the matrix.

constexpr std::size_t kMatrixRows = 1024;
constexpr double kCiMinSpeedup = 1.15;

// Min-of-reps time of one full batched sweep (all x rows against all
// weight rows), with a calibrated inner iteration count so small shapes
// are not noise-bound.
double time_sweep_ns(eb::bnn::SweepXnorFn sweep, const eb::BitMatrix& x,
                     const eb::BitMatrix& w) {
  const std::size_t nw = w.words_per_row();
  std::vector<std::uint32_t> out(w.rows());
  const auto unit = [&] {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      sweep(x.row_words(i), w.row_words(0), w.rows(), nw, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  };
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  unit();  // warmup + calibration probe
  const double once =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  const auto iters = static_cast<std::size_t>(
      std::clamp(2e6 / std::max(once, 1.0), 1.0, 4096.0));
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto r0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it) {
      unit();
    }
    best = std::min(best, std::chrono::duration<double, std::nano>(
                              Clock::now() - r0)
                              .count() /
                              static_cast<double>(iters));
  }
  return best;
}

int run_kernel_matrix(const std::string& mode, const std::string& json_path,
                      const std::string& tune_cache_path) {
  const bool ci = mode == "ci";
  const std::vector<std::size_t> cols_grid =
      ci ? std::vector<std::size_t>{1024}
         : std::vector<std::size_t>{256, 1024, 4096};
  const std::vector<std::size_t> batch_grid =
      ci ? std::vector<std::size_t>{64} : std::vector<std::size_t>{1, 8, 64};

  std::string json = "{\n  \"rows\": " + std::to_string(kMatrixRows) +
                     ",\n  \"shapes\": [";
  bool first_shape = true;
  bool gate_ok = true;
  double gate_speedup = 0.0;

  for (const std::size_t cols : cols_grid) {
    eb::Rng rng(0x3A7 + cols);
    const eb::BitMatrix w = eb::BitMatrix::random(kMatrixRows, cols, rng);
    for (const std::size_t batch : batch_grid) {
      const eb::BitMatrix x = eb::BitMatrix::random(batch, cols, rng);
      const double bitops =
          static_cast<double>(batch) * static_cast<double>(kMatrixRows) *
          static_cast<double>(cols);
      const eb::bnn::Kernel& tuned = eb::bnn::Autotuner::instance().pick_xnor(
          kMatrixRows, w.words_per_row(), batch);

      std::printf("\n== kernel matrix: %zux%zu weights, batch %zu (tuned: %s) ==\n",
                  kMatrixRows, cols, batch, tuned.name);
      json += first_shape ? "\n" : ",\n";
      first_shape = false;
      json += "    {\"cols\": " + std::to_string(cols) +
              ", \"batch\": " + std::to_string(batch) + ", \"tuned\": \"" +
              tuned.name + "\", \"candidates\": [";

      double tuned_ns = 0.0;
      double portable_ns = 0.0;
      bool first_cand = true;
      for (const auto& k : eb::bnn::kernel_registry()) {
        if (!k.supported) {
          continue;
        }
        const double ns = time_sweep_ns(k.sweep, x, w);
        if (std::string_view(k.name) == tuned.name) {
          tuned_ns = ns;
        }
        if (std::string_view(k.name) == "portable") {
          portable_ns = ns;
        }
        std::printf("  %-16s %12.0f ns   %7.1f Gbitop/s%s\n", k.name, ns,
                    bitops / ns, std::string_view(k.name) == tuned.name
                                     ? "   <- tuned pick"
                                     : "");
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s\n      {\"name\": \"%s\", \"ns\": %.1f, "
                      "\"gbitops\": %.2f}",
                      first_cand ? "" : ",", k.name, ns, bitops / ns);
        first_cand = false;
        json += buf;
      }
      json += "\n    ]}";

      if (ci && cols == 1024 && batch == 64) {
        gate_speedup = portable_ns / tuned_ns;
        gate_ok = gate_speedup >= kCiMinSpeedup;
      }
    }
  }
  json += "\n  ]\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << json;
    if (!out.good()) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote kernel matrix to %s\n", json_path.c_str());
  }
  if (!tune_cache_path.empty()) {
    eb::bnn::Autotuner::instance().save_cache_file(tune_cache_path);
    std::printf("wrote tuning cache to %s\n", tune_cache_path.c_str());
  }
  if (ci) {
    std::printf(
        "\nCI gate: tuned dispatch vs forced-portable at 1024x1024 batch 64: "
        "%.2fx (floor %.2fx) -- %s\n",
        gate_speedup, kCiMinSpeedup, gate_ok ? "PASS" : "FAIL");
    if (!gate_ok) {
      return 1;
    }
  }
  return 0;
}

int run_google_benchmarks(int argc, char** argv) {
  // Skip the (deliberately slow) acceptance timing when the user filtered
  // to benchmarks unrelated to the engine comparison pair, and always for
  // introspection-only invocations. Tracked as separate conditions so flag
  // order cannot re-enable the report.
  bool filter_matches_engine = true;
  bool filter_matches_sharded = true;
  bool introspection_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kFilter = "--benchmark_filter=";
    if (arg.starts_with(kFilter)) {
      const std::string_view filter = arg.substr(kFilter.size());
      const auto matches_any = [filter](
                                   std::initializer_list<std::string_view>
                                       tokens) {
        if (filter.starts_with("-")) {
          return false;  // exclusion filter: never re-enable a report
        }
        for (const auto token : tokens) {
          if (filter.find(token) != std::string_view::npos) {
            return true;
          }
        }
        return false;
      };
      filter_matches_engine = matches_any(
          {"Dense", "Scalar", "Packed", "Reference", "Batched", "engine"});
      filter_matches_sharded =
          matches_any({"Sharded", "TacitMap", "mapping"});
    } else if (arg.starts_with("--benchmark_list_tests") ||
               arg.starts_with("--benchmark_dry_run")) {
      introspection_only = true;
    }
  }
  register_real_gemm_benchmarks();
  register_wdm_pass_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (filter_matches_engine && !introspection_only) {
    report_engine_speedup();
  }
  if (filter_matches_sharded && !introspection_only) {
    report_sharded_mapping_speedup();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Kernel-matrix modes bypass google-benchmark entirely: mode=matrix for
  // the full candidate x shape report, mode=ci for the tuned-vs-portable
  // smoke gate. json= and tune_cache= name the artifacts to write.
  try {
    const eb::Config cfg =
        eb::Config::from_args(argc, argv, {"mode", "json", "tune_cache"});
    const std::string mode = cfg.get_string("mode", "");
    if (mode == "matrix" || mode == "ci") {
      return run_kernel_matrix(mode, cfg.get_string("json", ""),
                               cfg.get_string("tune_cache", ""));
    }
    if (!mode.empty()) {
      std::fprintf(stderr, "unknown mode '%s' (accepted: matrix, ci)\n",
                   mode.c_str());
      return 1;
    }
  } catch (const eb::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return run_google_benchmarks(argc, argv);
}
