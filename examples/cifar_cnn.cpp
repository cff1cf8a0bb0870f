// Conv-network study on the CIFAR-10 stand-in: builds VGG-D (the paper's
// conv-heavy MlBench network), validates a binarized conv layer's im2col
// windows on the oPCM TacitMap executor (WDM batches of 16 windows), and
// reports the modeled per-design costs where VGG-D shows the paper's
// extreme speedups.
//
//   ./build/examples/cifar_cnn [samples=2]
#include <cstdio>

#include "arch/cost_model.hpp"
#include "bnn/dataset.hpp"
#include "bnn/layers.hpp"
#include "bnn/model_zoo.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "device/noise.hpp"
#include "eval/experiments.hpp"
#include "mapping/tacitmap.hpp"

int main(int argc, char** argv) {
  using namespace eb;
  const Config cfg = Config::from_args(argc, argv);
  const auto samples = static_cast<std::size_t>(cfg.get_int("samples", 2));
  Rng rng(9);
  const dev::NoNoise no_noise;

  // ---- functional forward of VGG-D on synthetic CIFAR -------------------
  std::puts("building VGG-D (binarized hidden layers, random weights)...");
  const bnn::Network vgg = bnn::build_vgg_d(rng);
  bnn::SyntheticCifar data(7);
  for (std::size_t i = 0; i < samples; ++i) {
    const bnn::Sample s = data.sample(i);
    const std::size_t pred = vgg.predict(s.image);
    std::printf("  sample %zu: label %zu, VGG-D (untrained) predicts %zu\n",
                i, s.label, pred);
  }

  // ---- validate one binarized conv layer on the oPCM executor -----------
  // conv6 (3x3x256 kernels over an 8x8 map) is representative of the
  // layers that dominate VGG-D's crossbar work.
  bnn::Conv2dGeom geom;
  geom.in_ch = 32;  // reduced channel count keeps the demo quick
  geom.out_ch = 16;
  geom.kernel = 3;
  geom.stride = 1;
  geom.pad = 1;
  geom.in_h = 8;
  geom.in_w = 8;
  const auto conv = bnn::BinaryConv2dLayer::random("demo_conv", geom, rng);
  bnn::Tensor act({geom.in_ch, geom.in_h, geom.in_w});
  for (std::size_t i = 0; i < act.size(); ++i) {
    act[i] = rng.bernoulli() ? 1.0 : -1.0;
  }
  const bnn::Tensor want = conv.forward(act);

  // Map the kernels with TacitMap on oPCM and push all 64 windows through
  // in WDM batches of 16 (paper Fig. 5-(b)).
  map::TacitOpticalConfig ocfg;
  const map::TacitMapOptical mapped(conv.kernels(), ocfg);

  // All windows through one execute_batch call: the executor tiles them
  // into ceil(B / wdm_capacity) WDM passes internally (the hand-rolled
  // chunking this example used to do itself). Window k sits at output
  // position (k / out_w, k % out_w).
  BitMatrix im2col(geom.out_h() * geom.out_w(), conv.kernels().cols());
  bnn::pack_im2col_rows(im2col, 0, act, geom);
  std::vector<std::pair<std::size_t, std::size_t>> positions;
  std::vector<BitVec> windows;
  for (std::size_t k = 0; k < im2col.rows(); ++k) {
    windows.push_back(im2col.row(k));
    positions.emplace_back(k / geom.out_w(), k % geom.out_w());
  }
  const auto counts = mapped.execute_batch(windows, no_noise, rng);
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const auto [oh, ow] = positions[k];
    for (std::size_t oc = 0; oc < geom.out_ch; ++oc) {
      const long long dot = 2 * static_cast<long long>(counts[k][oc]) -
                            static_cast<long long>(windows[k].size());
      if (static_cast<double>(dot) != want.at({oc, oh, ow})) {
        ++mismatches;
      }
    }
  }
  const std::size_t steps =
      (windows.size() + ocfg.wdm_capacity - 1) / ocfg.wdm_capacity;
  std::printf("\nconv validation: %zu im2col windows in %zu WDM passes of"
              " K<=%zu -> %zu output mismatches vs reference\n",
              windows.size(), steps, ocfg.wdm_capacity, mismatches);

  // ---- modeled cost of the full VGG-D ------------------------------------
  const arch::TechParams tech = arch::TechParams::paper_defaults();
  const arch::CostModel model(tech);
  const auto spec = bnn::vgg_d_spec();
  const auto base = model.evaluate(arch::Design::BaselineEpcm, spec);
  Table perf({"design", "latency (us)", "energy (uJ)", "speedup"});
  for (const auto design :
       {arch::Design::BaselineEpcm, arch::Design::TacitEpcm,
        arch::Design::EinsteinBarrier, arch::Design::BaselineGpu}) {
    const auto c = model.evaluate(design, spec);
    perf.add_row({arch::to_string(design),
                  Table::num(ns_to_us(c.latency_ns), 2),
                  design == arch::Design::BaselineGpu
                      ? "-"
                      : Table::num(pj_to_uj(c.energy_pj), 3),
                  Table::num(base.latency_ns / c.latency_ns, 1)});
  }
  std::printf("\n== modeled per-inference cost (VGG-D, CIFAR-10) ==\n%s",
              perf.render().c_str());
  std::puts("\nVGG-D's thousands of im2col windows are what EinsteinBarrier"
            "\nbatches over wavelengths -- this is the network where the"
            "\npaper reports its ~3113x extreme.");

  // Per-layer breakdown of where EinsteinBarrier spends its time.
  std::printf("\n== EinsteinBarrier per-layer breakdown ==\n%s",
              eval::layer_breakdown_table(model,
                                          arch::Design::EinsteinBarrier, spec)
                  .render()
                  .c_str());
  return 0;
}
