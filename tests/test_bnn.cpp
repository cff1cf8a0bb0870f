// Unit tests for eb::bnn -- tensors, binarization, layers, model zoo,
// datasets and the STE trainer.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bnn/binarize.hpp"
#include "bnn/dataset.hpp"
#include "bnn/layers.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "bnn/spec.hpp"
#include "bnn/tensor.hpp"
#include "bnn/trainer.hpp"
#include "common/error.hpp"

namespace eb::bnn {
namespace {

// ---------------------------------------------------------------- tensor --

TEST(Tensor, ShapeAndIndexing) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  t.at({1, 2, 3}) = 7.5;
  EXPECT_DOUBLE_EQ(t.at({1, 2, 3}), 7.5);
  EXPECT_DOUBLE_EQ(t[23], 7.5);  // row-major last element
  EXPECT_THROW(static_cast<void>(t.at({2, 0, 0})), Error);
  EXPECT_THROW(static_cast<void>(t.at({0, 0})), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({4, 2});
  t[5] = 9.0;
  t.reshape({2, 2, 2});
  EXPECT_DOUBLE_EQ(t[5], 9.0);
  EXPECT_THROW(t.reshape({3, 3}), Error);
}

TEST(Tensor, Argmax) {
  Tensor t({4});
  t[2] = 3.0;
  EXPECT_EQ(argmax(t), 2u);
}

// -------------------------------------------------------------- binarize --

TEST(Binarize, SignConventionZeroIsPlusOne) {
  Tensor t({3});
  t[0] = -0.5;
  t[1] = 0.0;
  t[2] = 2.0;
  const BitVec b = binarize(t);
  EXPECT_EQ(b.to_string(), "011");
}

TEST(Binarize, RoundTripToSignedTensor) {
  Rng rng(1);
  const BitVec b = BitVec::random(37, rng);
  const Tensor t = to_signed_tensor(b, {37});
  EXPECT_EQ(binarize(t), b);
}

TEST(Binarize, EquationOneOnSignedVectors) {
  Rng rng(2);
  const BitVec a = BitVec::random(200, rng);
  const BitVec b = BitVec::random(200, rng);
  const auto av = a.to_signed();
  const auto bv = b.to_signed();
  EXPECT_EQ(naive_signed_dot(av, bv), a.signed_dot(b));
}

// ---------------------------------------------------------------- layers --

TEST(DenseLayer, MatchesHandComputedAffine) {
  Tensor w({2, 3});
  // row 0: [1, 2, 3]; row 1: [-1, 0, 1]
  w[0] = 1;
  w[1] = 2;
  w[2] = 3;
  w[3] = -1;
  w[4] = 0;
  w[5] = 1;
  Tensor b({2});
  b[0] = 0.5;
  b[1] = -0.5;
  const DenseLayer layer("fc", std::move(w), std::move(b), Precision::Int8);
  Tensor x({3});
  x[0] = 1;
  x[1] = 1;
  x[2] = 2;
  const Tensor y = layer.forward(x);
  EXPECT_DOUBLE_EQ(y[0], 1 + 2 + 6 + 0.5);
  EXPECT_DOUBLE_EQ(y[1], -1 + 0 + 2 - 0.5);
}

TEST(BinaryDenseLayer, MatchesNaiveSignedDot) {
  Rng rng(3);
  const auto layer = BinaryDenseLayer::random("fc", 120, 17, rng);
  const BitVec xb = BitVec::random(120, rng);
  const Tensor x = to_signed_tensor(xb, {120});
  const Tensor y = layer.forward(x);
  ASSERT_EQ(y.size(), 17u);
  const auto xv = xb.to_signed();
  for (std::size_t o = 0; o < 17; ++o) {
    const auto wv = layer.weights().row(o).to_signed();
    EXPECT_DOUBLE_EQ(y[o], static_cast<double>(naive_signed_dot(wv, xv)));
  }
}

TEST(Conv2dLayer, KnownKernelOnKnownInput) {
  Conv2dGeom g;
  g.in_ch = 1;
  g.out_ch = 1;
  g.kernel = 2;
  g.stride = 1;
  g.pad = 0;
  g.in_h = 3;
  g.in_w = 3;
  Tensor w({1, 1, 2, 2});
  w[0] = 1;
  w[1] = 0;
  w[2] = 0;
  w[3] = -1;  // detects x[i][j] - x[i+1][j+1]
  const Conv2dLayer layer("conv", g, std::move(w), Tensor::zeros({1}),
                          Precision::Int8);
  Tensor x({1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) {
    x[i] = static_cast<double>(i);  // 0..8
  }
  const Tensor y = layer.forward(x);
  ASSERT_EQ(y.size(), 4u);
  // y[i][j] = x[i][j] - x[i+1][j+1] = -4 everywhere for this ramp.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(y[i], -4.0);
  }
}

TEST(Conv2dLayer, PaddingKeepsSpatialDims) {
  Conv2dGeom g;
  g.in_ch = 2;
  g.out_ch = 3;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  g.in_h = 8;
  g.in_w = 8;
  Rng rng(5);
  const auto layer = Conv2dLayer::random("conv", g, Precision::Int8, rng);
  const Tensor x = Tensor::random_uniform({2, 8, 8}, 1.0, rng);
  const Tensor y = layer.forward(x);
  EXPECT_EQ(y.dim(0), 3u);
  EXPECT_EQ(y.dim(1), 8u);
  EXPECT_EQ(y.dim(2), 8u);
}

TEST(BinaryConv2dLayer, MatchesNaiveSignedConvolution) {
  Conv2dGeom g;
  g.in_ch = 3;
  g.out_ch = 4;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  g.in_h = 6;
  g.in_w = 6;
  Rng rng(6);
  const auto layer = BinaryConv2dLayer::random("bconv", g, rng);
  // +/-1 input
  Tensor x({3, 6, 6});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.bernoulli() ? 1.0 : -1.0;
  }
  const Tensor y = layer.forward(x);
  // Naive direct convolution with pad -> -1 (matching the binarized-zero
  // convention of pack_im2col_rows).
  for (std::size_t oc = 0; oc < 4; ++oc) {
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 6; ++j) {
        double acc = 0.0;
        std::size_t idx = 0;
        for (std::size_t ic = 0; ic < 3; ++ic) {
          for (std::size_t kh = 0; kh < 3; ++kh) {
            for (std::size_t kw = 0; kw < 3; ++kw, ++idx) {
              const long long r = static_cast<long long>(i + kh) - 1;
              const long long c = static_cast<long long>(j + kw) - 1;
              const double xv =
                  (r < 0 || c < 0 || r >= 6 || c >= 6)
                      ? -1.0
                      : x.at({ic, static_cast<std::size_t>(r),
                              static_cast<std::size_t>(c)});
              const double wv = layer.kernels().get(oc, idx) ? 1.0 : -1.0;
              acc += xv * wv;
            }
          }
        }
        EXPECT_DOUBLE_EQ(y.at({oc, i, j}), acc) << oc << "," << i << "," << j;
      }
    }
  }
}

TEST(BatchNormLayer, AffineTransform) {
  const BatchNormLayer bn("bn", {2.0}, {1.0}, {3.0}, {4.0}, 0.0);
  Tensor x({1});
  x[0] = 5.0;
  const Tensor y = bn.forward(x);
  // 2*(5-3)/2 + 1 = 3
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(BatchNormLayer, FoldToThresholdsMatchesSignDecision) {
  Rng rng(7);
  std::vector<double> gamma, beta, mean, var;
  for (int c = 0; c < 32; ++c) {
    gamma.push_back(rng.uniform(0.1, 3.0));
    beta.push_back(rng.uniform(-2.0, 2.0));
    mean.push_back(rng.uniform(-5.0, 5.0));
    var.push_back(rng.uniform(0.1, 4.0));
  }
  const BatchNormLayer bn("bn", gamma, beta, mean, var);
  const auto fold = bn.fold_to_thresholds();
  EXPECT_FALSE(fold.any_flip());
  for (int trial = 0; trial < 200; ++trial) {
    Tensor x({32});
    for (std::size_t c = 0; c < 32; ++c) {
      x[c] = rng.uniform(-10.0, 10.0);
    }
    const Tensor z = bn.forward(x);
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_EQ(z[c] >= 0.0, x[c] >= fold.thr[c]) << "channel " << c;
    }
  }
}

TEST(BatchNormLayer, FoldFlipsComparisonForNegativeGamma) {
  Rng rng(11);
  std::vector<double> gamma, beta, mean, var;
  for (int c = 0; c < 16; ++c) {
    gamma.push_back(rng.uniform(-3.0, -0.1));
    beta.push_back(rng.uniform(-2.0, 2.0));
    mean.push_back(rng.uniform(-5.0, 5.0));
    var.push_back(rng.uniform(0.1, 4.0));
  }
  const BatchNormLayer bn("bn", gamma, beta, mean, var);
  const auto fold = bn.fold_to_thresholds();
  EXPECT_TRUE(fold.any_flip());
  for (int trial = 0; trial < 200; ++trial) {
    Tensor x({16});
    for (std::size_t c = 0; c < 16; ++c) {
      x[c] = rng.uniform(-10.0, 10.0);
    }
    const Tensor z = bn.forward(x);
    for (std::size_t c = 0; c < 16; ++c) {
      EXPECT_EQ(z[c] >= 0.0, x[c] <= fold.thr[c]) << "channel " << c;
    }
  }
}

TEST(BatchNormLayer, FoldZeroGammaIsConstant) {
  const BatchNormLayer bn("bn", {0.0, 0.0}, {0.5, -0.5}, {1.0, 1.0},
                          {1.0, 1.0});
  const auto fold = bn.fold_to_thresholds();
  EXPECT_FALSE(fold.any_flip());
  // Channel 0 (beta >= 0): always +1 -> threshold -inf. Channel 1: +inf.
  EXPECT_EQ(fold.thr[0], -std::numeric_limits<double>::infinity());
  EXPECT_EQ(fold.thr[1], std::numeric_limits<double>::infinity());
}

TEST(MaxPool2dLayer, PoolsMaxPerWindow) {
  MaxPool2dLayer pool("pool", 2);
  Tensor x({1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) {
    x[i] = static_cast<double>(i);
  }
  const Tensor y = pool.forward(x);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y.at({0, 0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(y.at({0, 1, 1}), 15.0);
}

TEST(SignLayer, MapsToPlusMinusOne) {
  SignLayer s("sign");
  Tensor x({3});
  x[0] = -2.0;
  x[1] = 0.0;
  x[2] = 0.1;
  const Tensor y = s.forward(x);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
}

// --------------------------------------------------------------- network --

TEST(Network, ForwardTraceRecordsLayerInputs) {
  Rng rng(8);
  Network net = build_mlp("tiny", {10, 8, 6, 4}, rng);
  Tensor x = Tensor::random_uniform({10}, 1.0, rng);
  std::vector<Tensor> inputs;
  const Tensor out = net.forward_trace(x, inputs);
  EXPECT_EQ(inputs.size(), net.layer_count());
  const Tensor direct = net.forward(x);
  ASSERT_EQ(out.size(), direct.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], direct[i]);
  }
}

// --------------------------------------------------------------- specs --

TEST(Spec, MlpSpecStructure) {
  const NetworkSpec s = mlp_s_spec();
  EXPECT_EQ(s.name, "MLP-S");
  const auto w = s.crossbar_workloads();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_FALSE(w[0].binary);  // first layer int8
  EXPECT_EQ(w[0].m, 784u);
  EXPECT_EQ(w[0].n, 500u);
  EXPECT_TRUE(w[1].binary);
  EXPECT_EQ(w[1].m, 500u);
  EXPECT_EQ(w[1].n, 250u);
  EXPECT_FALSE(w[2].binary);  // last layer int8
  EXPECT_EQ(w[2].n, 10u);
}

TEST(Spec, Cnn1GeometryMatchesPrime) {
  const NetworkSpec s = cnn1_spec();
  const auto w = s.crossbar_workloads();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].m, 25u);  // 5x5x1 kernel
  EXPECT_EQ(w[0].n, 5u);
  EXPECT_EQ(w[0].windows, 576u);  // 24x24 output positions
  EXPECT_EQ(w[1].m, 720u);        // 12x12x5 flattened
  EXPECT_EQ(w[1].n, 70u);
}

TEST(Spec, VggDTotalsAreVgg16Sized) {
  const NetworkSpec s = vgg_d_spec();
  const auto w = s.crossbar_workloads();
  EXPECT_EQ(w.size(), 16u);  // 13 convs + 3 fc
  // conv13 operates on 2x2 spatial with 512 channels.
  EXPECT_EQ(w[12].m, 9u * 512u);
  EXPECT_EQ(w[12].windows, 4u);
  // Binary parameter count dominated by the 4096x4096 fc.
  EXPECT_GT(s.binary_param_bits(), 16u * 1000u * 1000u);
  EXPECT_EQ(s.dataset, "CIFAR-10");
}

TEST(Spec, WorkloadBitOps) {
  XnorWorkload w;
  w.m = 10;
  w.n = 4;
  w.windows = 3;
  w.input_bits = 8;
  w.weight_bits = 8;
  EXPECT_EQ(w.bit_ops(), 10u * 4u * 3u * 64u);
}

TEST(Spec, MlbenchHasSixNetworks) {
  const auto all = mlbench_specs();
  EXPECT_EQ(all.size(), 6u);
}

// --------------------------------------------------------------- dataset --

TEST(Dataset, MnistDeterministicAndShaped) {
  SyntheticMnist data(42);
  const Sample a = data.sample(17);
  const Sample b = data.sample(17);
  EXPECT_EQ(a.label, 17u % 10u);
  EXPECT_EQ(a.image.size(), 784u);
  for (std::size_t i = 0; i < a.image.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.image[i], b.image[i]);
  }
}

TEST(Dataset, MnistClassesDiffer) {
  SyntheticMnist data(42);
  // Mean images of class 1 and class 8 should be far apart (1 has few lit
  // segments, 8 has all seven).
  double lit1 = 0.0;
  double lit8 = 0.0;
  for (std::size_t k = 0; k < 5; ++k) {
    const Sample s1 = data.sample(1 + 10 * k);
    const Sample s8 = data.sample(8 + 10 * k);
    for (std::size_t i = 0; i < 784; ++i) {
      lit1 += s1.image[i];
      lit8 += s8.image[i];
    }
  }
  EXPECT_GT(lit8, lit1 + 100.0);
}

TEST(Dataset, CifarShapedAndDeterministic) {
  SyntheticCifar data(7);
  const Sample a = data.sample(3);
  EXPECT_EQ(a.image.dim(0), 3u);
  EXPECT_EQ(a.image.dim(1), 32u);
  EXPECT_EQ(a.image.dim(2), 32u);
  const Sample b = data.sample(3);
  for (std::size_t i = 0; i < a.image.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.image[i], b.image[i]);
  }
}

TEST(Dataset, BatchIsConsecutiveSamples) {
  SyntheticMnist data(42);
  const auto batch = data.batch(100, 5);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(batch[i].label, (100 + i) % 10);
  }
}

// --------------------------------------------------------------- trainer --

TEST(Trainer, LearnsSyntheticMnistAboveChance) {
  TrainerConfig cfg;
  cfg.dims = {784, 64, 32, 10};
  cfg.epochs = 3;
  cfg.train_samples = 600;
  cfg.batch_size = 32;
  cfg.learning_rate = 0.02;
  MlpTrainer trainer(cfg);
  SyntheticMnist data(42);
  trainer.train(data);
  // Held-out accuracy far above the 10% chance level.
  const double acc = trainer.evaluate(data, 10000, 200);
  EXPECT_GT(acc, 0.5) << "BNN failed to learn the synthetic digits";
}

TEST(Trainer, ExportedNetworkMatchesInternalInference) {
  TrainerConfig cfg;
  cfg.dims = {784, 32, 16, 10};
  cfg.epochs = 1;
  cfg.train_samples = 200;
  MlpTrainer trainer(cfg);
  SyntheticMnist data(42);
  trainer.train(data);
  const Network net = trainer.export_network("exported");
  std::size_t agree = 0;
  const std::size_t kCount = 100;
  for (std::size_t i = 0; i < kCount; ++i) {
    const Sample s = data.sample(20000 + i);
    const std::size_t pred_net = net.predict(s.image);
    // Internal path accuracy proxy: compare predictions sample by sample.
    std::vector<double> x(s.image.data(), s.image.data() + s.image.size());
    // evaluate() does not expose predictions; recompute via the exported
    // network twice to at least pin determinism, and check agreement with
    // the internal path through accuracy equality below.
    if (pred_net == net.predict(s.image)) {
      ++agree;
    }
  }
  EXPECT_EQ(agree, kCount);
  // Accuracy parity between internal and exported paths.
  const double internal = trainer.evaluate(data, 20000, 200);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const Sample s = data.sample(20000 + i);
    if (net.predict(s.image) == s.label) {
      ++correct;
    }
  }
  EXPECT_NEAR(internal, static_cast<double>(correct) / 200.0, 1e-12);
}

}  // namespace
}  // namespace eb::bnn
