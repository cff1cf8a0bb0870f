// Tests for the EBM model format (bnn/format.hpp): CRC32, byte-identical
// round-trips across the whole model zoo, trained-model save/load forward
// equality, BatchNorm+Sign threshold folding (including negative-gamma
// comparison flips) and the decode-side rejection matrix (truncation,
// tampering, bad magic/version).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bnn/dataset.hpp"
#include "bnn/format.hpp"
#include "bnn/layers.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "bnn/spec.hpp"
#include "bnn/tensor.hpp"
#include "bnn/trainer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace eb::bnn {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

bool has_threshold_layer(const Network& net) {
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).spec().kind == LayerKind::Threshold) {
      return true;
    }
  }
  return false;
}

// Element-wise bit-exact comparison of two forward results.
void expect_tensors_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i], b[i]) << what << " element " << i;
  }
}

// Forward a few synthetic-MNIST images through both nets and require
// bit-identical outputs.
void expect_forward_equal(const Network& a, const Network& b,
                          std::size_t samples, const std::string& what) {
  const SyntheticMnist data;
  for (std::size_t i = 0; i < samples; ++i) {
    expect_tensors_equal(a.forward(data.sample(i).image),
                         b.forward(data.sample(i).image),
                         what + " sample " + std::to_string(i));
  }
}

// ----------------------------------------------------------------- crc32 --

TEST(Crc32, KnownVector) {
  // The classic CRC-32/IEEE check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(Crc32, EmptyAndIncremental) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  const std::uint8_t one = 0x00;
  EXPECT_NE(crc32(&one, 1), 0u);  // a zero byte still changes the CRC
}

// ------------------------------------------------------------ round trip --

// encode -> decode -> re-encode must reproduce the exact same bytes for
// every architecture in the zoo (weights, BN stats, geometry, names).
TEST(EbmRoundTrip, ZooNetworksByteIdentical) {
  RngStream rng(42);
  const std::vector<Network> zoo = [] {
    RngStream r(42);
    std::vector<Network> nets;
    nets.push_back(build_mlp_s(r));
    nets.push_back(build_mlp("MLP-M", {784, 1000, 500, 250, 10}, r));
    nets.push_back(build_mlp("MLP-L", {784, 1500, 1000, 500, 10}, r));
    nets.push_back(build_cnn1(r));
    nets.push_back(build_cnn2(r));
    nets.push_back(build_vgg_d(r));
    return nets;
  }();
  for (const Network& net : zoo) {
    const std::vector<std::uint8_t> bytes = encode_network(net);
    const Network decoded = decode_network(bytes.data(), bytes.size());
    EXPECT_EQ(decoded.name(), net.name());
    EXPECT_EQ(decoded.dataset(), net.dataset());
    ASSERT_EQ(decoded.layer_count(), net.layer_count()) << net.name();
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      EXPECT_EQ(decoded.layer(i).name(), net.layer(i).name()) << net.name();
      EXPECT_EQ(decoded.layer(i).spec().kind, net.layer(i).spec().kind)
          << net.name();
    }
    const std::vector<std::uint8_t> again = encode_network(decoded);
    EXPECT_EQ(again, bytes) << net.name() << " re-encode diverged";
  }
}

// Decoded networks must serve bit-identical predictions (MLP-S is cheap
// enough to forward; the big nets are covered byte-wise above).
TEST(EbmRoundTrip, DecodedForwardMatches) {
  RngStream rng(7);
  const Network net = build_mlp_s(rng);
  const std::vector<std::uint8_t> bytes = encode_network(net);
  const Network decoded = decode_network(bytes.data(), bytes.size());
  expect_forward_equal(net, decoded, 4, "mlp_s decode");
}

TEST(EbmRoundTrip, SaveLoadFileRoundTrip) {
  RngStream rng(3);
  const Network net = build_mlp("tiny", {16, 16, 8}, rng);
  const std::string path = temp_path("roundtrip.ebm");
  save_network(net, path);
  const Network loaded = load_network(path);
  EXPECT_EQ(encode_network(loaded), encode_network(net));
  std::remove(path.c_str());
}

TEST(EbmRoundTrip, LoadMissingFileThrows) {
  EXPECT_THROW(static_cast<void>(load_network(temp_path("nope.ebm"))), Error);
}

// A trained model (real BN statistics, int8 first layer) must survive the
// full export -> save -> load pipeline with bit-identical predictions.
TEST(EbmRoundTrip, TrainedMlpSaveLoadForwardEquality) {
  TrainerConfig tcfg;
  tcfg.dims = {784, 32, 32, 10};
  tcfg.epochs = 1;
  tcfg.train_samples = 200;
  MlpTrainer trainer(tcfg);
  const SyntheticMnist data;
  static_cast<void>(trainer.train(data));
  const Network net = trainer.export_network("trained");
  const std::string path = temp_path("trained.ebm");
  save_network(net, path);
  const Network loaded = load_network(path);
  expect_forward_equal(net, loaded, 8, "trained save/load");
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- folds --

// Folding a trained MLP replaces the integer-fed BN+Sign pair with a
// ThresholdLayer and stays bit-identical at pool widths 1 and 4.
TEST(Folding, TrainedMlpFoldedBitIdenticalAcrossPoolWidths) {
  TrainerConfig tcfg;
  tcfg.dims = {784, 32, 32, 10};
  tcfg.epochs = 1;
  tcfg.train_samples = 200;
  MlpTrainer trainer(tcfg);
  const SyntheticMnist data;
  static_cast<void>(trainer.train(data));
  const Network net = trainer.export_network("trained");
  const Network folded = fold_network(net);
  ASSERT_TRUE(has_threshold_layer(folded));
  EXPECT_LT(folded.layer_count(), net.layer_count());

  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < 16; ++i) {
    inputs.push_back(data.sample(i).image);
  }
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(width);
    const std::vector<Tensor> base = net.forward_batch(inputs, pool);
    const std::vector<Tensor> fold = folded.forward_batch(inputs, pool);
    ASSERT_EQ(base.size(), fold.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      expect_tensors_equal(base[i], fold[i],
                           "pool=" + std::to_string(width) + " sample " +
                               std::to_string(i));
    }
  }
}

TEST(Folding, ZooMlpFoldedBitIdentical) {
  RngStream rng(11);
  const Network net = build_mlp_s(rng);
  const Network folded = fold_network(net);
  ASSERT_TRUE(has_threshold_layer(folded));
  expect_forward_equal(net, folded, 4, "mlp_s fold");
  // Folding must survive serialization too.
  const std::vector<std::uint8_t> bytes = encode_network(folded);
  const Network decoded = decode_network(bytes.data(), bytes.size());
  EXPECT_TRUE(has_threshold_layer(decoded));
  expect_forward_equal(folded, decoded, 2, "folded round-trip");
}

// Hand-built BinaryDense -> BatchNorm -> Sign with mixed-sign gamma:
// negative channels must fold into flipped comparisons, bit-identically.
TEST(Folding, NegativeGammaFlipsComparisonDirection) {
  const std::size_t in = 64;
  const std::size_t out = 16;
  Rng rng(5);
  std::vector<double> gamma(out);
  std::vector<double> beta(out);
  std::vector<double> mean(out);
  std::vector<double> var(out);
  for (std::size_t c = 0; c < out; ++c) {
    gamma[c] = (c % 2 == 0 ? 1.0 : -1.0) * (0.3 + 0.1 * double(c));
    beta[c] = 0.05 * double(c) - 0.4;
    mean[c] = double(c) - 8.0;
    var[c] = 1.0 + 0.25 * double(c);
  }
  Network net("flip-net", "synthetic");
  net.add(SignLayer("sign0"));
  net.add(BinaryDenseLayer::random("bd", in, out, rng));
  net.add(BatchNormLayer("bn", gamma, beta, mean, var));
  net.add(SignLayer("sign1"));

  const Network folded = fold_network(net);
  ASSERT_EQ(folded.layer_count(), 3u);
  ASSERT_EQ(folded.layer(2).spec().kind, LayerKind::Threshold);

  Rng in_rng(99);
  for (std::size_t trial = 0; trial < 32; ++trial) {
    const Tensor x = Tensor::random_uniform({in}, 1.0, in_rng);
    expect_tensors_equal(net.forward(x), folded.forward(x),
                         "flip trial " + std::to_string(trial));
  }
}

// Rank-3 path: BinaryConv2d pre-activations fold through the per-channel
// BN the same way (apply_channel with rank 3).
TEST(Folding, BinaryConvFoldBitIdentical) {
  Conv2dGeom geom;
  geom.in_ch = 1;
  geom.out_ch = 4;
  geom.kernel = 3;
  geom.stride = 1;
  geom.pad = 1;
  geom.in_h = 8;
  geom.in_w = 8;
  Rng rng(21);
  std::vector<double> gamma = {0.7, -0.9, 1.3, -0.2};
  std::vector<double> beta = {0.1, -0.3, 0.0, 0.6};
  std::vector<double> mean = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> var = {1.5, 0.8, 2.0, 1.1};
  Network net("conv-fold", "synthetic");
  net.add(SignLayer("sign0"));
  net.add(BinaryConv2dLayer::random("bc", geom, rng));
  net.add(BatchNormLayer("bn", gamma, beta, mean, var));
  net.add(SignLayer("sign1"));

  const Network folded = fold_network(net);
  ASSERT_EQ(folded.layer_count(), 3u);
  ASSERT_EQ(folded.layer(2).spec().kind, LayerKind::Threshold);

  Rng in_rng(77);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const Tensor x = Tensor::random_uniform({1, 8, 8}, 1.0, in_rng);
    expect_tensors_equal(net.forward(x), folded.forward(x),
                         "conv trial " + std::to_string(trial));
  }
}

// A BN+Sign pair fed by a real-valued layer (the int8 first Dense of a
// trained MLP) must be left unfolded -- only integer pre-activations fold.
TEST(Folding, RealValuedBnSignStaysUnfolded) {
  RngStream rng(13);
  // Two-linear-layer MLP: fc1 (int8) -> bn1 -> sign1 -> fc2 -> ... ; bn1
  // sees real values, and with only one hidden layer there is no
  // integer-fed pair at all.
  const Network net = build_mlp("no-fold", {32, 32, 10}, rng);
  const Network folded = fold_network(net);
  EXPECT_EQ(folded.layer_count(), net.layer_count());
  EXPECT_FALSE(has_threshold_layer(folded));
  expect_forward_equal(net, folded, 0, "unused");
  Rng in_rng(1);
  const Tensor x = Tensor::random_uniform({32}, 1.0, in_rng);
  expect_tensors_equal(net.forward(x), folded.forward(x), "no-fold");
}

// ------------------------------------------------------ decode rejection --

// Every strict prefix of a valid encoding must be rejected (bounds checks
// fire before the CRC is even reachable).
TEST(EbmDecode, EveryPrefixTruncationThrows) {
  RngStream rng(2);
  const Network net = build_mlp("tiny", {8, 8, 4}, rng);
  const std::vector<std::uint8_t> bytes = encode_network(net);
  ASSERT_GT(bytes.size(), 16u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(static_cast<void>(decode_network(bytes.data(), len)), Error)
        << "prefix length " << len << " decoded";
  }
}

// Flipping any single byte must be caught -- the CRC trailer covers the
// whole payload, and tampering with the trailer itself mismatches too.
TEST(EbmDecode, EveryByteTamperThrows) {
  RngStream rng(2);
  const Network net = build_mlp("tiny", {8, 8, 4}, rng);
  std::vector<std::uint8_t> bytes = encode_network(net);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0xFF;
    EXPECT_THROW(
        static_cast<void>(decode_network(bytes.data(), bytes.size())), Error)
        << "tampered byte " << i << " decoded";
    bytes[i] ^= 0xFF;
  }
}

// Rewrites the CRC trailer of a tampered encoding, so the check that the
// tampering targets is what fires rather than the CRC.
std::vector<std::uint8_t> reseal(std::vector<std::uint8_t> b) {
  const std::uint32_t c = crc32(b.data(), b.size() - 4);
  b[b.size() - 4] = static_cast<std::uint8_t>(c & 0xFF);
  b[b.size() - 3] = static_cast<std::uint8_t>((c >> 8) & 0xFF);
  b[b.size() - 2] = static_cast<std::uint8_t>((c >> 16) & 0xFF);
  b[b.size() - 1] = static_cast<std::uint8_t>((c >> 24) & 0xFF);
  return b;
}

// Re-seal a tampered header with a recomputed CRC so the magic / version
// checks themselves are what fires.
TEST(EbmDecode, BadMagicAndVersionRejectedPastCrc) {
  RngStream rng(2);
  const Network net = build_mlp("tiny", {8, 8, 4}, rng);
  const std::vector<std::uint8_t> good = encode_network(net);

  {
    std::vector<std::uint8_t> bad = good;
    bad[0] ^= 0x01;  // magic
    bad = reseal(std::move(bad));
    EXPECT_THROW(static_cast<void>(decode_network(bad.data(), bad.size())),
                 Error);
  }
  {
    std::vector<std::uint8_t> bad = good;
    bad[4] = 0xFF;  // version (LE low byte)
    bad[5] = 0xFF;
    bad = reseal(std::move(bad));
    EXPECT_THROW(static_cast<void>(decode_network(bad.data(), bad.size())),
                 Error);
  }
  // Sanity: resealing without tampering still decodes.
  const std::vector<std::uint8_t> ok = reseal(good);
  EXPECT_NO_THROW(static_cast<void>(decode_network(ok.data(), ok.size())));
}

// A binary row 70 bits wide ends in 58 padding bits, which decode must
// find zero: a set one would not survive a re-encode. Each network's only
// section is one binary layer, so its last row's last word sits just
// before the CRC trailer; bit 63 of that word is padding.
TEST(EbmDecode, NonzeroPaddingBitsRejectedPastCrc) {
  RngStream rng(3);
  Network dense("pad-dense", "synthetic");
  dense.add(BinaryDenseLayer::random("fc", 70, 3, rng));
  Conv2dGeom g;
  g.in_ch = 70;  // 1x1 kernels: 70 bits per kernel row
  g.out_ch = 2;
  g.kernel = 1;
  g.stride = 1;
  g.pad = 0;
  g.in_h = 2;
  g.in_w = 2;
  Network conv("pad-conv", "synthetic");
  conv.add(BinaryConv2dLayer::random("conv", g, rng));
  for (const Network* net : {&dense, &conv}) {
    const std::vector<std::uint8_t> good = encode_network(*net);
    const std::vector<std::uint8_t> ok = reseal(good);
    EXPECT_NO_THROW(static_cast<void>(decode_network(ok.data(), ok.size())))
        << net->name();
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() - 5] |= 0x80;
    bad = reseal(std::move(bad));
    try {
      static_cast<void>(decode_network(bad.data(), bad.size()));
      ADD_FAILURE() << net->name() << ": a set padding bit decoded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("ebm: nonzero padding bits"),
                std::string::npos)
          << net->name() << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace eb::bnn
