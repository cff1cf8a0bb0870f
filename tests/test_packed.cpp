// Tests for the batched bit-parallel inference engine: PackedMatrix and
// its fused XNOR+Popcount GEMM kernels, the thread pool they shard over,
// and the equivalence guarantees of the batched path (Layer::forward_batch,
// Network::forward_batch, BatchRunner) against the per-sample scalar
// reference -- bit-identical outputs, not approximately equal.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>

#include "bnn/batch_runner.hpp"
#include "bnn/binarize.hpp"
#include "bnn/dataset.hpp"
#include "bnn/format.hpp"
#include "bnn/layers.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "bnn/packed.hpp"
#include "bnn/real_gemm.hpp"
#include "bnn/trainer.hpp"
#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "eval/experiments.hpp"

namespace eb::bnn {
namespace {

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPool, InlinePoolRunsEverythingOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      ++hits[i];
    }
  });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, CoversRangeExactlyOnceAcrossThreads) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyAndSingleChunkRanges) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(0, 4, 8, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 4u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 64, 1,
                        [&](std::size_t b, std::size_t) {
                          if (b == 13) {
                            throw Error("boom");
                          }
                        }),
      Error);
  // Pool stays usable afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, 100, 9, [&](std::size_t b, std::size_t e) {
      std::size_t local = 0;
      for (std::size_t i = b; i < e; ++i) {
        local += i;
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

// ---------------------------------------------------------- PackedMatrix --

TEST(PackedMatrix, RoundTripsBitMatrix) {
  Rng rng(1);
  const BitMatrix m = BitMatrix::random(9, 130, rng);
  const PackedMatrix p = PackedMatrix::from_bit_matrix(m);
  EXPECT_EQ(p.rows(), 9u);
  EXPECT_EQ(p.cols(), 130u);
  EXPECT_EQ(p.words_per_row(), 3u);
  EXPECT_EQ(p.pad_bits(), 3u * 64u - 130u);
  for (std::size_t r = 0; r < 9; ++r) {
    EXPECT_EQ(p.row_bitvec(r), m.row(r)) << "row " << r;
    for (std::size_t c = 0; c < 130; ++c) {
      EXPECT_EQ(p.get(r, c), m.get(r, c));
    }
  }
}

TEST(PackedMatrix, SetAndGetSingleBits) {
  PackedMatrix p(3, 70);
  p.set(2, 69, true);
  p.set(0, 0, true);
  EXPECT_TRUE(p.get(2, 69));
  EXPECT_TRUE(p.get(0, 0));
  EXPECT_FALSE(p.get(1, 69));
  p.set(2, 69, false);
  EXPECT_FALSE(p.get(2, 69));
  EXPECT_THROW(p.set(3, 0, true), Error);
  EXPECT_THROW(static_cast<void>(p.get(0, 70)), Error);
}

TEST(PackedMatrix, SetRowSignsMatchesBinarize) {
  Rng rng(2);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    Tensor t({n});
    for (std::size_t i = 0; i < n; ++i) {
      t[i] = rng.gaussian();
    }
    t[0] = -0.0;  // binarize convention: -0.0 >= 0 is true -> bit set
    PackedMatrix p(1, n);
    p.set_row_signs(0, t.data(), n);
    EXPECT_EQ(p.row_bitvec(0), binarize(t)) << "n=" << n;
  }
}

TEST(PackedMatrix, SetRowThresholdedMatchesReference) {
  Rng rng(3);
  const std::size_t n = 97;
  Tensor t({n});
  std::vector<double> thr(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = rng.gaussian();
    thr[i] = rng.gaussian(0.0, 0.5);
  }
  PackedMatrix p(1, n);
  p.set_row_thresholded(0, t.data(), thr.data(), n);
  EXPECT_EQ(p.row_bitvec(0), binarize_thresholded(t, thr));
}

TEST(PackedMatrix, PaddingStaysZeroAfterRowWrites) {
  Rng rng(4);
  PackedMatrix p(2, 70);
  p.set_row(0, BitVec::random(70, rng).complemented().complemented());
  Tensor ones = Tensor::full({70}, 1.0);
  p.set_row_signs(1, ones.data(), 70);
  for (std::size_t r = 0; r < 2; ++r) {
    const std::uint64_t tail = p.row_words(r)[1];
    EXPECT_EQ(tail >> (70 - 64), 0u) << "padding bits set in row " << r;
  }
}

// ----------------------------------------------------------- GEMM kernels --

TEST(PackedGemm, MatchesBitVecKernelsAcrossShapes) {
  Rng rng(5);
  // Exercises the blocked kernel's edge cases: row counts around the
  // 4-wide block, word counts around the 4- and 8-word vector widths,
  // and non-multiple-of-64 tails.
  const std::size_t col_cases[] = {1, 63, 64, 65, 127, 256, 257, 640, 1000};
  const std::size_t row_cases[] = {1, 2, 3, 4, 5, 7, 8, 17};
  for (const std::size_t cols : col_cases) {
    for (const std::size_t wn : row_cases) {
      const BitMatrix w = BitMatrix::random(wn, cols, rng);
      const std::size_t xn = 3;
      std::vector<BitVec> xs;
      for (std::size_t i = 0; i < xn; ++i) {
        xs.push_back(BitVec::random(cols, rng));
      }
      const PackedMatrix pw = PackedMatrix::from_bit_matrix(w);
      const PackedMatrix px = PackedMatrix::from_rows(xs);
      std::vector<std::uint32_t> pc(xn * wn);
      xnor_popcount_gemm(px, pw, pc.data());
      std::vector<std::int32_t> sd(xn * wn);
      xnor_signed_gemm(px, pw, sd.data());
      for (std::size_t i = 0; i < xn; ++i) {
        for (std::size_t j = 0; j < wn; ++j) {
          const std::size_t want = xs[i].xnor_popcount(w.row(j));
          EXPECT_EQ(pc[i * wn + j], want)
              << "cols=" << cols << " wn=" << wn << " i=" << i << " j=" << j;
          EXPECT_EQ(sd[i * wn + j], xs[i].signed_dot(w.row(j)))
              << "cols=" << cols << " wn=" << wn << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(PackedGemm, ThreadedMatchesSerial) {
  Rng rng(6);
  const BitMatrix w = BitMatrix::random(33, 300, rng);
  std::vector<BitVec> xs;
  for (std::size_t i = 0; i < 21; ++i) {
    xs.push_back(BitVec::random(300, rng));
  }
  const PackedMatrix pw = PackedMatrix::from_bit_matrix(w);
  const PackedMatrix px = PackedMatrix::from_rows(xs);
  std::vector<std::uint32_t> serial(21 * 33);
  xnor_popcount_gemm(px, pw, serial.data());
  ThreadPool pool(4);
  std::vector<std::uint32_t> threaded(21 * 33);
  xnor_popcount_gemm(px, pw, threaded.data(), &pool);
  EXPECT_EQ(serial, threaded);
}

TEST(PackedGemm, RowSweepMatchesBitMatrixAll) {
  Rng rng(7);
  const BitMatrix w = BitMatrix::random(29, 777, rng);
  const BitVec x = BitVec::random(777, rng);
  const PackedMatrix pw = PackedMatrix::from_bit_matrix(w);
  EXPECT_EQ(xnor_popcount_rows(pw, x), w.xnor_popcount_all(x));
}

TEST(PackedGemm, WidthMismatchThrows) {
  const PackedMatrix a(2, 64);
  const PackedMatrix b(2, 65);
  std::vector<std::uint32_t> out(4);
  EXPECT_THROW(xnor_popcount_gemm(a, b, out.data()), Error);
}

// --------------------------------------------------------- real GEMM --

std::vector<double> uniform_values(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (auto& e : v) {
    e = rng.uniform(-1.0, 1.0);
  }
  return v;
}

// The independent reference: the naive loop over the row-major weights,
// bias first (0.0 without one), then k ascending. The volatile product is
// rounded on its own, so the reference cannot fuse into an FMA whatever
// the compiler's contraction setting.
std::vector<double> naive_gemm(std::size_t m, std::size_t n, std::size_t k,
                               const std::vector<double>& x,
                               const std::vector<double>& w,
                               const double* bias) {
  std::vector<double> out(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = bias != nullptr ? bias[j] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const volatile double p = x[i * k + kk] * w[j * k + kk];
        acc += p;
      }
      out[i * n + j] = acc;
    }
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<const RealGemmKernel*> supported_real_kernels() {
  std::vector<const RealGemmKernel*> out;
  for (const auto& kernel : real_gemm_kernels()) {
    if (kernel.supported) {
      out.push_back(&kernel);
    }
  }
  return out;
}

TEST(RealGemm, PortableIsAlwaysACandidate) {
  const auto& kernels = real_gemm_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().name, "portable");
  EXPECT_TRUE(kernels.back().supported);
}

TEST(RealGemm, EveryCandidateMatchesTheNaiveRowMajorLoop) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ThreadPool* const pools[] = {nullptr, &pool1, &pool4};
  Rng rng(21);
  // n: ragged panels of 1, 5, 10 and 15 columns (at most 8 or more than
  // 8: one or both halves masked), one full panel, full + 1-wide ragged,
  // and MLP-L's fc1. m: remainder rows of every block height, two
  // 64-row tiles. k: 1 up to fc1's 784.
  for (const std::size_t n : {1u, 5u, 10u, 15u, 16u, 17u, 1500u}) {
    for (const std::size_t k : {1u, 25u, 229u, 784u}) {
      const std::vector<double> w = uniform_values(n * k, rng);
      const std::vector<double> bias = uniform_values(n, rng);
      const PanelMatrix panels(n, k, w);
      ASSERT_TRUE(same_bits(panels.unpack(), w)) << n << "x" << k;
      for (const std::size_t m : {1u, 3u, 4u, 5u, 64u, 65u}) {
        if (n == 1500 && m > 5) {
          continue;  // the n <= 17 shapes cover multi-tile row chunks
        }
        const std::vector<double> x = uniform_values(m * k, rng);
        for (const bool with_bias : {true, false}) {
          const double* b = with_bias ? bias.data() : nullptr;
          const std::vector<double> want = naive_gemm(m, n, k, x, w, b);
          for (const RealGemmKernel* kernel : supported_real_kernels()) {
            for (ThreadPool* pool : pools) {
              std::vector<double> got(m * n, -1.0);
              real_gemm_bias(*kernel, m, x.data(), panels, b, got.data(),
                             pool);
              EXPECT_TRUE(same_bits(got, want))
                  << kernel->name << " m=" << m << " n=" << n << " k=" << k
                  << " bias=" << with_bias << " pool="
                  << (pool != nullptr ? pool->size() : 0);
            }
          }
        }
      }
    }
  }
}

TEST(RealGemm, NoFusedMultiplyAdd) {
  // x*w = 1 - 2^-60 rounds to 1.0, so bias + x*w is exactly 0.0 when the
  // multiply and the add round separately; a fused multiply-add rounds
  // once and yields -2^-60.
  const double x = 1.0 + std::ldexp(1.0, -30);
  const double w = 1.0 - std::ldexp(1.0, -30);
  for (const std::size_t n : {5u, 16u, 17u, 26u}) {
    const std::size_t m = 9;  // full row blocks plus a remainder
    const PanelMatrix panels(n, 1, std::vector<double>(n, w));
    const std::vector<double> xs(m, x);
    const std::vector<double> bias(n, -1.0);
    for (const RealGemmKernel* kernel : supported_real_kernels()) {
      std::vector<double> got(m * n, -1.0);
      real_gemm_bias(*kernel, m, xs.data(), panels, bias.data(), got.data());
      for (const double v : got) {
        ASSERT_EQ(v, 0.0) << kernel->name << " n=" << n
                          << ": multiply and add were fused";
      }
    }
  }
}

TEST(RealGemm, RaggedLayersKeepTheirWeightsAndEbmBytes) {
  Rng rng(22);
  // 7 -> 17: one full panel and a 1-wide ragged one; 17 -> 5: one 5-wide
  // ragged panel.
  const Tensor w1 = Tensor::random_uniform({17, 7}, 0.5, rng);
  const Tensor b1 = Tensor::random_uniform({17}, 0.5, rng);
  const Tensor w2 = Tensor::random_uniform({5, 17}, 0.5, rng);
  const Tensor b2 = Tensor::random_uniform({5}, 0.5, rng);
  Conv2dGeom g;  // 10 output channels: one ragged panel of patch 27
  g.in_ch = 3;
  g.out_ch = 10;
  g.kernel = 3;
  g.pad = 1;
  g.in_h = 6;
  g.in_w = 6;
  const Tensor wc = Tensor::random_uniform({10, 3, 3, 3}, 0.5, rng);
  const Tensor bc = Tensor::random_uniform({10}, 0.5, rng);

  const auto same_tensor = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  const DenseLayer fc1("fc1", w1, b1, Precision::Int8);
  const DenseLayer fc2("fc2", w2, b2, Precision::Int8);
  const Conv2dLayer conv("conv", g, wc, bc, Precision::Int8);
  EXPECT_TRUE(same_tensor(fc1.weights(), w1));
  EXPECT_TRUE(same_tensor(fc2.weights(), w2));
  EXPECT_TRUE(same_tensor(conv.weights(), wc));

  // forward() (a direct loop reading the panels) and forward_batch() (the
  // panel GEMM) against the naive loop over the constructor's row-major
  // weights.
  ThreadPool pool(2);
  const auto values = [](const Tensor& t) {
    return std::vector<double>(t.data(), t.data() + t.size());
  };
  for (const DenseLayer* fc : {&fc1, &fc2}) {
    const Tensor wt = fc->weights();
    const std::size_t in = wt.dim(1);
    const std::vector<double> x = uniform_values(in, rng);
    const std::vector<double> want =
        naive_gemm(1, wt.dim(0), in, x, values(wt), fc->bias().data());
    const Tensor xt({in}, x);
    EXPECT_TRUE(same_bits(values(fc->forward(xt)), want)) << fc->name();
    EXPECT_TRUE(same_bits(values(fc->forward_batch({&xt, 1}, pool)[0]), want))
        << fc->name();
  }

  Network conv_net("ragged-conv", "test");
  conv_net.add(conv);
  Network dense_net("ragged-dense", "test");
  dense_net.add(fc1);
  dense_net.add(fc2);
  for (const Network* net : {&conv_net, &dense_net}) {
    const std::vector<std::uint8_t> bytes = encode_network(*net);
    const Network loaded = decode_network(bytes.data(), bytes.size());
    EXPECT_EQ(encode_network(loaded), bytes) << net->name();
  }
}

// ------------------------------------------------------- layer equivalence --

TEST(BatchEquivalence, EmptyBatchYieldsEmptyResult) {
  // The panel-GEMM overrides must keep the base-class behavior for an
  // empty batch: return an empty vector, not throw.
  Rng rng(20);
  const auto dense =
      DenseLayer::random("fc", 8, 4, Precision::Int8, rng);
  Conv2dGeom g;
  g.in_ch = 1;
  g.out_ch = 2;
  g.kernel = 3;
  g.in_h = 5;
  g.in_w = 5;
  const auto conv = Conv2dLayer::random("conv", g, Precision::Int8, rng);
  ThreadPool pool(2);
  const std::vector<Tensor> none;
  EXPECT_TRUE(dense.forward_batch(none, pool).empty());
  EXPECT_TRUE(conv.forward_batch(none, pool).empty());
}

// Sign and Threshold batch overrides build each output once, several
// samples per pool task: every output keeps forward()'s exact bytes, for
// [F] and [C,H,W] inputs, inline and on a 4-wide pool. Integer-valued
// inputs land exactly on thresholds and on -0.0 / +0.0.
TEST(BatchEquivalence, EpilogueOverridesMatchForwardByteForByte) {
  constexpr std::size_t kCh = 6;
  std::vector<long long> thr;
  std::vector<std::uint8_t> flip;
  for (std::size_t c = 0; c < kCh; ++c) {
    thr.push_back(static_cast<long long>(c) - 3);
    flip.push_back(static_cast<std::uint8_t>(c % 2));
  }
  const ThresholdLayer threshold("thr", thr, flip);
  const SignLayer sign("sign", kCh);
  Rng rng(24);
  for (const auto& shape : {std::vector<std::size_t>{kCh},
                            std::vector<std::size_t>{kCh, 3, 4}}) {
    std::vector<Tensor> xs;
    for (std::size_t s = 0; s < 19; ++s) {  // 8 + 8 + 3: a ragged chunk
      Tensor x(shape);
      for (std::size_t i = 0; i < x.size(); ++i) {
        const double v = std::round(rng.uniform(-6.0, 6.0));
        x[i] = v == 0.0 && rng.bernoulli() ? -0.0 : v;
      }
      xs.push_back(std::move(x));
    }
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool pool(width);
      for (const Layer* layer : {static_cast<const Layer*>(&threshold),
                                 static_cast<const Layer*>(&sign)}) {
        const auto batched = layer->forward_batch(xs, pool);
        ASSERT_EQ(batched.size(), xs.size());
        for (std::size_t s = 0; s < xs.size(); ++s) {
          const Tensor ref = layer->forward(xs[s]);
          ASSERT_EQ(batched[s].shape(), ref.shape()) << layer->name();
          EXPECT_EQ(std::memcmp(batched[s].data(), ref.data(),
                                ref.size() * sizeof(double)),
                    0)
              << layer->name() << " rank " << shape.size() << " sample " << s
              << " pool " << width;
        }
      }
    }
  }
}

TEST(BatchEquivalence, BinaryDenseForwardBatchIsBitIdentical) {
  Rng rng(8);
  for (const auto& [in, out] : {std::pair<std::size_t, std::size_t>{65, 9},
                                {128, 31},
                                {500, 250}}) {
    const auto layer = BinaryDenseLayer::random("fc", in, out, rng);
    std::vector<Tensor> xs;
    for (std::size_t i = 0; i < 11; ++i) {
      xs.push_back(to_signed_tensor(BitVec::random(in, rng), {in}));
    }
    ThreadPool pool(3);
    const auto batched = layer.forward_batch(xs, pool);
    ASSERT_EQ(batched.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const Tensor ref = layer.forward(xs[i]);
      ASSERT_EQ(batched[i].size(), ref.size());
      for (std::size_t o = 0; o < ref.size(); ++o) {
        EXPECT_EQ(batched[i][o], ref[o]) << "sample " << i << " out " << o;
      }
    }
  }
}

TEST(BatchEquivalence, BinaryConv2dForwardBatchIsBitIdentical) {
  Conv2dGeom g;
  g.in_ch = 3;
  g.out_ch = 5;  // odd channel count exercises the block remainder
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  g.in_h = 7;
  g.in_w = 7;
  Rng rng(9);
  const auto layer = BinaryConv2dLayer::random("bconv", g, rng);
  std::vector<Tensor> xs;
  for (std::size_t s = 0; s < 6; ++s) {
    Tensor x({3, 7, 7});
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.bernoulli() ? 1.0 : -1.0;
    }
    xs.push_back(std::move(x));
  }
  ThreadPool pool(2);
  const auto batched = layer.forward_batch(xs, pool);
  for (std::size_t s = 0; s < xs.size(); ++s) {
    const Tensor ref = layer.forward(xs[s]);
    ASSERT_EQ(batched[s].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(batched[s][i], ref[i]) << "sample " << s << " elem " << i;
    }
  }
}

TEST(BatchEquivalence, NetworkForwardBatchMatchesScalarOnModelZoo) {
  Rng rng(10);
  const Network mlp = build_mlp_s(rng);
  SyntheticMnist data(77);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < 9; ++i) {
    inputs.push_back(data.sample(i).image);
  }
  ThreadPool pool(4);
  const auto batched = mlp.forward_batch(inputs, pool);
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tensor ref = mlp.forward(inputs[i]);
    ASSERT_EQ(batched[i].size(), ref.size());
    for (std::size_t o = 0; o < ref.size(); ++o) {
      EXPECT_EQ(batched[i][o], ref[o])
          << "MLP-S sample " << i << " out " << o;
    }
  }
}

TEST(BatchEquivalence, CnnForwardBatchMatchesScalar) {
  Rng rng(11);
  const Network cnn = build_cnn1(rng);
  SyntheticMnist data(78);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < 3; ++i) {
    Tensor img = data.sample(i).image;
    img.reshape({1, 28, 28});
    inputs.push_back(std::move(img));
  }
  ThreadPool pool(2);
  const auto batched = cnn.forward_batch(inputs, pool);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tensor ref = cnn.forward(inputs[i]);
    ASSERT_EQ(batched[i].size(), ref.size());
    for (std::size_t o = 0; o < ref.size(); ++o) {
      EXPECT_EQ(batched[i][o], ref[o])
          << "CNN-1 sample " << i << " out " << o;
    }
  }
}

TEST(BatchEquivalence, PredictBatchAndPoolLessOverloadMatchScalar) {
  Rng rng(12);
  const Network mlp = build_mlp("tiny", {20, 12, 8, 4}, rng);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < 5; ++i) {
    inputs.push_back(Tensor::random_uniform({20}, 1.0, rng));
  }
  ThreadPool pool(2);
  const auto preds = mlp.predict_batch(inputs, pool);
  const auto outs = mlp.forward_batch(inputs);  // pool-less convenience
  ASSERT_EQ(preds.size(), inputs.size());
  ASSERT_EQ(outs.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(preds[i], mlp.predict(inputs[i])) << "sample " << i;
    const Tensor ref = mlp.forward(inputs[i]);
    for (std::size_t o = 0; o < ref.size(); ++o) {
      EXPECT_EQ(outs[i][o], ref[o]) << "sample " << i;
    }
  }
}

// ------------------------------------------------------------ BatchRunner --

TEST(BatchRunner, PredictionsMatchScalarOnTrainedNetwork) {
  TrainerConfig cfg;
  cfg.dims = {784, 48, 32, 10};
  cfg.epochs = 1;
  cfg.train_samples = 200;
  MlpTrainer trainer(cfg);
  SyntheticMnist data(42);
  trainer.train(data);
  const Network net = trainer.export_network("batch-check");

  const auto samples = data.batch(40000, 100);
  std::vector<Tensor> inputs;
  for (const auto& s : samples) {
    inputs.push_back(s.image);
  }
  // Odd batch size + sample count not divisible by it + threads.
  BatchRunnerConfig bcfg;
  bcfg.batch_size = 17;
  bcfg.threads = 4;
  const BatchRunner runner(net, bcfg);
  const auto batched = runner.predict_all(inputs);
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(batched[i], net.predict(inputs[i])) << "sample " << i;
  }
  EXPECT_EQ(runner.last_stats().samples, 100u);
  EXPECT_EQ(runner.last_stats().batches, 6u);  // ceil(100 / 17)
  EXPECT_GT(runner.last_stats().wall_ns, 0.0);
}

TEST(BatchRunner, AccuracyEqualsScalarAccuracy) {
  TrainerConfig cfg;
  cfg.dims = {784, 32, 16, 10};
  cfg.epochs = 1;
  cfg.train_samples = 200;
  MlpTrainer trainer(cfg);
  SyntheticMnist data(42);
  trainer.train(data);
  const Network net = trainer.export_network("acc-check");

  const auto samples = data.batch(50000, 150);
  std::size_t correct = 0;
  for (const auto& s : samples) {
    if (net.predict(s.image) == s.label) {
      ++correct;
    }
  }
  const double scalar_acc =
      static_cast<double>(correct) / static_cast<double>(samples.size());
  const BatchRunner runner(net);
  EXPECT_DOUBLE_EQ(runner.accuracy(samples), scalar_acc);
}

TEST(BatchRunner, AccuracySweepDriverReportsIdenticalPredictions) {
  eval::AccuracySweepConfig cfg;
  cfg.dims = {784, 32, 16, 10};
  cfg.epochs = 1;
  cfg.train_samples = 150;
  cfg.eval_samples = 96;
  cfg.batch_size = 32;
  const auto r = eval::run_accuracy_sweep(cfg);
  EXPECT_EQ(r.samples, 96u);
  EXPECT_TRUE(r.predictions_identical);
  EXPECT_DOUBLE_EQ(r.scalar_accuracy, r.batched_accuracy);
  EXPECT_GT(r.scalar_ns, 0.0);
  EXPECT_GT(r.batched_ns, 0.0);
  const Table t = eval::accuracy_sweep_table(r);
  EXPECT_EQ(t.rows(), 2u);
}

}  // namespace
}  // namespace eb::bnn
