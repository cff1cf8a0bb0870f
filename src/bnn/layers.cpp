#include "bnn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "bnn/binarize.hpp"
#include "bnn/packed.hpp"
#include "bnn/real_gemm.hpp"
#include "common/error.hpp"

namespace eb::bnn {

namespace {

// Samples per pool task for the element-wise epilogue layers: their
// per-sample work is a few hundred compares, so one sample per task
// would be mostly task overhead.
constexpr std::size_t kEpilogueGrain = 8;

}  // namespace

std::vector<Tensor> Layer::forward_batch(std::span<const Tensor> xs,
                                         ThreadPool& pool) const {
  std::vector<Tensor> out(xs.size());
  pool.parallel_for(0, xs.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = forward(xs[i]);
    }
  });
  return out;
}

// ---------------------------------------------------------------- Dense --

// The weight Tensor's buffer becomes the panels: packed in place, no copy.
DenseLayer::DenseLayer(std::string name, Tensor weights, Tensor bias,
                       Precision precision)
    : name_(std::move(name)), bias_(std::move(bias)), precision_(precision) {
  EB_REQUIRE(weights.rank() == 2, "dense weights must be [out, in]");
  EB_REQUIRE(bias_.size() == weights.dim(0),
             "bias length must match output count");
  const std::size_t out = weights.dim(0);
  const std::size_t in = weights.dim(1);
  weights_ = PanelMatrix(out, in, std::move(weights).release());
}

DenseLayer DenseLayer::random(std::string name, std::size_t in,
                              std::size_t out, Precision precision, Rng& rng) {
  const double scale = 1.0 / std::sqrt(static_cast<double>(in));
  return DenseLayer(std::move(name), Tensor::random_uniform({out, in}, scale, rng),
                    Tensor::zeros({out}), precision);
}

Tensor DenseLayer::weights() const {
  return Tensor({weights_.rows(), weights_.cols()}, weights_.unpack());
}

Tensor DenseLayer::forward(const Tensor& x) const {
  EB_REQUIRE(x.size() == weights_.cols(),
             "dense input size mismatch in " + name_);
  // Direct loop, not the panel GEMM: the per-sample path stays an
  // independent reference for forward_batch.
  const std::size_t out = weights_.rows();
  const std::size_t in = weights_.cols();
  Tensor y({out});
  for (std::size_t o = 0; o < out; ++o) {
    double acc = bias_[o];
    for (std::size_t i = 0; i < in; ++i) {
      acc += weights_.at(o, i) * x[i];
    }
    y[o] = acc;
  }
  return y;
}

std::vector<Tensor> DenseLayer::forward_batch(std::span<const Tensor> xs,
                                              ThreadPool& pool) const {
  const std::size_t out_n = weights_.rows();
  const std::size_t in = weights_.cols();
  std::vector<double> x(xs.size() * in);
  pool.parallel_for(0, xs.size(), 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      EB_REQUIRE(xs[i].size() == in,
                 "dense input size mismatch in " + name_);
      std::memcpy(x.data() + i * in, xs[i].data(), in * sizeof(double));
    }
  });
  std::vector<double> y(xs.size() * out_n);
  real_gemm_bias(xs.size(), x.data(), weights_, bias_.data(), y.data(),
                 &pool);
  std::vector<Tensor> out(xs.size(), Tensor({out_n}));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::memcpy(out[i].data(), y.data() + i * out_n,
                out_n * sizeof(double));
  }
  return out;
}

LayerSpec DenseLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::Dense;
  s.precision = precision_;
  s.name = name_;
  s.in_features = weights_.cols();
  s.out_features = weights_.rows();
  return s;
}

// ---------------------------------------------------------- BinaryDense --

BinaryDenseLayer::BinaryDenseLayer(std::string name, BitMatrix weights)
    : name_(std::move(name)), weights_(std::move(weights)) {}

BinaryDenseLayer BinaryDenseLayer::random(std::string name, std::size_t in,
                                          std::size_t out, Rng& rng) {
  return BinaryDenseLayer(std::move(name), BitMatrix::random(out, in, rng));
}

Tensor BinaryDenseLayer::forward(const Tensor& x) const {
  const std::size_t in = weights_.cols();
  EB_REQUIRE(x.size() == in, "binary dense input size mismatch in " + name_);
  BitMatrix xb(1, in);
  xb.set_row_signs(0, x.data(), in);
  Tensor out({weights_.rows()});
  xnor_signed_gemm_visit(
      xb, weights_,
      [&out](std::size_t, const std::int32_t* vals, std::size_t n) {
        for (std::size_t o = 0; o < n; ++o) {
          out[o] = static_cast<double>(vals[o]);
        }
      });
  return out;
}

std::vector<Tensor> BinaryDenseLayer::forward_batch(
    std::span<const Tensor> xs, ThreadPool& pool) const {
  const std::size_t in = weights_.cols();
  const std::size_t out_n = weights_.rows();
  BitMatrix x(xs.size(), in);
  pool.parallel_for(0, xs.size(), 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      EB_REQUIRE(xs[i].size() == in,
                 "binary dense input size mismatch in " + name_);
      x.set_row_signs(i, xs[i].data(), in);
    }
  });
  std::vector<Tensor> out(xs.size(), Tensor({out_n}));
  xnor_signed_gemm_visit(
      x, weights_,
      [&out](std::size_t i, const std::int32_t* vals, std::size_t n) {
        double* dst = out[i].data();
        for (std::size_t o = 0; o < n; ++o) {
          dst[o] = static_cast<double>(vals[o]);
        }
      },
      &pool);
  return out;
}

LayerSpec BinaryDenseLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::Dense;
  s.precision = Precision::Binary;
  s.name = name_;
  s.in_features = weights_.cols();
  s.out_features = weights_.rows();
  return s;
}

// --------------------------------------------------------------- Conv2d --

namespace {

// Input-plane coordinate hit by output index `out` and kernel offset `k`
// under `stride`/`pad`, or -1 when the tap lands in the zero padding.
// Single source of truth for every im2col / convolution loop below.
inline long long conv_in_coord(std::size_t out, std::size_t stride,
                               std::size_t k, std::size_t pad,
                               std::size_t limit) {
  const long long v = static_cast<long long>(out * stride + k) -
                      static_cast<long long>(pad);
  return (v >= 0 && v < static_cast<long long>(limit)) ? v : -1;
}

}  // namespace

Conv2dLayer::Conv2dLayer(std::string name, Conv2dGeom geom, Tensor weights,
                         Tensor bias, Precision precision)
    : name_(std::move(name)), geom_(geom), bias_(std::move(bias)),
      precision_(precision) {
  EB_REQUIRE(weights.rank() == 4, "conv weights must be [oc, ic, k, k]");
  EB_REQUIRE(weights.dim(0) == geom_.out_ch &&
                 weights.dim(1) == geom_.in_ch &&
                 weights.dim(2) == geom_.kernel &&
                 weights.dim(3) == geom_.kernel,
             "conv weight shape mismatch");
  EB_REQUIRE(bias_.size() == geom_.out_ch, "conv bias shape mismatch");
  weights_ = PanelMatrix(geom_.out_ch,
                         geom_.in_ch * geom_.kernel * geom_.kernel,
                         std::move(weights).release());
}

Conv2dLayer Conv2dLayer::random(std::string name, Conv2dGeom geom,
                                Precision precision, Rng& rng) {
  const double fan_in =
      static_cast<double>(geom.kernel * geom.kernel * geom.in_ch);
  return Conv2dLayer(
      std::move(name), geom,
      Tensor::random_uniform({geom.out_ch, geom.in_ch, geom.kernel, geom.kernel},
                             1.0 / std::sqrt(fan_in), rng),
      Tensor::zeros({geom.out_ch}), precision);
}

Tensor Conv2dLayer::weights() const {
  return Tensor({geom_.out_ch, geom_.in_ch, geom_.kernel, geom_.kernel},
                weights_.unpack());
}

Tensor Conv2dLayer::forward(const Tensor& x) const {
  EB_REQUIRE(x.rank() == 3 && x.dim(0) == geom_.in_ch &&
                 x.dim(1) == geom_.in_h && x.dim(2) == geom_.in_w,
             "conv input shape mismatch in " + name_);
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  Tensor y({geom_.out_ch, oh, ow});
  for (std::size_t oc = 0; oc < geom_.out_ch; ++oc) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        double acc = bias_[oc];
        for (std::size_t ic = 0; ic < geom_.in_ch; ++ic) {
          for (std::size_t kh = 0; kh < geom_.kernel; ++kh) {
            for (std::size_t kw = 0; kw < geom_.kernel; ++kw) {
              const long long r =
                  conv_in_coord(i, geom_.stride, kh, geom_.pad, geom_.in_h);
              const long long c =
                  conv_in_coord(j, geom_.stride, kw, geom_.pad, geom_.in_w);
              if (r < 0 || c < 0) {
                continue;  // zero padding
              }
              acc += weights_.at(oc, (ic * geom_.kernel + kh) *
                                             geom_.kernel +
                                         kw) *
                     x.at({ic, static_cast<std::size_t>(r),
                           static_cast<std::size_t>(c)});
            }
          }
        }
        y.at({oc, i, j}) = acc;
      }
    }
  }
  return y;
}

std::vector<Tensor> Conv2dLayer::forward_batch(std::span<const Tensor> xs,
                                               ThreadPool& pool) const {
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  const std::size_t windows = oh * ow;
  const std::size_t patch = geom_.in_ch * geom_.kernel * geom_.kernel;

  // Real-valued im2col: one row per window, (ic, kh, kw) order -- the
  // same accumulation order as forward(), with zero fill for padding so
  // the GEMM adds exactly 0.0 where the reference loop skips.
  std::vector<double> cols(xs.size() * windows * patch, 0.0);
  pool.parallel_for(0, xs.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      const Tensor& x = xs[s];
      EB_REQUIRE(x.rank() == 3 && x.dim(0) == geom_.in_ch &&
                     x.dim(1) == geom_.in_h && x.dim(2) == geom_.in_w,
                 "conv input shape mismatch in " + name_);
      const double* src = x.data();
      for (std::size_t i = 0; i < oh; ++i) {
        for (std::size_t j = 0; j < ow; ++j) {
          double* dst =
              cols.data() + ((s * windows) + i * ow + j) * patch;
          for (std::size_t ic = 0; ic < geom_.in_ch; ++ic) {
            for (std::size_t kh = 0; kh < geom_.kernel; ++kh) {
              const long long r =
                  conv_in_coord(i, geom_.stride, kh, geom_.pad, geom_.in_h);
              if (r < 0) {
                dst += geom_.kernel;
                continue;
              }
              const double* row = src + (ic * geom_.in_h +
                                         static_cast<std::size_t>(r)) *
                                            geom_.in_w;
              for (std::size_t kw = 0; kw < geom_.kernel; ++kw, ++dst) {
                const long long c =
                    conv_in_coord(j, geom_.stride, kw, geom_.pad, geom_.in_w);
                if (c >= 0) {
                  *dst = row[static_cast<std::size_t>(c)];
                }
              }
            }
          }
        }
      }
    }
  });

  // weights_ holds out_ch panel rows of `patch` values, (ic, kh, kw) order.
  std::vector<double> y(xs.size() * windows * geom_.out_ch);
  real_gemm_bias(xs.size() * windows, cols.data(), weights_, bias_.data(),
                 y.data(), &pool);

  std::vector<Tensor> out(xs.size(), Tensor({geom_.out_ch, oh, ow}));
  pool.parallel_for(0, xs.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      double* dst = out[s].data();
      for (std::size_t win = 0; win < windows; ++win) {
        const double* vals =
            y.data() + (s * windows + win) * geom_.out_ch;
        for (std::size_t oc = 0; oc < geom_.out_ch; ++oc) {
          dst[oc * windows + win] = vals[oc];
        }
      }
    }
  });
  return out;
}

LayerSpec Conv2dLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::Conv2d;
  s.precision = precision_;
  s.name = name_;
  s.conv = geom_;
  return s;
}

// --------------------------------------------------------- BinaryConv2d --

BinaryConv2dLayer::BinaryConv2dLayer(std::string name, Conv2dGeom geom,
                                     BitMatrix kernels)
    : name_(std::move(name)), geom_(geom), kernels_(std::move(kernels)) {
  EB_REQUIRE(kernels_.rows() == geom_.out_ch,
             "one kernel per output channel required");
  EB_REQUIRE(kernels_.cols() == geom_.kernel * geom_.kernel * geom_.in_ch,
             "kernel length mismatch");
}

BinaryConv2dLayer BinaryConv2dLayer::random(std::string name, Conv2dGeom geom,
                                            Rng& rng) {
  const std::size_t m = geom.kernel * geom.kernel * geom.in_ch;
  return BinaryConv2dLayer(std::move(name), geom,
                           BitMatrix::random(geom.out_ch, m, rng));
}

// Bits go straight from the input tensor into the slab, 64 sign bits at a
// time in (ic, kh, kw) order.
void pack_im2col_rows(BitMatrix& dst, std::size_t row0, const Tensor& x,
                      const Conv2dGeom& geom) {
  EB_REQUIRE(x.size() == geom.in_ch * geom.in_h * geom.in_w &&
                 dst.cols() == geom.kernel * geom.kernel * geom.in_ch,
             "im2col input or row width does not match the geometry");
  const std::size_t oh = geom.out_h();
  const std::size_t ow = geom.out_w();
  const double* src = x.data();
  for (std::size_t i = 0; i < oh; ++i) {
    for (std::size_t j = 0; j < ow; ++j) {
      std::uint64_t* words = dst.row_words(row0 + i * ow + j);
      std::fill_n(words, dst.words_per_row(), std::uint64_t{0});
      std::uint64_t cur = 0;
      std::size_t idx = 0;
      for (std::size_t ic = 0; ic < geom.in_ch; ++ic) {
        for (std::size_t kh = 0; kh < geom.kernel; ++kh) {
          const long long r =
              conv_in_coord(i, geom.stride, kh, geom.pad, geom.in_h);
          const double* row =
              r >= 0 ? src + (ic * geom.in_h +
                              static_cast<std::size_t>(r)) *
                                 geom.in_w
                     : nullptr;
          for (std::size_t kw = 0; kw < geom.kernel; ++kw, ++idx) {
            const long long c =
                conv_in_coord(j, geom.stride, kw, geom.pad, geom.in_w);
            const bool bit = row != nullptr && c >= 0 &&
                             row[static_cast<std::size_t>(c)] >= 0.0;
            if (bit) {
              cur |= std::uint64_t{1} << (idx & 63);
            }
            if ((idx & 63) == 63) {
              words[idx / 64] = cur;
              cur = 0;
            }
          }
        }
      }
      if ((idx & 63) != 0) {
        words[idx / 64] = cur;
      }
    }
  }
}

namespace {

// Scatters one im2col window's GEMM row (out_ch signed products, window
// index `win` within the sample) into the [out_ch, oh, ow] tensor.
void scatter_conv_row(Tensor& y, std::size_t win, const std::int32_t* vals,
                      const Conv2dGeom& geom) {
  const std::size_t hw = geom.out_h() * geom.out_w();
  double* dst = y.data() + win;  // y[oc][i][j] with i*ow+j == win
  for (std::size_t oc = 0; oc < geom.out_ch; ++oc) {
    dst[oc * hw] = static_cast<double>(vals[oc]);
  }
}

}  // namespace

Tensor BinaryConv2dLayer::forward(const Tensor& x) const {
  EB_REQUIRE(x.rank() == 3 && x.dim(0) == geom_.in_ch &&
                 x.dim(1) == geom_.in_h && x.dim(2) == geom_.in_w,
             "binary conv input shape mismatch in " + name_);
  const std::size_t windows = geom_.out_h() * geom_.out_w();
  BitMatrix xw(windows, kernels_.cols());
  pack_im2col_rows(xw, 0, x, geom_);
  Tensor y({geom_.out_ch, geom_.out_h(), geom_.out_w()});
  xnor_signed_gemm_visit(
      xw, kernels_,
      [&y, this](std::size_t win, const std::int32_t* vals, std::size_t) {
        scatter_conv_row(y, win, vals, geom_);
      });
  return y;
}

std::vector<Tensor> BinaryConv2dLayer::forward_batch(
    std::span<const Tensor> xs, ThreadPool& pool) const {
  const std::size_t windows = geom_.out_h() * geom_.out_w();
  BitMatrix xw(xs.size() * windows, kernels_.cols());
  pool.parallel_for(0, xs.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      EB_REQUIRE(xs[s].rank() == 3 && xs[s].dim(0) == geom_.in_ch &&
                     xs[s].dim(1) == geom_.in_h && xs[s].dim(2) == geom_.in_w,
                 "binary conv input shape mismatch in " + name_);
      pack_im2col_rows(xw, s * windows, xs[s], geom_);
    }
  });
  std::vector<Tensor> out(
      xs.size(), Tensor({geom_.out_ch, geom_.out_h(), geom_.out_w()}));
  xnor_signed_gemm_visit(
      xw, kernels_,
      [&out, windows, this](std::size_t row, const std::int32_t* vals,
                            std::size_t) {
        scatter_conv_row(out[row / windows], row % windows, vals, geom_);
      },
      &pool);
  return out;
}

LayerSpec BinaryConv2dLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::Conv2d;
  s.precision = Precision::Binary;
  s.name = name_;
  s.conv = geom_;
  return s;
}

// ------------------------------------------------------------ BatchNorm --

BatchNormLayer::BatchNormLayer(std::string name, std::vector<double> gamma,
                               std::vector<double> beta,
                               std::vector<double> mean,
                               std::vector<double> var, double eps)
    : name_(std::move(name)),
      gamma_(std::move(gamma)),
      beta_(std::move(beta)),
      mean_(std::move(mean)),
      var_(std::move(var)),
      eps_(eps) {
  EB_REQUIRE(gamma_.size() == beta_.size() && gamma_.size() == mean_.size() &&
                 gamma_.size() == var_.size(),
             "batchnorm parameter sizes must match");
  EB_REQUIRE(!gamma_.empty(), "batchnorm needs at least one channel");
  stddev_.reserve(var_.size());
  for (const double v : var_) {
    stddev_.push_back(std::sqrt(v + eps_));
  }
}

BatchNormLayer BatchNormLayer::identity(std::string name,
                                        std::size_t features) {
  return BatchNormLayer(std::move(name), std::vector<double>(features, 1.0),
                        std::vector<double>(features, 0.0),
                        std::vector<double>(features, 0.0),
                        std::vector<double>(features, 1.0));
}

Tensor BatchNormLayer::forward(const Tensor& x) const {
  const std::size_t ch = gamma_.size();
  Tensor y = x;
  if (x.rank() == 1) {
    EB_REQUIRE(x.size() == ch, "batchnorm feature mismatch in " + name_);
    for (std::size_t c = 0; c < ch; ++c) {
      y[c] = gamma_[c] * (x[c] - mean_[c]) / stddev_[c] + beta_[c];
    }
    return y;
  }
  EB_REQUIRE(x.rank() == 3 && x.dim(0) == ch,
             "batchnorm expects [C,H,W] or [F] in " + name_);
  const std::size_t hw = x.dim(1) * x.dim(2);
  for (std::size_t c = 0; c < ch; ++c) {
    const double scale = gamma_[c] / stddev_[c];
    for (std::size_t i = 0; i < hw; ++i) {
      y[c * hw + i] = scale * (x[c * hw + i] - mean_[c]) + beta_[c];
    }
  }
  return y;
}

bool ThresholdFold::any_flip() const {
  return std::any_of(flip.begin(), flip.end(),
                     [](std::uint8_t f) { return f != 0; });
}

ThresholdFold BatchNormLayer::fold_to_thresholds() const {
  ThresholdFold fold;
  fold.thr.resize(gamma_.size());
  fold.flip.assign(gamma_.size(), 0);
  for (std::size_t c = 0; c < gamma_.size(); ++c) {
    if (gamma_[c] == 0.0) {
      // BN(x) is the constant beta: the channel never changes sign.
      fold.thr[c] = beta_[c] >= 0.0
                        ? -std::numeric_limits<double>::infinity()
                        : std::numeric_limits<double>::infinity();
      continue;
    }
    // sign(gamma*(x-mean)/sqrt(var+eps)+beta) == sign(x - thr) for
    // gamma > 0; for gamma < 0 the affine map is decreasing, so the
    // comparison direction flips: +1 iff x <= thr.
    fold.thr[c] = mean_[c] - beta_[c] * stddev_[c] / gamma_[c];
    fold.flip[c] = gamma_[c] < 0.0 ? 1 : 0;
  }
  return fold;
}

double BatchNormLayer::apply_channel(std::size_t c, double x,
                                     std::size_t rank) const {
  EB_ASSERT(c < gamma_.size(), "batchnorm channel out of range");
  if (rank == 1) {
    return gamma_[c] * (x - mean_[c]) / stddev_[c] + beta_[c];
  }
  const double scale = gamma_[c] / stddev_[c];
  return scale * (x - mean_[c]) + beta_[c];
}

LayerSpec BatchNormLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::BatchNorm;
  s.name = name_;
  s.features = gamma_.size();
  return s;
}

// ----------------------------------------------------------------- Sign --

SignLayer::SignLayer(std::string name, std::size_t features)
    : name_(std::move(name)), features_(features) {}

Tensor SignLayer::forward(const Tensor& x) const {
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = sign_pm1(y[i]);
  }
  return y;
}

std::vector<Tensor> SignLayer::forward_batch(std::span<const Tensor> xs,
                                             ThreadPool& pool) const {
  std::vector<Tensor> out(xs.size());
  pool.parallel_for(0, xs.size(), kEpilogueGrain,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        const Tensor& x = xs[i];
                        std::vector<double> y(x.size());
                        for (std::size_t k = 0; k < y.size(); ++k) {
                          y[k] = sign_pm1(x[k]);
                        }
                        out[i] = Tensor(x.shape(), std::move(y));
                      }
                    });
  return out;
}

LayerSpec SignLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::Sign;
  s.name = name_;
  s.features = features_;
  return s;
}

// ----------------------------------------------------------- Threshold --

ThresholdLayer::ThresholdLayer(std::string name, std::vector<long long> thr,
                               std::vector<std::uint8_t> flip)
    : name_(std::move(name)), thr_(std::move(thr)), flip_(std::move(flip)) {
  EB_REQUIRE(!thr_.empty(), "threshold layer needs at least one channel");
  EB_REQUIRE(thr_.size() == flip_.size(),
             "threshold/flip sizes must match in " + name_);
  scale_d_.reserve(thr_.size());
  bound_d_.reserve(thr_.size());
  for (std::size_t c = 0; c < thr_.size(); ++c) {
    const double t = static_cast<double>(thr_[c]);
    const bool flip = flip_[c] != 0;
    scale_d_.push_back(flip ? -1.0 : 1.0);
    bound_d_.push_back(flip ? -t : t);
  }
}

Tensor ThresholdLayer::forward(const Tensor& x) const {
  const std::size_t ch = thr_.size();
  Tensor y = x;
  if (x.rank() == 1) {
    EB_REQUIRE(x.size() == ch, "threshold feature mismatch in " + name_);
    for (std::size_t c = 0; c < ch; ++c) {
      y[c] = scale_d_[c] * x[c] >= bound_d_[c] ? 1.0 : -1.0;
    }
    return y;
  }
  EB_REQUIRE(x.rank() == 3 && x.dim(0) == ch,
             "threshold expects [C,H,W] or [F] in " + name_);
  const std::size_t hw = x.dim(1) * x.dim(2);
  for (std::size_t c = 0; c < ch; ++c) {
    const double s = scale_d_[c];
    const double b = bound_d_[c];
    for (std::size_t i = 0; i < hw; ++i) {
      y[c * hw + i] = s * x[c * hw + i] >= b ? 1.0 : -1.0;
    }
  }
  return y;
}

std::vector<Tensor> ThresholdLayer::forward_batch(std::span<const Tensor> xs,
                                                  ThreadPool& pool) const {
  const std::size_t ch = thr_.size();
  std::vector<Tensor> out(xs.size());
  pool.parallel_for(
      0, xs.size(), kEpilogueGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const Tensor& x = xs[i];
          EB_REQUIRE((x.rank() == 1 && x.size() == ch) ||
                         (x.rank() == 3 && x.dim(0) == ch),
                     "threshold expects [C,H,W] or [F] in " + name_);
          std::vector<double> y(x.size());
          if (x.rank() == 1) {
            for (std::size_t c = 0; c < ch; ++c) {
              y[c] = scale_d_[c] * x[c] >= bound_d_[c] ? 1.0 : -1.0;
            }
          } else {
            const std::size_t hw = x.size() / ch;
            for (std::size_t c = 0; c < ch; ++c) {
              const double s = scale_d_[c];
              const double b = bound_d_[c];
              for (std::size_t j = 0; j < hw; ++j) {
                y[c * hw + j] = s * x[c * hw + j] >= b ? 1.0 : -1.0;
              }
            }
          }
          out[i] = Tensor(x.shape(), std::move(y));
        }
      });
  return out;
}

LayerSpec ThresholdLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::Threshold;
  s.name = name_;
  s.features = thr_.size();
  return s;
}

// ------------------------------------------------------------- MaxPool --

MaxPool2dLayer::MaxPool2dLayer(std::string name, std::size_t pool)
    : name_(std::move(name)), pool_(pool) {
  EB_REQUIRE(pool_ >= 1, "pool size must be >= 1");
}

Tensor MaxPool2dLayer::forward(const Tensor& x) const {
  EB_REQUIRE(x.rank() == 3, "maxpool expects [C,H,W] in " + name_);
  const std::size_t ch = x.dim(0);
  const std::size_t oh = x.dim(1) / pool_;
  const std::size_t ow = x.dim(2) / pool_;
  EB_REQUIRE(oh > 0 && ow > 0, "maxpool output would be empty in " + name_);
  Tensor y({ch, oh, ow});
  for (std::size_t c = 0; c < ch; ++c) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        double best = x.at({c, i * pool_, j * pool_});
        for (std::size_t di = 0; di < pool_; ++di) {
          for (std::size_t dj = 0; dj < pool_; ++dj) {
            best = std::max(best, x.at({c, i * pool_ + di, j * pool_ + dj}));
          }
        }
        y.at({c, i, j}) = best;
      }
    }
  }
  return y;
}

LayerSpec MaxPool2dLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::MaxPool2d;
  s.name = name_;
  s.pool = pool_;
  return s;
}

// ------------------------------------------------------------- Flatten --

FlattenLayer::FlattenLayer(std::string name) : name_(std::move(name)) {}

Tensor FlattenLayer::forward(const Tensor& x) const {
  Tensor y = x;
  y.reshape({x.size()});
  return y;
}

LayerSpec FlattenLayer::spec() const {
  LayerSpec s;
  s.kind = LayerKind::Flatten;
  s.name = name_;
  return s;
}

}  // namespace eb::bnn
