// Functional (inference) layers.
//
// These implement the bit-exact reference semantics the crossbar mappings
// are validated against. Binary layers compute through the packed
// XNOR+Popcount kernel (paper Eq. 1) so that "reference output" and
// "ideal-crossbar output" are the same integers, not approximately-equal
// floats.
//
// Data layout: a single sample flows through as
//   Dense path : [features]
//   Conv path  : [channels, height, width]
// Batch loops live in the callers (trainer / evaluation drivers).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bnn/real_gemm.hpp"
#include "bnn/spec.hpp"
#include "bnn/tensor.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace eb::bnn {

class Layer {
 public:
  virtual ~Layer() = default;

  [[nodiscard]] virtual Tensor forward(const Tensor& x) const = 0;

  // Batched forward: out[i] must be bit-identical to forward(xs[i]). The
  // default fans the samples out across the pool; binary layers override
  // with fused packed XNOR+Popcount GEMMs over the whole batch.
  [[nodiscard]] virtual std::vector<Tensor> forward_batch(
      std::span<const Tensor> xs, ThreadPool& pool) const;

  [[nodiscard]] virtual LayerSpec spec() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

// Higher-precision dense layer (paper keeps first/last layers non-binary).
//
// The weights are held once, as the k-major 16-row panels of a
// PanelMatrix (bnn/real_gemm.hpp), packed in place in the buffer of the
// Tensor the layer is built from. forward_batch() runs the panel GEMM,
// bias-first and k-ascending with no fused multiply-add; forward() is a
// direct loop over the same weights in the same order, so the two are
// bit-identical and the per-sample path checks the batched one.
// weights() unpacks a row-major copy on demand.
class DenseLayer final : public Layer {
 public:
  // weights shape [out, in]; bias shape [out].
  DenseLayer(std::string name, Tensor weights, Tensor bias,
             Precision precision);

  [[nodiscard]] static DenseLayer random(std::string name, std::size_t in,
                                         std::size_t out, Precision precision,
                                         Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  // One panel GEMM over the whole batch (m = batch rows).
  [[nodiscard]] std::vector<Tensor> forward_batch(
      std::span<const Tensor> xs, ThreadPool& pool) const override;
  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

  // Row-major [out, in] copy of the weights, exactly the constructor's.
  [[nodiscard]] Tensor weights() const;
  [[nodiscard]] const PanelMatrix& panels() const { return weights_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }

 private:
  std::string name_;
  PanelMatrix weights_;
  Tensor bias_;
  Precision precision_;
};

// Binarized dense layer. Expects +/-1 inputs (output of a Sign layer);
// produces integer-valued pre-activations 2*popcount - m. forward() runs
// its one sample through the same XNOR GEMM as forward_batch().
class BinaryDenseLayer final : public Layer {
 public:
  // weights: one row per output neuron, each of length in_features.
  BinaryDenseLayer(std::string name, BitMatrix weights);

  [[nodiscard]] static BinaryDenseLayer random(std::string name,
                                               std::size_t in, std::size_t out,
                                               Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  // One fused GEMM over the whole batch of binarized activations.
  [[nodiscard]] std::vector<Tensor> forward_batch(
      std::span<const Tensor> xs, ThreadPool& pool) const override;

  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] const BitMatrix& weights() const { return weights_; }

 private:
  std::string name_;
  BitMatrix weights_;
};

// Higher-precision conv layer (first layer of the CNNs). Its weights are
// out_ch panel rows of in_ch*k*k values, held like DenseLayer's.
class Conv2dLayer final : public Layer {
 public:
  // weights shape [out_ch, in_ch, k, k]; bias [out_ch].
  Conv2dLayer(std::string name, Conv2dGeom geom, Tensor weights, Tensor bias,
              Precision precision);

  [[nodiscard]] static Conv2dLayer random(std::string name, Conv2dGeom geom,
                                          Precision precision, Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  // Real-valued im2col + one panel GEMM across all windows of all
  // samples (bit-identical to the per-sample loop).
  [[nodiscard]] std::vector<Tensor> forward_batch(
      std::span<const Tensor> xs, ThreadPool& pool) const override;
  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

  // [out_ch, in_ch, k, k] copy of the weights, exactly the constructor's.
  [[nodiscard]] Tensor weights() const;
  [[nodiscard]] const PanelMatrix& panels() const { return weights_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }
  [[nodiscard]] const Conv2dGeom& geom() const { return geom_; }

 private:
  std::string name_;
  Conv2dGeom geom_;
  PanelMatrix weights_;
  Tensor bias_;
  Precision precision_;
};

// Binarized conv layer: kernels and activations in {-1,+1}, computed via
// packed XNOR+Popcount over im2col windows.
class BinaryConv2dLayer final : public Layer {
 public:
  // kernels: one row per output channel, k*k*in_ch bits in (in_ch, kh, kw)
  // row-major order -- the order pack_im2col_rows packs windows in.
  BinaryConv2dLayer(std::string name, Conv2dGeom geom, BitMatrix kernels);

  [[nodiscard]] static BinaryConv2dLayer random(std::string name,
                                                Conv2dGeom geom, Rng& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  // Batched im2col + one fused GEMM across all windows of all samples.
  [[nodiscard]] std::vector<Tensor> forward_batch(
      std::span<const Tensor> xs, ThreadPool& pool) const override;
  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] const BitMatrix& kernels() const { return kernels_; }
  [[nodiscard]] const Conv2dGeom& geom() const { return geom_; }

 private:
  std::string name_;
  Conv2dGeom geom_;
  BitMatrix kernels_;
};

// Packs every binarized im2col window of one +/-1 input [C,H,W] into the
// out_h*out_w consecutive rows of `dst` from `row0` (oh-major, ow-minor),
// each row k*k*in_ch bits in (in_ch, kh, kw) order. Bit = 1 iff the input
// is >= 0; padding positions pack as 0 (-1 in the signed interpretation).
void pack_im2col_rows(BitMatrix& dst, std::size_t row0, const Tensor& x,
                      const Conv2dGeom& geom);

// Folded BatchNorm+Sign comparison: channel c of sign(BN(x)) is
//   +1  iff  (flip[c] ? x <= thr[c] : x >= thr[c]).
// flip[c] is set where gamma_c < 0 (BN is decreasing in x there, so the
// comparison direction reverses); gamma_c == 0 makes the channel constant
// and thr[c] is +/-infinity accordingly.
struct ThresholdFold {
  std::vector<double> thr;
  std::vector<std::uint8_t> flip;

  [[nodiscard]] bool any_flip() const;
};

// Inference-time batch normalization (per-channel affine).
class BatchNormLayer final : public Layer {
 public:
  BatchNormLayer(std::string name, std::vector<double> gamma,
                 std::vector<double> beta, std::vector<double> mean,
                 std::vector<double> var, double eps = 1e-5);

  // Identity-initialized BN over `features` channels.
  [[nodiscard]] static BatchNormLayer identity(std::string name,
                                               std::size_t features);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

  // Folds BN+Sign into per-channel comparisons -- the standard BNN
  // deployment trick; the compiler uses it to keep post-processing digital
  // logic trivial. Negative gamma flips the comparison direction per
  // neuron (see ThresholdFold); consumers that cannot express a flipped
  // comparison must check any_flip() and reject.
  [[nodiscard]] ThresholdFold fold_to_thresholds() const;

  // Channel c of forward() at scalar x, using the exact float expression
  // (and rounding order) the given input rank evaluates: rank 1 computes
  // gamma*(x-mean)/sqrt(var+eps)+beta, rank 3 precomputes the scale.
  // Bit-exact threshold search must match the serving-time ordering.
  [[nodiscard]] double apply_channel(std::size_t c, double x,
                                     std::size_t rank) const;

  [[nodiscard]] std::size_t features() const { return gamma_.size(); }

  [[nodiscard]] const std::vector<double>& gamma() const { return gamma_; }
  [[nodiscard]] const std::vector<double>& beta() const { return beta_; }
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }
  [[nodiscard]] const std::vector<double>& var() const { return var_; }
  [[nodiscard]] double eps() const { return eps_; }

 private:
  std::string name_;
  std::vector<double> gamma_;
  std::vector<double> beta_;
  std::vector<double> mean_;
  std::vector<double> var_;
  double eps_;
  // sqrt(var_[c] + eps_) per channel, computed once at construction;
  // forward(), apply_channel() and fold_to_thresholds() divide by it.
  std::vector<double> stddev_;
};

// Element-wise sign into {-1,+1}.
class SignLayer final : public Layer {
 public:
  explicit SignLayer(std::string name, std::size_t features = 0);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  // Builds each output once (no copy-then-overwrite), several samples per
  // pool task; bit-identical to forward().
  [[nodiscard]] std::vector<Tensor> forward_batch(
      std::span<const Tensor> xs, ThreadPool& pool) const override;
  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  std::size_t features_;
};

// Deployed (folded) BatchNorm+Sign: channel c maps to
//   +1  iff  (flip[c] ? x <= thr[c] : x >= thr[c])
// with integer thresholds, so the epilogue of a binary dense/conv layer is
// a single integer comparison -- no division, sqrt or affine arithmetic at
// serving time. Built by fold_network() (format.hpp), which binary-searches
// the exact sign flip point of each BN channel over the integer
// pre-activation range, making the folded network bit-identical to the
// BatchNorm+Sign pair it replaces.
class ThresholdLayer final : public Layer {
 public:
  // thr/flip: one entry per channel. Accepts [F] and [C,H,W] inputs like
  // BatchNormLayer (per-channel broadcast over H,W).
  ThresholdLayer(std::string name, std::vector<long long> thr,
                 std::vector<std::uint8_t> flip);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  // Builds each output once (no copy-then-overwrite), several samples per
  // pool task; bit-identical to forward().
  [[nodiscard]] std::vector<Tensor> forward_batch(
      std::span<const Tensor> xs, ThreadPool& pool) const override;
  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] std::size_t features() const { return thr_.size(); }
  [[nodiscard]] const std::vector<long long>& thresholds() const {
    return thr_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& flips() const {
    return flip_;
  }

 private:
  std::string name_;
  std::vector<long long> thr_;
  std::vector<std::uint8_t> flip_;
  // Branchless comparison form, built once: flip[c] ? x <= t : x >= t
  // is evaluated as scale[c]*x >= bound[c] with scale = -1/+1 and
  // bound = -t/+t (negation is exact for doubles, so ties and infinities
  // agree with the two-sided comparison bit-for-bit). Keeps the hot
  // epilogue loop free of per-channel branches so it vectorizes.
  std::vector<double> scale_d_;
  std::vector<double> bound_d_;
};

// Max pool over [C,H,W] with square window == stride.
class MaxPool2dLayer final : public Layer {
 public:
  MaxPool2dLayer(std::string name, std::size_t pool);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  std::size_t pool_;
};

// [C,H,W] -> [C*H*W].
class FlattenLayer final : public Layer {
 public:
  explicit FlattenLayer(std::string name);

  [[nodiscard]] Tensor forward(const Tensor& x) const override;
  [[nodiscard]] LayerSpec spec() const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
};

}  // namespace eb::bnn
