#include "bnn/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "bnn/binarize.hpp"
#include "common/error.hpp"

namespace eb::bnn {

namespace {

double sign_val(double x) { return x >= 0.0 ? 1.0 : -1.0; }

// y = W x + b, W is [out*in] row-major.
void affine(const std::vector<double>& w, const std::vector<double>& b,
            const std::vector<double>& x, std::vector<double>& y,
            std::size_t in, std::size_t out, bool binarize_w) {
  y.assign(out, 0.0);
  for (std::size_t o = 0; o < out; ++o) {
    double acc = b.empty() ? 0.0 : b[o];
    const double* row = w.data() + o * in;
    if (binarize_w) {
      for (std::size_t i = 0; i < in; ++i) {
        acc += sign_val(row[i]) * x[i];
      }
    } else {
      for (std::size_t i = 0; i < in; ++i) {
        acc += row[i] * x[i];
      }
    }
    y[o] = acc;
  }
}

void softmax_inplace(std::vector<double>& z) {
  const double m = *std::max_element(z.begin(), z.end());
  double sum = 0.0;
  for (auto& v : z) {
    v = std::exp(v - m);
    sum += v;
  }
  for (auto& v : z) {
    v /= sum;
  }
}

}  // namespace

MlpTrainer::MlpTrainer(TrainerConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  EB_REQUIRE(cfg_.dims.size() >= 3, "trainer needs >= 3 layer dims");
  const std::size_t n_linear = cfg_.dims.size() - 1;
  linear_.resize(n_linear);
  bn_.resize(n_linear - 1);
  for (std::size_t l = 0; l < n_linear; ++l) {
    auto& lp = linear_[l];
    lp.in = cfg_.dims[l];
    lp.out = cfg_.dims[l + 1];
    lp.binary = (l != 0 && l != n_linear - 1);
    lp.w.resize(lp.in * lp.out);
    const double scale = 1.0 / std::sqrt(static_cast<double>(lp.in));
    for (auto& v : lp.w) {
      v = rng_.uniform(-scale, scale);
    }
    lp.b.assign(lp.out, 0.0);
  }
  for (std::size_t l = 0; l + 1 < n_linear; ++l) {
    auto& bp = bn_[l];
    const std::size_t f = cfg_.dims[l + 1];
    bp.gamma.assign(f, 1.0);
    bp.beta.assign(f, 0.0);
    bp.running_mean.assign(f, 0.0);
    bp.running_var.assign(f, 1.0);
  }
}

TrainResult MlpTrainer::train(const SyntheticMnist& data) {
  const std::size_t n_linear = linear_.size();
  const double eps = 1e-5;
  TrainResult result;

  std::vector<std::size_t> order(cfg_.train_samples);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }

  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng_.engine());
    double epoch_loss = 0.0;
    std::size_t correct = 0;

    for (std::size_t batch_start = 0; batch_start < order.size();
         batch_start += cfg_.batch_size) {
      const std::size_t bsz =
          std::min(cfg_.batch_size, order.size() - batch_start);

      // Per-layer activations for the whole batch.
      // pre[l][s]   : affine output of linear layer l for sample s
      // bnout[l][s] : BN output (pre-sign) for non-final layers
      // act[l][s]   : input to linear layer l (act[0] = image)
      std::vector<std::vector<std::vector<double>>> pre(n_linear),
          bnout(n_linear), act(n_linear + 1);
      for (auto& v : pre) v.resize(bsz);
      for (auto& v : bnout) v.resize(bsz);
      for (auto& v : act) v.resize(bsz);

      std::vector<std::size_t> labels(bsz);

      // Batch statistics per BN layer.
      std::vector<std::vector<double>> mu(bn_.size()), var(bn_.size());

      // ---- forward ----
      for (std::size_t s = 0; s < bsz; ++s) {
        const Sample sample = data.sample(order[batch_start + s]);
        labels[s] = sample.label;
        act[0][s].assign(sample.image.data(),
                         sample.image.data() + sample.image.size());
      }
      for (std::size_t l = 0; l < n_linear; ++l) {
        for (std::size_t s = 0; s < bsz; ++s) {
          affine(linear_[l].w, linear_[l].b, act[l][s], pre[l][s],
                 linear_[l].in, linear_[l].out, linear_[l].binary);
        }
        if (l + 1 == n_linear) {
          break;  // logits, no BN/sign
        }
        const std::size_t f = linear_[l].out;
        mu[l].assign(f, 0.0);
        var[l].assign(f, 0.0);
        for (std::size_t s = 0; s < bsz; ++s) {
          for (std::size_t j = 0; j < f; ++j) {
            mu[l][j] += pre[l][s][j];
          }
        }
        for (auto& v : mu[l]) {
          v /= static_cast<double>(bsz);
        }
        for (std::size_t s = 0; s < bsz; ++s) {
          for (std::size_t j = 0; j < f; ++j) {
            const double d = pre[l][s][j] - mu[l][j];
            var[l][j] += d * d;
          }
        }
        for (auto& v : var[l]) {
          v /= static_cast<double>(bsz);
        }
        // Running stats for inference.
        for (std::size_t j = 0; j < f; ++j) {
          bn_[l].running_mean[j] = cfg_.bn_momentum * bn_[l].running_mean[j] +
                                   (1.0 - cfg_.bn_momentum) * mu[l][j];
          bn_[l].running_var[j] = cfg_.bn_momentum * bn_[l].running_var[j] +
                                  (1.0 - cfg_.bn_momentum) * var[l][j];
        }
        for (std::size_t s = 0; s < bsz; ++s) {
          bnout[l][s].resize(f);
          act[l + 1][s].resize(f);
          for (std::size_t j = 0; j < f; ++j) {
            const double xhat =
                (pre[l][s][j] - mu[l][j]) / std::sqrt(var[l][j] + eps);
            const double z = bn_[l].gamma[j] * xhat + bn_[l].beta[j];
            bnout[l][s][j] = z;
            act[l + 1][s][j] = sign_val(z);  // binary activation
          }
        }
      }

      // ---- loss & output gradient ----
      // grad_act[s] holds dL/d(input of current stage) while walking back.
      std::vector<std::vector<double>> grad_pre(bsz);
      for (std::size_t s = 0; s < bsz; ++s) {
        std::vector<double> probs = pre[n_linear - 1][s];
        softmax_inplace(probs);
        epoch_loss += -std::log(std::max(probs[labels[s]], 1e-12));
        std::size_t best = 0;
        for (std::size_t j = 1; j < probs.size(); ++j) {
          if (probs[j] > probs[best]) {
            best = j;
          }
        }
        if (best == labels[s]) {
          ++correct;
        }
        grad_pre[s] = probs;
        grad_pre[s][labels[s]] -= 1.0;
        for (auto& g : grad_pre[s]) {
          g /= static_cast<double>(bsz);
        }
      }

      // ---- backward ----
      for (std::size_t li = n_linear; li-- > 0;) {
        auto& lp = linear_[li];
        // Gradients wrt weights / bias and wrt layer input.
        std::vector<std::vector<double>> grad_in(bsz);
        std::vector<double> gw(lp.in * lp.out, 0.0);
        std::vector<double> gb(lp.out, 0.0);
        for (std::size_t s = 0; s < bsz; ++s) {
          grad_in[s].assign(lp.in, 0.0);
          for (std::size_t o = 0; o < lp.out; ++o) {
            const double g = grad_pre[s][o];
            gb[o] += g;
            const double* row = lp.w.data() + o * lp.in;
            double* gwrow = gw.data() + o * lp.in;
            for (std::size_t i = 0; i < lp.in; ++i) {
              // STE: forward used sign(w); dL/dw_latent = dL/d(sign(w)).
              gwrow[i] += g * act[li][s][i];
              grad_in[s][i] += g * (lp.binary ? sign_val(row[i]) : row[i]);
            }
          }
        }
        // SGD update; clip binary latents to [-1, 1] (BinaryConnect).
        for (std::size_t k = 0; k < lp.w.size(); ++k) {
          lp.w[k] -= cfg_.learning_rate * gw[k];
          if (lp.binary) {
            lp.w[k] = std::clamp(lp.w[k], -1.0, 1.0);
          }
        }
        if (!lp.binary) {
          for (std::size_t o = 0; o < lp.out; ++o) {
            lp.b[o] -= cfg_.learning_rate * gb[o];
          }
        }

        if (li == 0) {
          break;  // no upstream layers
        }

        // Back through the Sign activation (hardtanh STE) and BatchNorm of
        // layer li-1 to produce grad wrt pre[li-1].
        const std::size_t bl = li - 1;
        const std::size_t f = linear_[bl].out;
        auto& bp = bn_[bl];
        // dL/d(bnout) with STE clip |bnout| <= 1.
        std::vector<std::vector<double>> grad_z(bsz);
        for (std::size_t s = 0; s < bsz; ++s) {
          grad_z[s].assign(f, 0.0);
          for (std::size_t j = 0; j < f; ++j) {
            const double z = bnout[bl][s][j];
            grad_z[s][j] =
                (std::fabs(z) <= 1.0) ? grad_in[s][j] : 0.0;
          }
        }
        // BatchNorm backward (standard batch formulas).
        std::vector<double> sum_gz(f, 0.0), sum_gz_xhat(f, 0.0), ggamma(f, 0.0),
            gbeta(f, 0.0);
        std::vector<std::vector<double>> xhat(bsz);
        for (std::size_t s = 0; s < bsz; ++s) {
          xhat[s].resize(f);
          for (std::size_t j = 0; j < f; ++j) {
            xhat[s][j] =
                (pre[bl][s][j] - mu[bl][j]) / std::sqrt(var[bl][j] + eps);
            const double gz = grad_z[s][j];
            sum_gz[j] += gz;
            sum_gz_xhat[j] += gz * xhat[s][j];
            ggamma[j] += gz * xhat[s][j];
            gbeta[j] += gz;
          }
        }
        for (std::size_t s = 0; s < bsz; ++s) {
          grad_pre[s].assign(f, 0.0);
          for (std::size_t j = 0; j < f; ++j) {
            const double inv_std = 1.0 / std::sqrt(var[bl][j] + eps);
            const double n = static_cast<double>(bsz);
            grad_pre[s][j] = bp.gamma[j] * inv_std / n *
                             (n * grad_z[s][j] - sum_gz[j] -
                              xhat[s][j] * sum_gz_xhat[j]);
          }
        }
        for (std::size_t j = 0; j < f; ++j) {
          bp.gamma[j] -= cfg_.learning_rate * ggamma[j];
          bp.beta[j] -= cfg_.learning_rate * gbeta[j];
          // Keep gamma positive: deployment folds BN+Sign into a >=
          // threshold (BatchNormLayer::fold_to_thresholds), which requires
          // a sign-preserving scale. Standard BNN deployment constraint.
          bp.gamma[j] = std::max(bp.gamma[j], 0.01);
        }
      }
    }

    result.final_train_loss =
        epoch_loss / static_cast<double>(cfg_.train_samples);
    result.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(cfg_.train_samples);
  }
  return result;
}

std::vector<double> MlpTrainer::infer(const std::vector<double>& x) const {
  const double eps = 1e-5;
  std::vector<double> cur = x;
  std::vector<double> next;
  for (std::size_t l = 0; l < linear_.size(); ++l) {
    affine(linear_[l].w, linear_[l].b, cur, next, linear_[l].in,
           linear_[l].out, linear_[l].binary);
    if (l + 1 == linear_.size()) {
      return next;
    }
    const auto& bp = bn_[l];
    for (std::size_t j = 0; j < next.size(); ++j) {
      const double z = bp.gamma[j] * (next[j] - bp.running_mean[j]) /
                           std::sqrt(bp.running_var[j] + eps) +
                       bp.beta[j];
      next[j] = sign_val(z);
    }
    cur = next;
  }
  return cur;
}

double MlpTrainer::evaluate(const SyntheticMnist& data, std::size_t start,
                            std::size_t count) const {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Sample s = data.sample(start + i);
    std::vector<double> x(s.image.data(), s.image.data() + s.image.size());
    const auto logits = infer(x);
    std::size_t best = 0;
    for (std::size_t j = 1; j < logits.size(); ++j) {
      if (logits[j] > logits[best]) {
        best = j;
      }
    }
    if (best == s.label) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(count);
}

Network MlpTrainer::export_network(const std::string& name) const {
  Network net(name, "MNIST");
  for (std::size_t l = 0; l < linear_.size(); ++l) {
    const auto& lp = linear_[l];
    const std::string idx = std::to_string(l + 1);
    if (lp.binary) {
      BitMatrix wm(lp.out, lp.in);
      for (std::size_t o = 0; o < lp.out; ++o) {
        wm.set_row_signs(o, lp.w.data() + o * lp.in, lp.in);
      }
      net.add(BinaryDenseLayer("fc" + idx, std::move(wm)));
    } else {
      Tensor w({lp.out, lp.in});
      for (std::size_t k = 0; k < lp.w.size(); ++k) {
        w[k] = lp.w[k];
      }
      Tensor b({lp.out});
      for (std::size_t o = 0; o < lp.out; ++o) {
        b[o] = lp.b[o];
      }
      net.add(DenseLayer("fc" + idx, std::move(w), std::move(b),
                         Precision::Int8));
    }
    if (l + 1 < linear_.size()) {
      const auto& bp = bn_[l];
      net.add(BatchNormLayer("bn" + idx, bp.gamma, bp.beta, bp.running_mean,
                             bp.running_var));
      net.add(SignLayer("sign" + idx, linear_[l].out));
    }
  }
  return net;
}

}  // namespace eb::bnn
