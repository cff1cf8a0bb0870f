// Composable read-noise models.
//
// The paper's motivation (section II-C, citing Cardoso DATE'23) is that
// high-frequency readout in photonic CIM is noisy, and binary PCM states
// tolerate that noise where multi-level states do not. These models feed
// the crossbar read path and the multilevel-robustness ablation bench.
//
// Conventions: a NoiseModel perturbs an analog readout value `x` whose
// full-scale range is `full_scale` (same unit as x). All draws go through
// the caller-provided RngStream for reproducibility -- under the sharded
// crossbar scheduler each (segment x tile) shard passes its own forked
// substream, which is what keeps noisy runs bit-identical across thread
// counts.
//
// Every apply() takes exactly draws() 64-bit draws from its stream,
// whatever x is, so a reader that leaves values unread can skip their
// draws with RngStream::discard and keep every later draw in place.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace eb::dev {

class NoiseModel {
 public:
  virtual ~NoiseModel() = default;

  // Returns the perturbed readout value.
  [[nodiscard]] virtual double apply(double x, double full_scale,
                                     RngStream& rng) const = 0;

  // The number of 64-bit draws one apply() takes, the same for every x.
  [[nodiscard]] virtual std::size_t draws() const = 0;
};

// No perturbation (ideal readout).
class NoNoise final : public NoiseModel {
 public:
  [[nodiscard]] double apply(double x, double /*full_scale*/,
                             RngStream& /*rng*/) const override {
    return x;
  }

  [[nodiscard]] std::size_t draws() const override { return 0; }
};

// Additive Gaussian noise with sigma expressed as a fraction of full scale
// (e.g. 0.01 = 1% of full scale). The generic "read noise" knob.
class GaussianReadNoise final : public NoiseModel {
 public:
  explicit GaussianReadNoise(double sigma_fraction);

  [[nodiscard]] double apply(double x, double full_scale,
                             RngStream& rng) const override;
  [[nodiscard]] std::size_t draws() const override;

  [[nodiscard]] double sigma_fraction() const { return sigma_fraction_; }

 private:
  double sigma_fraction_;
};

// Photodetector shot noise: variance proportional to the signal level,
// sigma = k * sqrt(x * full_scale). Dominant at high optical readout rates.
// A signal x <= 0 is returned unchanged, but its Gaussian's draws are
// still taken, so the draw count does not depend on the power read.
class ShotNoise final : public NoiseModel {
 public:
  explicit ShotNoise(double k);

  [[nodiscard]] double apply(double x, double full_scale,
                             RngStream& rng) const override;
  [[nodiscard]] std::size_t draws() const override;

 private:
  double k_;
};

// TIA input-referred thermal (Johnson) noise: additive Gaussian with an
// absolute sigma independent of the signal.
class TiaThermalNoise final : public NoiseModel {
 public:
  explicit TiaThermalNoise(double sigma_abs);

  [[nodiscard]] double apply(double x, double /*full_scale*/,
                             RngStream& rng) const override;
  [[nodiscard]] std::size_t draws() const override;

 private:
  double sigma_abs_;
};

// Sum of component noise sources applied in sequence; draws() is the sum
// of the components' draws.
class CompositeNoise final : public NoiseModel {
 public:
  void add(std::unique_ptr<NoiseModel> m);

  [[nodiscard]] double apply(double x, double full_scale,
                             RngStream& rng) const override;
  [[nodiscard]] std::size_t draws() const override;

  [[nodiscard]] std::size_t components() const { return parts_.size(); }

 private:
  std::vector<std::unique_ptr<NoiseModel>> parts_;
};

}  // namespace eb::dev
