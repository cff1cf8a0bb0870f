#include "device/noise.hpp"

#include <cmath>

#include "common/error.hpp"

namespace eb::dev {

namespace {

// Draws of a Gaussian that is drawn only when its sigma is non-zero.
std::size_t gaussian_draws(double sigma) {
  return sigma == 0.0 ? 0 : RngStream::kGaussianDraws;
}

}  // namespace

GaussianReadNoise::GaussianReadNoise(double sigma_fraction)
    : sigma_fraction_(sigma_fraction) {
  EB_REQUIRE(sigma_fraction >= 0.0, "noise sigma must be non-negative");
}

double GaussianReadNoise::apply(double x, double full_scale, RngStream& rng) const {
  if (sigma_fraction_ == 0.0) {
    return x;
  }
  return x + rng.gaussian(0.0, sigma_fraction_ * full_scale);
}

std::size_t GaussianReadNoise::draws() const {
  return gaussian_draws(sigma_fraction_);
}

ShotNoise::ShotNoise(double k) : k_(k) {
  EB_REQUIRE(k >= 0.0, "shot noise factor must be non-negative");
}

double ShotNoise::apply(double x, double full_scale, RngStream& rng) const {
  if (k_ == 0.0) {
    return x;
  }
  if (x <= 0.0) {
    rng.discard(RngStream::kGaussianDraws);
    return x;
  }
  return x + rng.gaussian(0.0, k_ * std::sqrt(x * full_scale));
}

std::size_t ShotNoise::draws() const { return gaussian_draws(k_); }

TiaThermalNoise::TiaThermalNoise(double sigma_abs) : sigma_abs_(sigma_abs) {
  EB_REQUIRE(sigma_abs >= 0.0, "thermal sigma must be non-negative");
}

double TiaThermalNoise::apply(double x, double /*full_scale*/,
                              RngStream& rng) const {
  if (sigma_abs_ == 0.0) {
    return x;
  }
  return x + rng.gaussian(0.0, sigma_abs_);
}

std::size_t TiaThermalNoise::draws() const {
  return gaussian_draws(sigma_abs_);
}

void CompositeNoise::add(std::unique_ptr<NoiseModel> m) {
  EB_REQUIRE(m != nullptr, "null noise component");
  parts_.push_back(std::move(m));
}

double CompositeNoise::apply(double x, double full_scale, RngStream& rng) const {
  for (const auto& p : parts_) {
    x = p->apply(x, full_scale, rng);
  }
  return x;
}

std::size_t CompositeNoise::draws() const {
  std::size_t n = 0;
  for (const auto& p : parts_) {
    n += p->draws();
  }
  return n;
}

}  // namespace eb::dev
