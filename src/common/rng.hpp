// Deterministic, splittable random number generation.
//
// Every stochastic component (device variability, noise models, synthetic
// datasets, weight init) takes an eb::RngStream by reference so experiments
// are reproducible from a single seed. RngStream is a *counter-based*
// generator (SplitMix64-style mixing over a keyed counter) rather than a
// big-state engine, which buys two properties the sharded crossbar
// scheduler depends on:
//
//  * fork(layer, shard, rep) derives an independent substream purely from
//    the parent's state and the three indices -- no draws from the parent,
//    no shared mutable state -- so every (row-segment x column-tile) shard
//    and every Monte-Carlo repetition can own a private stream whose
//    output is independent of scheduling order and thread count;
//  * split() derives a child stream while advancing the parent by exactly
//    one counter tick, so successive calls (e.g. one per execute()) yield
//    distinct stream families deterministically.
//
// RngStream satisfies UniformRandomBitGenerator, so std::shuffle and the
// std distributions accept it directly; the distribution helpers below are
// hand-rolled (Box-Muller etc.) so a stream's output sequence is a pure
// function of its draws on every platform.
//
// `Rng` remains the name most call sites use; it is an alias for RngStream.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace eb {

// Registry of stream-derivation tags: every subsystem that forks
// substreams (fork(tag, shard, rep)) uses a distinct tag so equal shard
// indices in different contexts never name the same stream. Mint new
// tags here, not at the call site.
enum class StreamTag : std::uint64_t {
  TacitElectrical = 0xE1,
  TacitOptical = 0x09,
  CustBinary = 0xCB,
  NoiseMonteCarlo = 0x4C,
  Drift = 0xD4,
};

class RngStream {
 public:
  using result_type = std::uint64_t;

  explicit RngStream(std::uint64_t seed = 0xEB5EEDULL) { this->seed(seed); }

  // Re-seed in place (e.g. per-test determinism).
  void seed(std::uint64_t s) {
    key_ = mix64(s + kGolden);
    ctr_ = 0;
  }

  // ---- UniformRandomBitGenerator interface (std::shuffle et al.) ----
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

  // Raw 64 random bits (for packed bit-vector generation).
  [[nodiscard]] std::uint64_t bits64() { return next(); }

  // Skips n draws in O(1): the stream ends where n bits64() calls would
  // leave it.
  void discard(std::uint64_t n) { ctr_ += n * kGolden; }

  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return lo + (hi - lo) * to_unit(next());
  }

  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    // Modular span arithmetic keeps hi - lo well-defined for any pair;
    // span == 0 encodes the full 2^64 range.
    const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                               static_cast<std::uint64_t>(lo) + 1;
    const std::uint64_t draw = next();
    if (span == 0) {
      return static_cast<std::int64_t>(draw);
    }
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     draw % span);
  }

  // Draws one gaussian() call takes.
  static constexpr std::uint64_t kGaussianDraws = 2;

  // Gaussian with the given mean / stddev (Box-Muller, kGaussianDraws
  // draws per call).
  [[nodiscard]] double gaussian(double mean = 0.0, double stddev = 1.0) {
    // u1 in (0, 1] keeps the log finite; u2 in [0, 1).
    const double u1 =
        static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
    const double u2 = to_unit(next());
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
  }

  // Log-normal: exp(N(mu, sigma)). Used for device conductance spread.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::exp(gaussian(mu, sigma));
  }

  // Bernoulli coin with probability p of true.
  [[nodiscard]] bool bernoulli(double p = 0.5) { return uniform() < p; }

  // Access to the underlying engine for std::shuffle et al. (RngStream is
  // its own engine).
  [[nodiscard]] RngStream& engine() { return *this; }

  // ---- splittable-stream interface ----

  // Derives the substream identified by (layer, shard, rep) purely from
  // this stream's current state -- the parent is NOT advanced, so any
  // number of shards can fork from one snapshot concurrently and two
  // distinct index triples always name distinct streams. This is the
  // per-shard / per-repetition discipline of the CrossbarScheduler.
  [[nodiscard]] RngStream fork(std::uint64_t layer, std::uint64_t shard,
                               std::uint64_t rep) const {
    std::uint64_t k = mix64(key_ ^ mix64(ctr_ + kGolden));
    k = mix64(k ^ mix64(layer + 1 * kGolden));
    k = mix64(k ^ mix64(shard + 2 * kGolden));
    k = mix64(k ^ mix64(rep + 3 * kGolden));
    return RngStream(k, 0);
  }

  // Derives a child stream AND advances this stream by one draw, so
  // consecutive split() calls (e.g. one per mapped execute()) produce
  // distinct, deterministic stream families.
  [[nodiscard]] RngStream split() {
    return RngStream(mix64(key_ ^ mix64(next())), 0);
  }

 private:
  RngStream(std::uint64_t key, std::uint64_t ctr) : key_(key), ctr_(ctr) {}

  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

  // SplitMix64 finalizer: a bijective avalanche mix.
  [[nodiscard]] static constexpr std::uint64_t mix64(std::uint64_t z) {
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z;
  }

  [[nodiscard]] std::uint64_t next() {
    ctr_ += kGolden;
    return mix64(key_ + ctr_);
  }

  // 53-bit mantissa fraction in [0, 1).
  [[nodiscard]] static double to_unit(std::uint64_t u) {
    return static_cast<double>(u >> 11) * 0x1.0p-53;
  }

  std::uint64_t key_ = 0;
  std::uint64_t ctr_ = 0;
};

// Historical name used throughout the library.
using Rng = RngStream;

}  // namespace eb
