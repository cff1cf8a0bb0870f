#include "mapping/custbinarymap.hpp"

#include <sstream>

#include "common/error.hpp"

namespace eb::map {

CustBinaryMap::CustBinaryMap(const BitMatrix& weights, CustBinaryConfig cfg)
    : cfg_(cfg),
      part_(CustPartition::build(weights.cols(), weights.rows(), cfg.rows,
                                 cfg.pairs)) {
  const std::size_t n_tiles = part_.width_tiles.size();
  crossbars_.reserve(part_.crossbars());
  for (std::size_t g = 0; g < part_.row_groups.size(); ++g) {
    for (std::size_t t = 0; t < n_tiles; ++t) {
      auto xb = std::make_unique<xbar::DifferentialCrossbar>(
          cfg_.rows, cfg_.pairs, cfg_.device, cfg_.seed + g * n_tiles + t);
      const Range group = part_.row_groups[g];
      const Range tile = part_.width_tiles[t];
      for (std::size_t r = 0; r < group.length; ++r) {
        for (std::size_t p = 0; p < tile.length; ++p) {
          xb->program_pair(r, p, weights.get(group.begin + r, tile.begin + p));
        }
      }
      crossbars_.push_back(std::move(xb));
    }
  }
}

std::vector<std::vector<std::size_t>> CustBinaryMap::execute_batch(
    std::span<const BitVec> inputs, const dev::NoiseModel& noise,
    RngStream& rng, ThreadPool* pool) const {
  return fan_out_batch(inputs, rng, /*group=*/1, pool,
                       [&](auto x, auto base, auto out) {
                         out[0] = run_input(x[0], noise, base[0], pool);
                       });
}

ExecutorDims CustBinaryMap::dims() const { return {part_.m, part_.n}; }

std::string CustBinaryMap::descriptor() const {
  std::ostringstream os;
  os << "custbinarymap " << cfg_.rows << "x" << cfg_.pairs << " ("
     << part_.row_groups.size() << " grp x " << part_.width_tiles.size()
     << " tiles)";
  return os.str();
}

void CustBinaryMap::set_drift(const dev::DriftModel& model, double t_s,
                              const RngStream& base) const {
  set_drift_each(crossbars_, model, t_s, base);
}

void CustBinaryMap::clear_drift() const { clear_drift_each(crossbars_); }

std::vector<std::size_t> CustBinaryMap::run_input(
    const BitVec& x, const dev::NoiseModel& noise, const RngStream& base,
    ThreadPool* pool) const {
  EB_REQUIRE(x.size() == part_.m, "input length must match task m");
  const std::size_t n_tiles = part_.width_tiles.size();
  std::vector<std::size_t> out(part_.n, 0);

  // Per-tile input slices, shared read-only by every shard of that tile.
  std::vector<BitVec> x_tiles;
  x_tiles.reserve(n_tiles);
  for (const Range tile : part_.width_tiles) {
    x_tiles.push_back(x.slice(tile.begin, tile.length));
  }

  // One shard per (row group x width tile) crossbar. Row activation
  // within a shard stays sequential (the n-step cost the paper
  // highlights); distinct crossbars run concurrently, and the tree-based
  // global popcount merging width tiles becomes the reduction step.
  const CrossbarScheduler scheduler(pool);
  scheduler.run(
      part_.row_groups.size(), n_tiles, base, StreamTag::CustBinary,
      /*rep=*/0,
      [&](const Shard& shard, RngStream& shard_rng) {
        const Range group = part_.row_groups[shard.segment];
        const auto& xb =
            *crossbars_[shard.segment * n_tiles + shard.tile];
        std::vector<std::size_t> partial(group.length, 0);
        for (std::size_t r = 0; r < group.length; ++r) {
          // The PCSAs' XNOR bits, summed by the local counters.
          partial[r] = xb.read_row_xnor(r, x_tiles[shard.tile], cfg_.v_read,
                                        noise, shard_rng)
                           .popcount();
        }
        return partial;
      },
      [&](const Shard& shard, std::vector<std::size_t>&& partial) {
        const Range group = part_.row_groups[shard.segment];
        for (std::size_t r = 0; r < group.length; ++r) {
          out[group.begin + r] += partial[r];
        }
      });
  return out;
}

}  // namespace eb::map
