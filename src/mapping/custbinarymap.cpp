#include "mapping/custbinarymap.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace eb::map {

BitVec cust_interleave(const BitVec& w) {
  BitVec out(2 * w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    out.set(2 * i, w.get(i));
    out.set(2 * i + 1, !w.get(i));
  }
  return out;
}

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

std::size_t CustBinaryMap::digital_popcount(const BitVec& bits) const {
  // Local 5-bit counters: each covers up to 2^bits - 1 positions; the
  // tree adder then sums the partial counts. The chunking matters only for
  // hardware cost (modeled elsewhere); the arithmetic is exact.
  const std::size_t chunk = (std::size_t{1} << cfg_.counter_bits) - 1;
  std::size_t total = 0;
  for (std::size_t begin = 0; begin < bits.size(); begin += chunk) {
    const std::size_t len = std::min(chunk, bits.size() - begin);
    total += bits.slice(begin, len).popcount();
  }
  return total;
}

std::vector<std::size_t> CustBinaryMap::execute(const BitVec& x,
                                                const dev::NoiseModel& noise,
                                                RngStream& rng,
                                                ThreadPool* pool) const {
  return execute_with_base(x, noise, rng.split(), pool);
}

std::vector<std::vector<std::size_t>> CustBinaryMap::execute_batch(
    const std::vector<BitVec>& inputs, const dev::NoiseModel& noise,
    RngStream& rng, ThreadPool* pool) const {
  // split_bases: per-input streams in input order == the family a serial
  // execute() loop consumes, for any fan-out schedule.
  const std::vector<RngStream> bases = split_bases(rng, inputs.size());
  std::vector<std::vector<std::size_t>> out(inputs.size());
  auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Nested parallelism: each input's crossbar shards land in the same
      // pool its siblings fan out over (parallel_for is re-entrant).
      out[i] = execute_with_base(inputs[i], noise, bases[i], pool);
    }
  };
  if (pool != nullptr && inputs.size() > 1) {
    pool->parallel_for(0, inputs.size(), 1, body);
  } else {
    body(0, inputs.size());
  }
  return out;
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
  for (std::size_t i = 0; i < crossbars_.size(); ++i) {
    crossbars_[i]->set_drift(
        model, t_s,
        base.fork(static_cast<std::uint64_t>(StreamTag::Drift), i, 0));
  }
}

void CustBinaryMap::clear_drift() const {
  for (const auto& xb : crossbars_) {
    xb->clear_drift();
  }
}

std::vector<std::size_t> CustBinaryMap::execute_with_base(
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
          const BitVec xnor_bits = xb.read_row_xnor(
              r, x_tiles[shard.tile], cfg_.v_read, noise, shard_rng);
          partial[r] = digital_popcount(xnor_bits);  // local counters
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
