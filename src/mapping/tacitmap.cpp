#include "mapping/tacitmap.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace eb::map {

namespace {

std::string tiling_suffix(const TacitPartition& part) {
  std::ostringstream os;
  os << " (" << part.row_segments.size() << " seg x " << part.col_tiles.size()
     << " tiles)";
  return os.str();
}

// Builds and programs the partition's crossbars in flat-index order:
// crossbar (s, t), seeded seed + s * tiles + t, holds row segment s of the
// [w ; ~w] stacks of tile t's weight vectors, one vector per column.
template <typename Crossbar, typename Device>
std::vector<std::unique_ptr<Crossbar>> program_crossbars(
    const BitMatrix& weights, const TacitPartition& part,
    xbar::CrossbarDims dims, const Device& device, std::uint64_t seed) {
  const std::size_t n_tiles = part.col_tiles.size();
  std::vector<std::unique_ptr<Crossbar>> crossbars;
  crossbars.reserve(part.crossbars());
  for (std::size_t s = 0; s < part.row_segments.size(); ++s) {
    for (std::size_t t = 0; t < n_tiles; ++t) {
      auto xb =
          std::make_unique<Crossbar>(dims, device, seed + s * n_tiles + t);
      const Range seg = part.row_segments[s];
      const Range tile = part.col_tiles[t];
      for (std::size_t j = 0; j < tile.length; ++j) {
        const BitVec stack = tacit_column_stack(weights.row(tile.begin + j));
        xb->program_column(j, stack.slice(seg.begin, seg.length));
      }
      crossbars.push_back(std::move(xb));
    }
  }
  return crossbars;
}

}  // namespace

BitVec tacit_column_stack(const BitVec& w) {
  return w.concat(w.complemented());
}

BitVec tacit_row_drive(const BitVec& x) {
  return x.concat(x.complemented());
}

// ------------------------------------------------------------ electrical --

TacitMapElectrical::TacitMapElectrical(const BitMatrix& weights,
                                       TacitElectricalConfig cfg)
    : cfg_(cfg),
      part_(TacitPartition::build(weights.cols(), weights.rows(), cfg.dims)),
      crossbars_(program_crossbars<xbar::ElectricalCrossbar>(
          weights, part_, cfg_.dims, cfg_.device, cfg_.seed)) {}

std::vector<std::vector<std::size_t>> TacitMapElectrical::execute_batch(
    std::span<const BitVec> inputs, const dev::NoiseModel& noise,
    RngStream& rng, ThreadPool* pool) const {
  return fan_out_batch(inputs, rng, /*group=*/1, pool,
                       [&](auto x, auto base, auto out) {
                         out[0] = run_input(x[0], noise, base[0], pool);
                       });
}

ExecutorDims TacitMapElectrical::dims() const { return {part_.m, part_.n}; }

std::string TacitMapElectrical::descriptor() const {
  std::ostringstream os;
  os << "tacitmap-electrical " << cfg_.dims.rows << "x" << cfg_.dims.cols
     << tiling_suffix(part_);
  return os.str();
}

void TacitMapElectrical::set_drift(const dev::DriftModel& model, double t_s,
                                   const RngStream& base) const {
  set_drift_each(crossbars_, model, t_s, base);
}

void TacitMapElectrical::clear_drift() const { clear_drift_each(crossbars_); }

std::vector<std::size_t> TacitMapElectrical::run_input(
    const BitVec& x, const dev::NoiseModel& noise, const RngStream& base,
    ThreadPool* pool) const {
  EB_REQUIRE(x.size() == part_.m, "input length must match task m");
  const BitVec drive = tacit_row_drive(x);
  const std::size_t n_tiles = part_.col_tiles.size();
  std::vector<std::size_t> out(part_.n, 0);

  const double i_on = crossbars_.front()->on_current(cfg_.v_read);
  const double i_off = crossbars_.front()->off_current(cfg_.v_read);
  const xbar::Adc adc(cfg_.adc_bits,
                      static_cast<double>(cfg_.dims.rows) * i_on);

  // Per-segment drives and active-row counts, shared read-only by every
  // shard of that segment.
  std::vector<BitVec> seg_drives;
  std::vector<std::size_t> seg_active;
  seg_drives.reserve(part_.row_segments.size());
  seg_active.reserve(part_.row_segments.size());
  for (const Range seg : part_.row_segments) {
    seg_drives.push_back(drive.slice(seg.begin, seg.length));
    seg_active.push_back(seg_drives.back().popcount());
  }

  // One shard per (segment x tile) crossbar step; each draws noise from
  // its own stream forked off the input's pre-split base.
  const CrossbarScheduler scheduler(pool);
  scheduler.run(
      part_.row_segments.size(), n_tiles, base, StreamTag::TacitElectrical,
      /*rep=*/0,
      [&](const Shard& shard, RngStream& shard_rng) {
        const Range tile = part_.col_tiles[shard.tile];
        const std::size_t active = seg_active[shard.segment];
        const auto& xb = *crossbars_[shard.segment * n_tiles + shard.tile];
        const auto currents =
            xb.vmm_currents_bits(seg_drives[shard.segment], cfg_.v_read,
                                 noise, shard_rng, /*t_s=*/0.0, tile.length);
        std::vector<std::size_t> partial(tile.length, 0);
        for (std::size_t j = 0; j < tile.length; ++j) {
          // ADC conversion then digital calibration: the controller knows
          // how many rows it activated, so it can subtract the OFF-current
          // pedestal and divide by the ON/OFF contrast.
          const double analog = adc.dequantize(adc.quantize(currents[j]));
          const double n_on =
              (analog - static_cast<double>(active) * i_off) /
              (i_on - i_off);
          const double clamped =
              std::clamp(n_on, 0.0, static_cast<double>(active));
          partial[j] = static_cast<std::size_t>(std::llround(clamped));
        }
        return partial;
      },
      [&](const Shard& shard, std::vector<std::size_t>&& partial) {
        const Range tile = part_.col_tiles[shard.tile];
        for (std::size_t j = 0; j < tile.length; ++j) {
          out[tile.begin + j] += partial[j];
        }
      });
  return out;
}

// -------------------------------------------------------------- optical --

TacitMapOptical::TacitMapOptical(const BitMatrix& weights,
                                 TacitOpticalConfig cfg)
    : cfg_(cfg),
      part_(TacitPartition::build(weights.cols(), weights.rows(), cfg.dims)) {
  EB_REQUIRE(cfg_.wdm_capacity >= 1, "WDM capacity must be >= 1");
  crossbars_ = program_crossbars<xbar::OpticalCrossbar>(
      weights, part_, cfg_.dims, cfg_.device, cfg_.seed);
}

std::vector<std::vector<std::size_t>> TacitMapOptical::wdm_pass(
    std::span<const BitVec> inputs, const dev::NoiseModel& noise,
    std::span<const RngStream> bases, ThreadPool* pool) const {
  EB_ASSERT(inputs.size() == bases.size(), "one stream base per input");
  for (const auto& x : inputs) {
    EB_REQUIRE(x.size() == part_.m, "input length must match task m");
  }

  const std::size_t n_tiles = part_.col_tiles.size();
  const std::size_t n_channels = inputs.size();
  std::vector<std::vector<std::size_t>> out(
      n_channels, std::vector<std::size_t>(part_.n, 0));

  const phot::Transmitter tx(cfg_.tx, cfg_.wdm_capacity, cfg_.dims.rows);
  const double p_ch = tx.channel_power_mw();
  const double p_on = crossbars_.front()->on_power(p_ch);
  const double p_off = crossbars_.front()->off_power(p_ch);

  // Per-segment drives of the channels that drive the segment at all,
  // with their channel indices and active counts, shared read-only across
  // the shards of each segment. The full 2m-bit drive is built once per
  // channel and then sliced per segment (this runs serially before
  // dispatch, so it must stay off the Amdahl path). A channel whose
  // segment drive is empty contributes nothing there and draws nothing.
  const std::size_t n_segments = part_.row_segments.size();
  std::vector<std::vector<BitVec>> seg_drives(n_segments);
  std::vector<std::vector<std::size_t>> seg_channels(n_segments);
  std::vector<std::vector<std::size_t>> seg_active(n_segments);
  for (std::size_t k = 0; k < n_channels; ++k) {
    const BitVec drive = tacit_row_drive(inputs[k]);
    for (std::size_t s = 0; s < n_segments; ++s) {
      const Range seg = part_.row_segments[s];
      BitVec d = drive.slice(seg.begin, seg.length);
      const std::size_t active = d.popcount();
      if (active == 0) {
        continue;
      }
      seg_drives[s].push_back(std::move(d));
      seg_channels[s].push_back(k);
      seg_active[s].push_back(active);
    }
  }

  // Wavelength channels are physically independent (linear medium), so
  // each channel k of a shard draws its noise from a private stream
  // forked off *its input's* base -- bases[k].fork(tag, shard, 0) -- not
  // from one shared shard stream. A channel's noise sequence is therefore
  // a pure function of its input's base and the shard index: identical
  // whether the input rides a crowded WDM pass or a single-channel one.
  // Each shard reads all its channels in one wdm_powers pass (one sweep
  // of the crossbar's cell table) over the tile's columns, the ones its
  // receivers convert; channel k's stream first noises those column
  // powers, skips the draws of the crossbar's unread columns, then feeds
  // its receiver decodes.
  const CrossbarScheduler scheduler(pool);
  scheduler.run_raw(
      n_segments, n_tiles,
      [&](const Shard& shard) {
        const Range tile = part_.col_tiles[shard.tile];
        const auto& xb = *crossbars_[shard.segment * n_tiles + shard.tile];
        const auto& channels = seg_channels[shard.segment];
        std::vector<std::vector<std::size_t>> partial(
            n_channels, std::vector<std::size_t>(tile.length, 0));
        if (channels.empty()) {
          return partial;
        }
        std::vector<RngStream> ch_rngs;
        std::vector<RngStream*> rngs;
        ch_rngs.reserve(channels.size());  // no reallocation moves a stream
        for (const std::size_t k : channels) {
          ch_rngs.push_back(bases[k].fork(
              static_cast<std::uint64_t>(StreamTag::TacitOptical),
              shard.index, 0));
          rngs.push_back(&ch_rngs.back());
        }
        const auto powers = xb.wdm_powers(seg_drives[shard.segment], p_ch,
                                          noise, rngs, tile.length);
        for (std::size_t i = 0; i < channels.size(); ++i) {
          const phot::Receiver rx(cfg_.rx, seg_active[shard.segment][i], p_on,
                                  p_off);
          auto& counts = partial[channels[i]];
          for (std::size_t j = 0; j < tile.length; ++j) {
            counts[j] = rx.decode_popcount(powers[i * tile.length + j], noise,
                                           ch_rngs[i]);
          }
        }
        return partial;
      },
      [&](const Shard& shard,
          std::vector<std::vector<std::size_t>>&& partial) {
        const Range tile = part_.col_tiles[shard.tile];
        for (std::size_t k = 0; k < n_channels; ++k) {
          for (std::size_t j = 0; j < tile.length; ++j) {
            out[k][tile.begin + j] += partial[k][j];
          }
        }
      });
  return out;
}

std::vector<std::vector<std::size_t>> TacitMapOptical::execute_batch(
    std::span<const BitVec> inputs, const dev::NoiseModel& noise,
    RngStream& rng, ThreadPool* pool) const {
  // Wavelengths first, threads second: each group is one WDM pass -- the
  // hardware's native batch dimension -- and the *passes* fan out across
  // the pool, with each pass's crossbar shards nesting into the same
  // re-entrant pool.
  return fan_out_batch(inputs, rng, cfg_.wdm_capacity, pool,
                       [&](auto xs, auto bases, auto out) {
                         auto counts = wdm_pass(xs, noise, bases, pool);
                         std::move(counts.begin(), counts.end(), out.begin());
                       });
}

ExecutorDims TacitMapOptical::dims() const { return {part_.m, part_.n}; }

std::string TacitMapOptical::descriptor() const {
  std::ostringstream os;
  os << "tacitmap-optical " << cfg_.dims.rows << "x" << cfg_.dims.cols
     << " wdm=" << cfg_.wdm_capacity << tiling_suffix(part_);
  return os.str();
}

void TacitMapOptical::set_drift(const dev::DriftModel& model, double t_s,
                                const RngStream& base) const {
  set_drift_each(crossbars_, model, t_s, base);
}

void TacitMapOptical::clear_drift() const { clear_drift_each(crossbars_); }

}  // namespace eb::map
