/// \file
/// \brief Sharded crossbar execution, and the skeleton every mapped
/// executor shares.
///
/// A mapped layer decomposes into a grid of independent crossbar steps:
/// TacitMap runs one VMM per (row segment x column tile) crossbar,
/// CustBinaryMap one row-activation sweep per (row group x width tile).
/// The real hardware executes those steps concurrently -- distinct crossbar
/// tiles and WDM channels operate in parallel -- and the ECore output
/// registers reduce the partial popcounts digitally. CrossbarScheduler is
/// the software analogue: it flattens the grid into shard tasks, fans them
/// out across an eb::ThreadPool, and reduces the partial sums on the
/// calling thread in a fixed order (the adder-tree merge; integer partial
/// sums make the reduction order-invariant anyway).
///
/// The parts of an executor that do not depend on its mapping are written
/// once here, as function templates: the batch fan-out every
/// execute_batch runs (fan_out_batch, over split_bases) and the drift
/// loops over an executor's crossbars (set_drift_each, clear_drift_each).
///
/// Determinism contract: every shard draws read-noise from its own
/// RngStream forked as (tag, shard_index, rep) from a base stream captured
/// before dispatch. Because fork() is a pure function of the base state and
/// the indices, a shard's noise sequence does not depend on which thread
/// runs it or in what order -- mapped execution is bit-identical across
/// pool sizes, including the fully serial pool == nullptr path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/drift.hpp"

namespace eb::map {

/// One stream base per batch input, split off `rng` serially in input
/// order: exactly the family a serial execute() loop would consume, so a
/// batch fan-out scheduled over any pool width stays bit-identical to
/// that loop. fan_out_batch derives every executor's per-input bases
/// through this one helper -- it IS the batch determinism contract, keep
/// it single-sourced.
[[nodiscard]] inline std::vector<RngStream> split_bases(RngStream& rng,
                                                        std::size_t n) {
  std::vector<RngStream> bases;
  bases.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    bases.push_back(rng.split());
  }
  return bases;
}

/// The body of every executor's execute_batch. Splits one stream base per
/// input off `rng` (split_bases), cuts the batch into consecutive groups
/// of at most `group` >= 1 inputs -- one input for the electrical and Cust
/// executors, one WDM pass for the optical one -- and fans the groups out
/// across `pool` (nullptr, or a single group, runs them inline).
/// run_group(xs, bases, out) fills out[k] with the popcounts of xs[k],
/// drawing only from streams derived from bases[k]; its crossbar shards
/// nest into the same re-entrant pool. Returns one popcount row per input,
/// in input order, bit-identical for any pool width and any grouping.
template <typename GroupFn>
[[nodiscard]] std::vector<std::vector<std::size_t>> fan_out_batch(
    std::span<const BitVec> inputs, RngStream& rng, std::size_t group,
    ThreadPool* pool, GroupFn&& run_group) {
  const std::vector<RngStream> bases = split_bases(rng, inputs.size());
  const std::span<const RngStream> base_span(bases);
  std::vector<std::vector<std::size_t>> out(inputs.size());
  const std::span<std::vector<std::size_t>> out_span(out);
  const std::size_t groups = (inputs.size() + group - 1) / group;
  auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      const std::size_t lo = g * group;
      const std::size_t len = std::min(group, inputs.size() - lo);
      run_group(inputs.subspan(lo, len), base_span.subspan(lo, len),
                out_span.subspan(lo, len));
    }
  };
  if (pool != nullptr && groups > 1) {
    pool->parallel_for(0, groups, 1, body);
  } else {
    body(0, groups);
  }
  return out;
}

/// Imposes drift on each of an executor's crossbars: crossbar k forks
/// base.fork(StreamTag::Drift, k, 0), so its factor table is independent
/// of every other crossbar's yet bit-identical for any evaluation order.
template <typename Crossbar>
void set_drift_each(const std::vector<std::unique_ptr<Crossbar>>& crossbars,
                    const dev::DriftModel& model, double t_s,
                    const RngStream& base) {
  for (std::size_t k = 0; k < crossbars.size(); ++k) {
    crossbars[k]->set_drift(
        model, t_s,
        base.fork(static_cast<std::uint64_t>(StreamTag::Drift), k, 0));
  }
}

/// Restores each of an executor's crossbars to its pristine programmed
/// values (an online rewrite).
template <typename Crossbar>
void clear_drift_each(
    const std::vector<std::unique_ptr<Crossbar>>& crossbars) {
  for (const auto& xb : crossbars) {
    xb->clear_drift();
  }
}

/// One independent crossbar step of a segments x tiles grid.
struct Shard {
  std::size_t index = 0;    ///< Flat index == segment * tiles + tile.
  std::size_t segment = 0;  ///< Row segment (TacitMap) / row group (Cust).
  std::size_t tile = 0;     ///< Column tile (TacitMap) / width tile (Cust).
};

/// Fans a (segments x tiles) shard grid across a ThreadPool and reduces
/// the per-shard partial results deterministically on the calling thread.
class CrossbarScheduler {
 public:
  /// `pool` may be nullptr: shards then execute inline on the calling
  /// thread, in flat-index order, with the very same forked streams the
  /// parallel path uses.
  explicit CrossbarScheduler(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// Executes shard_fn(shard, rng) for every shard of the grid, each with
  /// its private stream base.fork(tag, shard.index, rep), then feeds the
  /// partial results to reduce(shard, partial) in flat-index order on the
  /// calling thread. shard_fn must be safe to call concurrently on
  /// distinct shards (const crossbar reads + private rng).
  template <typename ShardFn, typename ReduceFn>
  void run(std::size_t segments, std::size_t tiles, const RngStream& base,
           StreamTag tag, std::uint64_t rep, ShardFn&& shard_fn,
           ReduceFn&& reduce) const {
    run_raw(
        segments, tiles,
        [&](const Shard& shard) {
          RngStream rng =
              base.fork(static_cast<std::uint64_t>(tag), shard.index, rep);
          return shard_fn(shard, rng);
        },
        std::forward<ReduceFn>(reduce));
  }

  /// Stream-agnostic variant: shard_fn(shard) owns its stream derivation.
  /// The WDM executor uses this -- a shard there serves several wavelength
  /// channels, each drawing from a fork of its *input's* base stream
  /// rather than from one per-shard stream, so batch tiling cannot change
  /// a channel's noise sequence.
  template <typename ShardFn, typename ReduceFn>
  void run_raw(std::size_t segments, std::size_t tiles, ShardFn&& shard_fn,
               ReduceFn&& reduce) const {
    using Partial =
        std::decay_t<std::invoke_result_t<ShardFn&, const Shard&>>;
    const std::size_t n_shards = segments * tiles;
    if (n_shards == 0) {
      return;
    }
    std::vector<Partial> partials(n_shards);
    auto body = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        partials[i] = shard_fn(Shard{i, i / tiles, i % tiles});
      }
    };
    if (pool_ != nullptr && n_shards > 1) {
      pool_->parallel_for(0, n_shards, 1, body);
    } else {
      body(0, n_shards);
    }
    for (std::size_t i = 0; i < n_shards; ++i) {
      reduce(Shard{i, i / tiles, i % tiles}, std::move(partials[i]));
    }
  }

 private:
  ThreadPool* pool_;
};

}  // namespace eb::map
