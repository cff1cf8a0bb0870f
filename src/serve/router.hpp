/// \file
/// \brief Deadline classes and the weighted-deficit round-robin scheduler
/// behind serve::Server's per-class lanes.
///
/// Two pieces live here, both deliberately free of threads so they can be
/// unit-tested deterministically:
///
///  * DeadlineClass / ClassConfig -- the three service classes every
///    gateway request is admitted under (interactive | batch |
///    besteffort), each with a scheduling weight, a default deadline and a
///    capacity partition of the gateway's admitted requests.
///  * WeightedDrrQueue<Item> -- a deficit round-robin (DRR) scheduler
///    (Shreedhar & Varghese, SIGCOMM'95) over a fixed set of FIFO lanes.
///    Each lane accrues credit in proportion to its weight; one pop costs
///    one credit, so under sustained backlog the pop stream interleaves
///    lanes in weight proportion (weights 3:1 => 3 pops from the first per
///    1 from the second, the property the gateway fairness test and the
///    gateway_load CI gate pin down). Empty lanes forfeit their credit:
///    idle lanes must not bank it, the classic DRR rule. serve::Server
///    keeps one lane per DeadlineClass and forms every batch by popping it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace eb::serve {

/// Service class a gateway request is admitted under. Values are stable:
/// the wire protocol (serve/wire.hpp) carries them as a single byte.
enum class DeadlineClass : std::uint8_t {
  kInteractive = 0,  ///< Latency-sensitive; highest weight, tight deadline.
  kBatch,            ///< Throughput traffic; mid weight, loose deadline.
  kBestEffort,       ///< Scavenger; lowest weight, no default deadline.
};

/// Number of deadline classes (array extents, wire validation).
inline constexpr std::size_t kNumClasses = 3;

/// Lower-case wire/log name ("interactive", "batch", "besteffort").
[[nodiscard]] const char* to_string(DeadlineClass c);

/// Inverse of to_string; throws eb::Error on an unknown name.
[[nodiscard]] DeadlineClass parse_deadline_class(const std::string& name);

/// Per-class admission policy of a gateway.
struct ClassConfig {
  /// Scheduling weight (> 0): under saturation the class receives this
  /// share of each model's batch slots relative to the other classes'
  /// weights (the weight of the class's lane in every model server).
  double weight = 1.0;
  /// Deadline applied to requests submitted without an explicit one;
  /// 0 = none. Measured from gateway admission (end to end).
  std::uint64_t default_deadline_us = 0;
  /// The class's partition of the gateway's admission capacity: requests
  /// of this class admitted and not yet completed (across all models)
  /// beyond which submissions complete with kRejected.
  std::size_t queue_capacity = 4096;
};

/// The default class table: interactive 4x / 100 ms, batch 2x / 1 s,
/// besteffort 1x / no deadline.
[[nodiscard]] std::array<ClassConfig, kNumClasses> default_class_configs();

/// Deficit round-robin over a fixed set of FIFO queues (lanes). Not
/// internally locked -- serve::Server calls it under its queue mutex.
template <typename Item>
class WeightedDrrQueue {
 public:
  /// Appends a lane with scheduling weight `weight` (> 0); returns its
  /// handle (handles count up from 0 in add order).
  std::size_t add_queue(double weight) {
    EB_REQUIRE(weight > 0.0, "DRR queue weight must be > 0");
    queues_.push_back(Q{{}, weight, 0.0});
    return queues_.size() - 1;
  }

  /// Appends to lane `h` (FIFO within a lane).
  void push(std::size_t h, Item item) {
    at(h).items.push_back(std::move(item));
    ++total_;
  }

  [[nodiscard]] std::size_t size(std::size_t h) const {
    return at(h).items.size();
  }
  [[nodiscard]] std::size_t total_size() const { return total_; }
  /// Lane `h`'s items, oldest first.
  [[nodiscard]] const std::deque<Item>& items(std::size_t h) const {
    return at(h).items;
  }

  /// Pops the next item under DRR among non-empty lanes. Returns the
  /// (handle, item) pair, or nullopt when every lane is empty.
  std::optional<std::pair<std::size_t, Item>> pop_next() {
    if (total_ == 0) {
      return std::nullopt;
    }
    const std::size_t n = queues_.size();
    for (;;) {
      // Serve the first lane (from the cursor) that holds a full credit.
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t h = (cursor_ + i) % n;
        Q& q = queues_[h];
        if (q.items.empty()) {
          q.deficit = 0.0;  // idle lanes do not bank credit
          continue;
        }
        if (q.deficit >= 1.0) {
          Item item = std::move(q.items.front());
          q.items.pop_front();
          q.deficit -= 1.0;
          --total_;
          // Keep draining this lane while it holds another full credit;
          // once it does not, the next scan starts past it, so no lane is
          // served twice across a grant round.
          cursor_ = q.deficit >= 1.0 ? h : (h + 1) % n;
          return std::make_pair(h, std::move(item));
        }
      }
      // Grant round: no lane had a full credit. Top every backlogged lane
      // up by the smallest whole number of weight-quanta that pushes at
      // least one of them over 1.0. (One grant suffices when weights are
      // >= 1; fractional weights may need several quanta, hence the
      // explicit k.)
      double k = std::numeric_limits<double>::infinity();
      for (const Q& q : queues_) {
        if (!q.items.empty()) {
          k = std::min(k, (1.0 - q.deficit) / q.weight);
        }
      }
      const double quanta = std::max(1.0, std::ceil(k));
      for (Q& q : queues_) {
        if (!q.items.empty()) {
          q.deficit += quanta * q.weight;
        }
      }
    }
  }

 private:
  struct Q {
    std::deque<Item> items;
    double weight = 1.0;
    double deficit = 0.0;
  };

  [[nodiscard]] Q& at(std::size_t h) {
    EB_REQUIRE(h < queues_.size(), "bad DRR queue handle");
    return queues_[h];
  }
  [[nodiscard]] const Q& at(std::size_t h) const {
    EB_REQUIRE(h < queues_.size(), "bad DRR queue handle");
    return queues_[h];
  }

  // A deque, not a vector: appending never relocates a lane, so Item may
  // be move-only (std::deque's move constructor is not noexcept, and a
  // vector of lanes would try to copy them on reallocation).
  std::deque<Q> queues_;
  std::size_t cursor_ = 0;
  std::size_t total_ = 0;
};

}  // namespace eb::serve
