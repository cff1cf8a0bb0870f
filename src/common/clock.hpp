// Injectable time source for the serving layer.
//
// Everything time-dependent in serve/ -- batching windows, deadlines,
// drift epochs -- reads time through an eb::Clock instead of calling
// std::chrono::steady_clock directly. Production code uses Clock::real()
// (a process-wide singleton over steady_clock); tests inject a
// VirtualClock and drive time explicitly with advance(), so a "50 ms
// batching window" or a "1000 s drift epoch" costs no wall-clock sleep
// and cannot flake on a slow CI runner.
//
// The seam is deliberately tiny: now() plus a wait primitive with
// condition_variable::wait_until semantics (spurious wakeups allowed,
// callers re-check their predicate in a loop -- which every call site
// already does). VirtualClock implements the wait as a short real-time
// poll instead of tracking waiter condition variables: advance() never
// needs to know who is sleeping, and a waiter observes new virtual time
// within ~1 ms of real time. Virtual deadlines are exact -- a waiter can
// only time out when virtual now() actually reached its deadline.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace eb {

// Abstract time source. Implementations must be safe to share across
// threads (the serving layer reads now() from workers and submitters
// concurrently).
class Clock {
 public:
  // Serving code keeps steady_clock's point/duration types, so swapping
  // the source never changes arithmetic or storage.
  using duration = std::chrono::steady_clock::duration;
  using time_point = std::chrono::steady_clock::time_point;

  virtual ~Clock() = default;

  // Current time on this clock.
  [[nodiscard]] virtual time_point now() const = 0;

  // Blocks until `cv` is notified or `deadline` (per this clock) passes,
  // with cv.wait_until semantics: spurious wakeups allowed, `lock` held
  // on return, callers re-check their predicate. Returns cv_status
  // against *this clock's* notion of the deadline.
  virtual std::cv_status wait_until(std::unique_lock<std::mutex>& lock,
                                    std::condition_variable& cv,
                                    time_point deadline) = 0;

  // The process-wide real (steady) clock.
  [[nodiscard]] static Clock& real();
};

// Test clock: time stands still until advance() moves it forward.
// wait_until() polls the real clock at a short period, so sleepers
// observe an advance() from another thread within ~1 ms of real time
// without any waiter registration.
class VirtualClock final : public Clock {
 public:
  // Starts at `start` (steady_clock's epoch by default -- the absolute
  // value never matters, only differences do).
  explicit VirtualClock(time_point start = time_point{})
      : now_(start) {}

  [[nodiscard]] time_point now() const override {
    const std::lock_guard<std::mutex> lock(mu_);
    return now_;
  }

  std::cv_status wait_until(std::unique_lock<std::mutex>& lock,
                            std::condition_variable& cv,
                            time_point deadline) override {
    if (now() >= deadline) {
      return std::cv_status::timeout;
    }
    // Real-time poll backstop instead of waiter bookkeeping: an
    // advance() past `deadline` is observed on the next poll tick.
    cv.wait_for(lock, kPollPeriod);
    return now() >= deadline ? std::cv_status::timeout
                             : std::cv_status::no_timeout;
  }

  // Moves virtual time forward by `d` (never backward).
  void advance(duration d) {
    const std::lock_guard<std::mutex> lock(mu_);
    now_ += d;
  }

  // Convenience: advance by microseconds / whole seconds.
  void advance_us(std::uint64_t us) {
    advance(std::chrono::microseconds(us));
  }
  void advance_s(std::uint64_t s) { advance(std::chrono::seconds(s)); }

 private:
  static constexpr auto kPollPeriod = std::chrono::milliseconds(1);

  mutable std::mutex mu_;
  time_point now_;
};

}  // namespace eb
