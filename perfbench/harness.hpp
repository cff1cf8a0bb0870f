// Measurement harness shared by the benchmark's workloads: process
// counters, load generators with output checking and failure accounting,
// in-memory spans, and the report every workload prints.
//
// The harness sits outside the simulator: it calls only public functions
// of src/ and times them from the outside.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bnn/tensor.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace pb {

using Steady = std::chrono::steady_clock;

/// Command-line settings of one workload process.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< Where model files and traces are written.
};

[[nodiscard]] double seconds_between(Steady::time_point a,
                                     Steady::time_point b);
/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double cpu_seconds();
/// Minor page faults of the whole process so far.
[[nodiscard]] long minor_faults();
/// VmHWM of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Aggregate jiffies from the first line of /proc/stat.
struct CpuTimes {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
[[nodiscard]] CpuTimes read_cpu_times();
/// Share of host CPU time stolen by the hypervisor between two readings.
[[nodiscard]] double steal_pct(const CpuTimes& a, const CpuTimes& b);

/// Nearest-rank quantile, q in [0, 1]; +inf entries sort last.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Poisson arrival offsets (seconds from phase start): n requests at
/// `rate` per second, reproducible from `seed`.
[[nodiscard]] std::vector<double> poisson_schedule(std::size_t n, double rate,
                                                   std::uint64_t seed);

class Tracer;

/// Outcome counts of one phase. Every attempted request ends in exactly
/// one bucket; `mismatch` is a served response whose output differs from
/// the reference.
struct Counts {
  std::string phase;
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t rejected = 0;
  std::size_t invalid = 0;
  std::size_t internal = 0;  ///< kInternalError, or no response at all.
  std::size_t mismatch = 0;
  [[nodiscard]] std::size_t failed() const { return attempted - ok; }
  Counts& operator+=(const Counts& o);
};

/// Every workload repeats set-up + measured phases this many times per
/// run, each round after clearing the kernel autotuner: its picks are
/// timing-based and can differ between set-ups, and other tenants of the
/// host slow some rounds down, so a run samples both several times.
inline constexpr int kRounds = 10;

/// How a metric's per-round values combine into the run's value.
enum class Across {
  kMedian,  ///< Set-up time, serving throughput and CPU: a round's
            ///< set-up and phases are short, so its value is noisy in both
            ///< directions.
  kLowest,  ///< Light-load p50: a round's median over many requests is
            ///< precise, and interference, queueing and a slow kernel
            ///< pick only ever raise it; the calmest round is steadiest.
};

/// Prints one metric's per-round values and combines them.
double across_rounds(const char* name, const std::vector<double>& rounds,
                     Across how);

/// Collects the terminal outcome of each request of one phase. Request i
/// is checked with `check(i, output)`; its latency runs from its due time
/// (the scheduled send time in an open loop, the send time in a closed
/// one) to completion. Thread-safe: completions arrive on serving threads.
class Collector {
 public:
  using Check = std::function<bool(std::size_t, const eb::bnn::Tensor&)>;

  Collector(std::string phase, std::size_t n, Check check);

  void set_due(std::size_t i, Steady::time_point due);
  /// Records request i's terminal state. `out` is the output when status
  /// is kOk. Later completions of the same request are ignored.
  void complete(std::size_t i, eb::serve::Status status,
                const eb::bnn::Tensor* out, double queue_us = 0.0);
  /// Records a span per request as it completes (traced runs).
  void trace_into(Tracer* tracer, std::string span_name);
  /// Blocks until fewer than `window` of the first `sent` requests are
  /// outstanding.
  void wait_inflight_below(std::size_t sent, std::size_t window);
  /// Blocks until every request completed or `timeout` passed; requests
  /// still missing are then counted as internal failures.
  void wait_all(std::chrono::milliseconds timeout);

  [[nodiscard]] Counts counts() const;
  /// Latency per request in microseconds; failures are +inf.
  [[nodiscard]] std::vector<double> latencies_us() const;
  /// Server-reported queue time of each served request.
  [[nodiscard]] std::vector<double> queue_us() const;
  /// Completion time of each served request, seconds after `origin`.
  [[nodiscard]] std::vector<double> done_s(Steady::time_point origin) const;

 private:
  std::string phase_;
  Check check_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Steady::time_point> due_;
  std::vector<Steady::time_point> done_;
  std::vector<double> queue_us_;
  std::vector<std::uint8_t> state_;  // 0 = pending, Status + 1, or kMismatch
  std::size_t completed_ = 0;
  Tracer* tracer_ = nullptr;
  std::string span_name_;
};

/// How an open loop ran: per-request generator lateness and process CPU
/// per request sent, taken over equal-count windows.
struct OpenLoopStats {
  std::vector<double> late_us;
  std::vector<double> cpu_us_per_request;  ///< One value per window.
};

/// Sends request i at start + schedule[i] by calling send(i) from the
/// calling thread, which sleeps until each request is due.
OpenLoopStats run_open_loop(const std::vector<double>& schedule,
                            Collector& col,
                            const std::function<void(std::size_t)>& send);

/// Sends n requests keeping `window` in flight; returns OK responses per
/// second from the first send to the last response.
double run_closed_loop(std::size_t n, std::size_t window, Collector& col,
                       const std::function<void(std::size_t)>& send);

/// A loopback wire client: one pipelined connection, requests written by
/// the caller's thread, responses decoded on a receiver thread and handed
/// to `on_response`.
class WireClient {
 public:
  using Handler = std::function<void(eb::serve::wire::ResponseFrame&)>;
  WireClient(std::uint16_t port, Handler on_response);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Encodes and writes one request frame.
  void send(const eb::serve::wire::RequestFrame& req);

 private:
  void receive_loop();

  int fd_ = -1;
  Handler on_response_;
  std::thread receiver_;
};

/// One recorded span: a layer boundary crossed by one request or batch.
struct Span {
  std::string name;
  double start_us = 0.0;  ///< Since the tracer's epoch.
  double end_us = 0.0;
  long parent = -1;       ///< Index of the enclosing span, -1 = none.
  std::uint64_t id = 0;   ///< Request or batch id shared by its spans.
};

/// In-memory span store, written out once when the run ends.
class Tracer {
 public:
  Tracer();
  /// Opens a span and returns its index.
  long begin(std::string name, long parent, std::uint64_t id);
  void end(long idx);
  /// Records a top-level span whose bounds were measured elsewhere.
  void add(std::string name, Steady::time_point start, Steady::time_point end,
           std::uint64_t id);
  [[nodiscard]] double duration_us(long idx) const;
  /// Span duration minus the time its child spans cover.
  [[nodiscard]] std::vector<double> self_us() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as CSV; returns false when the file cannot be
  /// written.
  bool write_csv(const std::string& path) const;

 private:
  Steady::time_point epoch_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// The end-of-run report: human-readable lines as the run goes, then one
/// JSON line. An untraced run's JSON carries the end-to-end metrics, a
/// traced run's the per-layer ones; both kinds are always printed.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}
  /// An end-to-end metric; `alias` names the same number in the
  /// workload's own vocabulary (printed only).
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& alias = "");
  /// A per-layer metric (traced runs).
  void layer(const std::string& name, double value, const std::string& unit);
  void phase(const Counts& c);
  [[nodiscard]] bool trace() const { return trace_; }
  [[nodiscard]] bool correct() const;
  /// Prints the phase table and the final JSON line.
  void finish() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  void add(std::vector<Metric>& into, const std::string& name, double value,
           const std::string& unit, const std::string& alias);

  bool trace_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<Counts> phases_;
};

/// Prints the kernel autotuner's current picks (noise context: a flip
/// between near-equal kernels moves throughput and set-up time).
void print_autotuner_picks();

/// True when both tensors hold the same shape and the same bytes.
[[nodiscard]] bool same_bytes(const eb::bnn::Tensor& a,
                              const eb::bnn::Tensor& b);

}  // namespace pb
