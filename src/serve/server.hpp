/// \file
/// \brief Concurrent batch-serving layer over the batched inference engine.
///
/// BatchRunner is a single-caller engine: one thread hands it a whole
/// sample vector and waits. A serving workload is the opposite shape --
/// many callers, one tensor each, latency budgets -- so serve::Server puts
/// a request queue with a *dynamic batching* policy in front of N worker
/// BatchRunners:
///
///     submit(Tensor) -> future<Result>
///     submit_async(Tensor, .., done, cls)        workers (N threads)
///          |                                   +-> BatchRunner --+
///          v                                   |                 |
///     [ one FIFO lane per DeadlineClass ] -----+-> BatchRunner --+-> shared
///       a free worker pops up to max_batch     |                 |   pool
///       queued requests by weighted DRR        +-> BatchRunner --+
///       (default), or closes a batch at
///       max_batch / the end of a fixed window
///
/// Policy details:
///  * Class lanes: the queue holds one FIFO lane per DeadlineClass, and a
///    worker picks every batch's members with weighted deficit round-robin
///    (serve::WeightedDrrQueue, weights ServerConfig::class_weights), so
///    under backlog the classes share batch slots in weight proportion.
///    submit() and a submit_async() that names no class use the
///    interactive lane: a server whose callers name no class is one FIFO.
///    serve::Gateway hands each admitted request to its model's server
///    under the request's class, so this is the only queue a gateway
///    request waits in.
///  * Work-conserving (batching_window_us unset, the default): a free
///    worker pops whatever is queued, up to max_batch, and never waits.
///    A request that finds a worker idle is served at once; batches fill
///    only while every worker is busy, so batch size follows the load
///    (Clipper's adaptive batching, Crankshaw et al., NSDI'17).
///  * Fixed window (batching_window_us set, 0 included): a batch is
///    anchored on the oldest queued request (the oldest lane head) and
///    closes at max_batch or when that request has waited the window,
///    whichever comes first. It holds as many requests as arrived, in any
///    lane, within the anchor's window (at most max_batch), and DRR picks
///    which ones; with one lane these are exactly the requests that
///    arrived within the window. Window 0 therefore means "no coalescing"
///    (every request is served alone), the baseline the load bench
///    compares against, and under sustained overload a batch holds at
///    most ~window/inter-arrival-gap requests. Set a window only to trade
///    light-load latency for fuller batches. queue_capacity and deadlines
///    are the overload backstops under either policy.
///  * Per-request deadlines: a request whose deadline has passed when its
///    batch is formed completes with Status::kDeadlineExceeded (it never
///    occupies GEMM space, and it is never silently dropped).
///  * shutdown() stops admissions, drains the queue (window waits are
///    skipped while draining), and joins the workers; every accepted
///    request's future is fulfilled before shutdown() returns. Submissions
///    after shutdown -- and submissions that find the lanes holding
///    queue_capacity requests -- complete immediately with
///    Status::kRejected.
///
/// All workers share one re-entrant ThreadPool: a batch's layer fan-out
/// and any nested crossbar-shard parallel_for (mapped executors take the
/// same pool) interleave in one task queue instead of oversubscribing the
/// machine with per-worker pools. See docs/SERVING.md for the lifecycle
/// walk-through and a tuning guide.
///
/// The Network handler is bit-exact: every Result::output equals
/// net.forward(input) no matter how requests were coalesced into batches,
/// so serving is loss-free *and* reproducible under any interleaving.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "bnn/batch_runner.hpp"
#include "bnn/network.hpp"
#include "bnn/tensor.hpp"
#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "serve/metrics.hpp"
#include "serve/router.hpp"

namespace eb::serve {

/// Terminal state of a served request. Values are stable: the wire
/// protocol (serve/wire.hpp) carries them as a single byte.
enum class Status : std::uint8_t {
  kOk = 0,            ///< Served; Result::output is valid.
  kDeadlineExceeded,  ///< Expired before its batch was formed.
  kRejected,          ///< Queue full, submitted after shutdown, or the
                      ///< target model is not registered (gateway).
  kInternalError,     ///< The batch handler threw (callback submissions
                      ///< only -- future submissions carry the exception).
  kInvalidArgument,   ///< Malformed request (wire frontend decode).
};

/// Lower-case wire/log name of a Status ("ok", "deadline_exceeded", ...).
[[nodiscard]] const char* to_string(Status s);

/// What a submitted request's future resolves to.
struct Result {
  Status status = Status::kRejected;  ///< Terminal state.
  bnn::Tensor output;        ///< Valid only when status == kOk.
  double queue_us = 0.0;     ///< Submit -> batch formation, microseconds.
  double total_us = 0.0;     ///< Submit -> promise fulfilled, microseconds.
  std::size_t batch_size = 0;  ///< Live requests in the batch served with.

  /// True when the request was served (status == kOk).
  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// A batch executor: maps inputs[i] -> outputs[i] using `pool` for
/// intra-batch parallelism. Must be safe to call concurrently from several
/// worker threads (the Network handler is: const net + re-entrant pool;
/// serve::make_mapped_handler builds one from any map::MappedExecutor).
using BatchHandler = std::function<std::vector<bnn::Tensor>(
    std::span<const bnn::Tensor> inputs, ThreadPool& pool)>;

/// Completion callback alternative to the future API: invoked exactly once
/// per request with its terminal Result -- from a worker thread (served /
/// expired / drained), or inline from submit_async when the request is
/// rejected on admission. Handler exceptions surface as kInternalError
/// (a callback has no exception channel). Keep callbacks cheap and never
/// let them throw: they run on worker threads, where an escaping
/// exception terminates the process. This is the hook the gateway's wire
/// frontend uses to write responses back to sockets.
using Completion = std::function<void(Result)>;

/// Tuning knobs of the dynamic-batching policy and the worker fleet.
struct ServerConfig {
  /// Most requests one batch holds.
  std::size_t max_batch = 64;
  /// Unset: work-conserving -- a free worker takes up to max_batch queued
  /// requests at once and never waits. Set: a fixed window -- a batch
  /// also closes when its oldest member has waited this long, and holds
  /// as many requests as arrived within it (DRR picks which); 0 disables
  /// coalescing (serve singly), the no-batching baseline.
  std::optional<std::uint64_t> batching_window_us;
  /// Worker threads, each forming + executing batches independently.
  std::size_t workers = 2;
  /// Shared pool concurrency for intra-batch fan-out (0 = EB_THREADS /
  /// hardware concurrency, 1 = inline).
  std::size_t pool_threads = 1;
  /// A submission that finds this many requests queued (all lanes
  /// together) completes with kRejected (backpressure instead of
  /// unbounded memory growth).
  std::size_t queue_capacity = 65536;
  /// DRR weight (> 0) of each DeadlineClass lane, indexed by class: under
  /// backlog the lanes share batch slots in these proportions.
  /// serve::Gateway fills them from GatewayConfig::classes.
  std::array<double, kNumClasses> class_weights{1.0, 1.0, 1.0};
  /// Time source for enqueue stamps, deadlines and batching-window waits.
  /// nullptr = eb::Clock::real(). Tests inject an eb::VirtualClock here to
  /// drive window expiry and deadline gates without wall-clock sleeps; the
  /// clock must outlive the server.
  Clock* clock = nullptr;
};

/// The request queue + dynamic batcher + worker fleet.
class Server {
 public:
  /// Serves net.forward bit-exactly via per-worker BatchRunners.
  Server(const bnn::Network& net, ServerConfig cfg = {});
  /// Serves an arbitrary batch function (e.g. a mapped-crossbar executor
  /// wrapped by serve::make_mapped_handler).
  Server(BatchHandler handler, ServerConfig cfg = {});
  /// As above, but all intra-batch work runs on `shared_pool` instead of a
  /// pool this server owns (cfg.pool_threads is ignored). The pool must
  /// outlive the server. serve::Gateway hosts every registered model's
  /// server on one such pool.
  Server(const bnn::Network& net, ThreadPool& shared_pool,
         ServerConfig cfg = {});
  /// Shared-pool custom-handler mode; see above.
  Server(BatchHandler handler, ThreadPool& shared_pool,
         ServerConfig cfg = {});
  /// Graceful: shutdown() if still running.
  ~Server();

  Server(const Server&) = delete;             ///< Owns threads: not copyable.
  Server& operator=(const Server&) = delete;  ///< Owns threads: not copyable.

  /// Enqueue one request on the interactive lane with a deadline in
  /// microseconds from submission (0 = none). Always returns a future that
  /// will be fulfilled: kOk with the output, kDeadlineExceeded, or
  /// kRejected.
  std::future<Result> submit(bnn::Tensor input, std::uint64_t deadline_us = 0);
  /// Callback flavor of submit, on lane `cls`: `done` is invoked exactly
  /// once with the terminal Result (inline when rejected on admission,
  /// from a worker thread otherwise). Handler exceptions become
  /// kInternalError.
  void submit_async(bnn::Tensor input, std::uint64_t deadline_us,
                    Completion done,
                    DeadlineClass cls = DeadlineClass::kInteractive);

  /// Stop admissions, serve everything already queued, join workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Consistent cut of the serving counters and latency distributions.
  [[nodiscard]] MetricsSnapshot metrics() const;
  /// Requests currently queued, all lanes (excludes in-flight batches).
  [[nodiscard]] std::size_t queue_depth() const;
  /// Configuration the server was built with.
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }
  /// The intra-batch pool (owned, or the shared pool passed at
  /// construction); mapped handlers run on it.
  [[nodiscard]] ThreadPool& pool() { return *pool_; }

 private:
  struct Pending {
    bnn::Tensor input;
    std::promise<Result> promise;
    Completion done;  // callback mode when set; promise mode otherwise
    Clock::time_point enqueue;
    Clock::time_point deadline;  // Clock::time_point::max() = none
  };

  void validate_config() const;
  // The injected time source (cfg_.clock or the real clock).
  [[nodiscard]] Clock& clk() const {
    return cfg_.clock != nullptr ? *cfg_.clock : Clock::real();
  }
  // Adds the class lanes, then starts the workers that pop them.
  void start_workers();
  static void fulfil(Pending& r, Result res);
  void worker_loop(std::size_t worker_idx);
  // Wakes the workers an arrival (or a batch remainder) concerns.
  void wake_workers();
  // Pops one batch under the dynamic-batching policy. Returns false when
  // draining and the queue is empty (worker exits).
  bool form_batch(std::vector<Pending>& batch);
  void serve_batch(std::size_t worker_idx, std::vector<Pending> batch);
  std::future<Result> enqueue(bnn::Tensor input, std::uint64_t deadline_us,
                              Completion done, bool want_future,
                              DeadlineClass cls);

  ServerConfig cfg_;
  std::unique_ptr<ThreadPool> owned_pool_;  // null in shared-pool mode
  ThreadPool* pool_;                        // owned_pool_ or the shared one
  BatchHandler handler_;
  // Network mode: one runner per worker, all sharing pool_. Empty in
  // custom-handler mode.
  std::vector<std::unique_ptr<bnn::BatchRunner>> runners_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  WeightedDrrQueue<Pending> queue_;  // lane handle == DeadlineClass index
  bool draining_ = false;
  std::vector<std::thread> workers_;
  std::mutex join_mu_;  // serializes shutdown(); cannot hold mu_ across join
  bool joined_ = false;

  Metrics metrics_;
};

}  // namespace eb::serve
