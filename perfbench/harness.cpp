#include "harness.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bnn/autotune.hpp"
#include "common/rng.hpp"

namespace pb {

namespace wire = eb::serve::wire;
using eb::serve::Status;

double seconds_between(Steady::time_point a, Steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

long minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    unsigned long long v = 0;
    if (!(in >> v)) {
      break;
    }
    t.total += v;
    if (field == 7) {
      t.steal = v;
    }
  }
  return t;
}

double steal_pct(const CpuTimes& a, const CpuTimes& b) {
  const double total = static_cast<double>(b.total - a.total);
  return total > 0.0 ? 100.0 * static_cast<double>(b.steal - a.steal) / total
                     : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

std::vector<double> poisson_schedule(std::size_t n, double rate,
                                     std::uint64_t seed) {
  eb::RngStream rng(seed);
  std::vector<double> t(n);
  double now = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    now += -std::log(1.0 - rng.uniform()) / rate;
    t[i] = now;
  }
  return t;
}

Counts& Counts::operator+=(const Counts& o) {
  attempted += o.attempted;
  ok += o.ok;
  deadline_exceeded += o.deadline_exceeded;
  rejected += o.rejected;
  invalid += o.invalid;
  internal += o.internal;
  mismatch += o.mismatch;
  return *this;
}

double across_rounds(const char* name, const std::vector<double>& rounds,
                     Across how) {
  std::printf("  rounds %-18s", name);
  for (const double v : rounds) {
    std::printf(" %.4g", v);
  }
  std::printf("\n");
  return how == Across::kMedian
             ? median(rounds)
             : *std::min_element(rounds.begin(), rounds.end());
}

// ------------------------------------------------------------ Collector --

namespace {
constexpr std::uint8_t kMismatch = 0xFF;
}

Collector::Collector(std::string phase, std::size_t n, Check check)
    : phase_(std::move(phase)),
      check_(std::move(check)),
      due_(n),
      done_(n),
      queue_us_(n, 0.0),
      state_(n, 0) {}

void Collector::set_due(std::size_t i, Steady::time_point due) {
  const std::lock_guard<std::mutex> lock(mu_);
  due_[i] = due;
}

void Collector::complete(std::size_t i, Status status,
                         const eb::bnn::Tensor* out, double queue_us) {
  const auto now = Steady::now();
  std::uint8_t code = static_cast<std::uint8_t>(status) + 1;
  if (status == Status::kOk && (out == nullptr || !check_(i, *out))) {
    code = kMismatch;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (i >= state_.size() || state_[i] != 0) {
    return;
  }
  state_[i] = code;
  done_[i] = now;
  queue_us_[i] = queue_us;
  ++completed_;
  if (tracer_ != nullptr) {
    tracer_->add(span_name_, due_[i], now, i);
  }
  cv_.notify_all();
}

void Collector::trace_into(Tracer* tracer, std::string span_name) {
  const std::lock_guard<std::mutex> lock(mu_);
  tracer_ = tracer;
  span_name_ = std::move(span_name);
}

void Collector::wait_inflight_below(std::size_t sent, std::size_t window) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return sent - completed_ < window; });
}

void Collector::wait_all(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return completed_ == state_.size(); });
}

Counts Collector::counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Counts c;
  c.phase = phase_;
  c.attempted = state_.size();
  for (const std::uint8_t s : state_) {
    if (s == kMismatch) {
      ++c.mismatch;
      continue;
    }
    if (s == 0) {  // never answered
      ++c.internal;
      continue;
    }
    switch (static_cast<Status>(s - 1)) {
      case Status::kOk:
        ++c.ok;
        break;
      case Status::kDeadlineExceeded:
        ++c.deadline_exceeded;
        break;
      case Status::kRejected:
        ++c.rejected;
        break;
      case Status::kInvalidArgument:
        ++c.invalid;
        break;
      case Status::kInternalError:
        ++c.internal;
        break;
    }
  }
  return c;
}

std::vector<double> Collector::latencies_us() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out(state_.size(),
                          std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (state_[i] == static_cast<std::uint8_t>(Status::kOk) + 1) {
      out[i] = 1e6 * seconds_between(due_[i], done_[i]);
    }
  }
  return out;
}

std::vector<double> Collector::queue_us() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (state_[i] == static_cast<std::uint8_t>(Status::kOk) + 1) {
      out.push_back(queue_us_[i]);
    }
  }
  return out;
}

std::vector<double> Collector::done_s(Steady::time_point origin) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (state_[i] == static_cast<std::uint8_t>(Status::kOk) + 1) {
      out.push_back(seconds_between(origin, done_[i]));
    }
  }
  return out;
}

// ------------------------------------------------------ load generators --

namespace {
// Windows per open-loop phase over which CPU per request is taken; their
// median discounts a stall that hits one part of a phase.
constexpr std::size_t kWindows = 10;
}  // namespace

OpenLoopStats run_open_loop(const std::vector<double>& schedule,
                            Collector& col,
                            const std::function<void(std::size_t)>& send) {
  // Wake-ups land within a few microseconds of the deadline instead of
  // the default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  OpenLoopStats st;
  const std::size_t n = schedule.size();
  st.late_us.resize(n);
  const auto start = Steady::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    col.set_due(i, start + std::chrono::duration_cast<Steady::duration>(
                               std::chrono::duration<double>(schedule[i])));
  }
  const std::size_t per_window = std::max<std::size_t>(1, n / kWindows);
  double cpu_mark = cpu_seconds();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = start + std::chrono::duration_cast<Steady::duration>(
                                 std::chrono::duration<double>(schedule[i]));
    std::this_thread::sleep_until(due);
    st.late_us[i] = 1e6 * seconds_between(due, Steady::now());
    send(i);
    if ((i + 1) % per_window == 0) {
      const double now_cpu = cpu_seconds();
      st.cpu_us_per_request.push_back(1e6 * (now_cpu - cpu_mark) /
                                      static_cast<double>(per_window));
      cpu_mark = now_cpu;
    }
  }
  return st;
}

double run_closed_loop(std::size_t n, std::size_t window, Collector& col,
                       const std::function<void(std::size_t)>& send) {
  const auto origin = Steady::now();
  for (std::size_t i = 0; i < n; ++i) {
    col.wait_inflight_below(i, window);
    col.set_due(i, Steady::now());
    send(i);
  }
  col.wait_all(std::chrono::seconds(60));
  const std::vector<double> done = col.done_s(origin);
  const double last = done.empty() ? 0.0 : *std::max_element(done.begin(), done.end());
  return last > 0.0 ? static_cast<double>(done.size()) / last : 0.0;
}

// ----------------------------------------------------------- WireClient --

WireClient::WireClient(std::uint16_t port, Handler on_response)
    : on_response_(std::move(on_response)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() to loopback frontend failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  receiver_ = std::thread([this] { receive_loop(); });
}

WireClient::~WireClient() {
  ::shutdown(fd_, SHUT_RDWR);
  receiver_.join();
  ::close(fd_);
}

void WireClient::send(const wire::RequestFrame& req) {
  const std::vector<std::uint8_t> bytes = wire::encode_request(req);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t k =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      throw std::runtime_error("send() on loopback connection failed");
    }
    off += static_cast<std::size_t>(k);
  }
}

void WireClient::receive_loop() {
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  std::size_t have = 0;
  for (;;) {
    if (have == buf.size()) {
      buf.resize(buf.size() * 2);
    }
    const ssize_t k = ::recv(fd_, buf.data() + have, buf.size() - have, 0);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      return;  // closed by the destructor (or the peer)
    }
    have += static_cast<std::size_t>(k);
    std::size_t off = 0;
    for (;;) {
      wire::ResponseFrame resp;
      std::size_t used = 0;
      const auto st =
          wire::decode_response(buf.data() + off, have - off, resp, used);
      if (st == wire::DecodeStatus::kNeedMoreData) {
        break;
      }
      if (st != wire::DecodeStatus::kOk) {
        std::fprintf(stderr, "wire client: undecodable response (%s)\n",
                     wire::to_string(st));
        return;
      }
      off += used;
      on_response_(resp);
    }
    std::memmove(buf.data(), buf.data() + off, have - off);
    have -= off;
  }
}

// --------------------------------------------------------------- Tracer --

Tracer::Tracer() : epoch_(Steady::now()) {}

long Tracer::begin(std::string name, long parent, std::uint64_t id) {
  const double t = 1e6 * seconds_between(epoch_, Steady::now());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), t, t, parent, id});
  return static_cast<long>(spans_.size()) - 1;
}

void Tracer::end(long idx) {
  const double t = 1e6 * seconds_between(epoch_, Steady::now());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(idx)].end_us = t;
}

void Tracer::add(std::string name, Steady::time_point start,
                 Steady::time_point end, std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), 1e6 * seconds_between(epoch_, start),
                    1e6 * seconds_between(epoch_, end), -1, id});
}

double Tracer::duration_us(long idx) const {
  const Span& s = spans_[static_cast<std::size_t>(idx)];
  return s.end_us - s.start_us;
}

std::vector<double> Tracer::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    }
  }
  return self;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "index,parent,id,name,start_us,end_us\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line), "%zu,%ld,%llu,%s,%.3f,%.3f\n", i,
                  s.parent, static_cast<unsigned long long>(s.id),
                  s.name.c_str(), s.start_us, s.end_us);
    out << line;
  }
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- Report --

void Report::add(std::vector<Metric>& into, const std::string& name,
                 double value, const std::string& unit,
                 const std::string& alias) {
  for (const Metric& m : into) {
    if (m.name == name) {
      throw std::logic_error("metric reported twice: " + name);
    }
  }
  into.push_back({name, value, unit});
  std::printf("  %-26s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
              alias.empty() ? "" : ("(" + alias + ")").c_str());
  std::fflush(stdout);
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, const std::string& alias) {
  add(e2e_, name, value, unit, alias);
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  add(layer_, name, value, unit, "");
}

void Report::phase(const Counts& c) { phases_.push_back(c); }

bool Report::correct() const {
  return std::all_of(phases_.begin(), phases_.end(),
                     [](const Counts& c) { return c.mismatch == 0; });
}

void Report::finish() const {
  std::printf(
      "\nphase                     attempted        ok  deadline  rejected"
      "   invalid  internal  mismatch\n");
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const Counts& c : phases_) {
    std::printf("%-24s %10zu %9zu %9zu %9zu %9zu %9zu %9zu\n",
                c.phase.c_str(), c.attempted, c.ok, c.deadline_exceeded,
                c.rejected, c.invalid, c.internal, c.mismatch);
    attempted += c.attempted;
    failed += c.failed();
  }
  const std::vector<Metric>& metrics = trace_ ? layer_ : e2e_;
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": ";
    if (std::isfinite(metrics[i].value)) {
      js << metrics[i].value;
    } else {
      js << (metrics[i].value > 0 ? "Infinity" : "-Infinity");
    }
    js << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

void print_autotuner_picks() {
  std::printf("autotuner picks (bnn.tuned):\n");
  for (const auto& e : eb::bnn::Autotuner::instance().table()) {
    std::printf("  %-5s rows=%-6zu words=%-5zu batch=%-6zu -> %s\n",
                e.family.c_str(), e.rows, e.words, e.batch, e.kernel.c_str());
  }
}

bool same_bytes(const eb::bnn::Tensor& a, const eb::bnn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace pb
