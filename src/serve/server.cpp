// Daemon implementation. Threading model (see server.hpp for the tour):
//
//   accept thread  --> one reader thread per connection --> bounded queue
//                                                        --> batching thread
//
// Every blocking wait in the daemon is a poll()/wait_for() loop of at
// most ~50 ms that re-checks stopping_, so request_stop() can be a pure
// atomic store (and therefore safe to call from a signal handler) while
// shutdown latency stays bounded. The drain ordering in stop() is what
// guarantees zero in-flight loss: producers are joined before
// producers_done_ lets the batching thread exit, so every admitted
// request is answered before the last thread dies.

#include "serve/server.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "combinatorics/enumerate.hpp"
#include "core/batch_engine.hpp"
#include "core/group_sweep.hpp"
#include "locality/footprint_io.hpp"
#include "locality/sanitize.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "runtime/fault_injection.hpp"
#include "serve/socket_util.hpp"
#include "util/check.hpp"

namespace ocps::serve {

namespace {

using Clock = std::chrono::steady_clock;

// A connection writing a line this long without a newline is not
// speaking the protocol; cut it off instead of buffering forever.
constexpr std::size_t kMaxLineBytes = 1 << 20;

// Poll interval bounding how long any thread can miss stopping_.
constexpr int kPollMs = 50;

double ms_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Stage names of the per-request latency decomposition, in pipeline
// order. Indexes match Telemetry::stage and SlowEntry::stage_ms.
constexpr std::size_t kStageCount = 4;
constexpr const char* kStageNames[kStageCount] = {"queue_wait", "solve",
                                                  "serialize", "network"};

}  // namespace

// ---------------------------------------------------------------------------
// Profile sets.

std::size_t ProfileSet::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < models.size(); ++i)
    if (models[i].name == name) return i;
  return npos;
}

std::shared_ptr<const ProfileSet> make_profile_set(
    std::vector<ProgramModel> models, std::size_t capacity,
    std::uint64_t version) {
  auto set = std::make_shared<ProfileSet>();
  set->models = std::move(models);
  set->unit_costs = precompute_unit_cost_matrix(set->models, capacity);
  set->version = version;
  return set;
}

Result<ProgramModel> load_profile(const std::string& path,
                                  std::size_t capacity) {
  try {
    FootprintFile file = load_footprint_file(path);
    if (!std::isfinite(file.access_rate) || file.access_rate <= 0.0)
      return Err(ErrorCode::kCorruptData,
                 path + ": access rate must be positive and finite");
    RepairReport report;
    Result<PiecewiseLinear> knots = sanitize_footprint_knots(
        file.footprint.xs(), file.footprint.ys(), &report);
    if (!knots.ok())
      return Err(knots.error().code,
                 path + ": " + knots.error().message);
    file.footprint = std::move(knots.value());
    return Ok(model_from_footprint_file(file, capacity));
  } catch (const CheckError& e) {
    return Err(ErrorCode::kCorruptData, path + ": " + e.what());
  }
}

// ---------------------------------------------------------------------------
// Server plumbing types.

struct Server::AtomicCounters {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> reloads{0};
  std::atomic<std::uint64_t> reload_rejected{0};
};

struct Server::Connection {
  int fd = -1;
  std::mutex write_mutex;  ///< reader (errors) and batcher both write
  const NetFaultInjector* faults = nullptr;  ///< chaos seam (may be null)
  std::chrono::milliseconds io_timeout{5000};
  /// A write that timed out or hit a peer error poisons the connection:
  /// further responses would interleave into a half-written line, so
  /// both the reader and later writers give up on it instead.
  std::atomic<bool> broken{false};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  // Appends the newline and writes the whole line. Accepted fds are
  // nonblocking; send_all retries EINTR, continues short writes, and
  // polls POLLOUT on EAGAIN bounded by io_timeout. MSG_NOSIGNAL inside:
  // a client that hung up must cost an error return, not a SIGPIPE.
  bool send_line(std::string line) {
    line.push_back('\n');
    std::lock_guard<std::mutex> guard(write_mutex);
    if (broken.load(std::memory_order_relaxed)) return false;

    NetFaultInjector::WriteFault fault = NetFaultInjector::WriteFault::kNone;
    if (faults) fault = faults->write_fault();
    if (fault == NetFaultInjector::WriteFault::kStall)
      std::this_thread::sleep_for(faults->stall_duration());
    if (fault == NetFaultInjector::WriteFault::kReset) {
      // Cut the response mid-line and tear the connection down: the
      // peer reads a partial frame and then EOF, exactly what a crashed
      // daemon looks like from the other side.
      (void)send_all(fd, line.data(), line.size() / 2, io_timeout);
      ::shutdown(fd, SHUT_RDWR);
      broken.store(true, std::memory_order_relaxed);
      return false;
    }
    if (fault == NetFaultInjector::WriteFault::kTrickle) {
      // Dribble the head out a byte at a time so the peer exercises its
      // partial-read reassembly; the tail goes out normally.
      std::size_t head = std::min<std::size_t>(line.size(), 32);
      for (std::size_t i = 0; i < head; ++i) {
        if (!send_all(fd, line.data() + i, 1, io_timeout)) {
          broken.store(true, std::memory_order_relaxed);
          return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!send_all(fd, line.data() + head, line.size() - head,
                    io_timeout)) {
        broken.store(true, std::memory_order_relaxed);
        return false;
      }
      return true;
    }

    if (!send_all(fd, line.data(), line.size(), io_timeout)) {
      broken.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

// Daemon-side telemetry that is not a plain registry metric: the sliding
// latency window behind the `serve.request_latency.window.*` gauges and
// the bounded slow-request log behind the `slowlog` op. The log keeps the
// K slowest requests seen so far (evicting the fastest entry), so a 504
// spike hours ago stays attributable to its trace_id.
struct Server::Telemetry {
  struct SlowEntry {
    std::uint64_t trace_id = 0;
    std::int64_t id = 0;
    Op op = Op::kPartition;
    std::string objective;
    std::size_t group = 0;  ///< partition: member count; sweep: group_size
    double latency_ms = 0.0;
    double deadline_slack_ms = 0.0;  ///< NaN when the request had no deadline
    bool ok = false;
    /// Per-stage decomposition of latency_ms, indexed by kStageNames.
    /// The stages sum to latency_ms (respond() computes queue_wait as
    /// the remainder, so the identity holds by construction).
    double stage_ms[kStageCount] = {};
  };

  obs::WindowedHistogram window;
  /// Per-stage sliding windows behind serve.stage.<name>.window.*
  /// gauges, indexed by kStageNames. Same window as the end-to-end one.
  obs::WindowedHistogram stage[kStageCount];
  /// Sliding window of |prediction error| in ppm, fed by `reconcile`;
  /// behind the dp.prediction_error.window.* gauges.
  obs::WindowedHistogram window_prediction_error;
  std::mutex mu;
  std::vector<SlowEntry> entries;
  std::size_t capacity;

  Telemetry(unsigned window_s, std::size_t cap)
      : window(window_s),
        stage{obs::WindowedHistogram(window_s),
              obs::WindowedHistogram(window_s),
              obs::WindowedHistogram(window_s),
              obs::WindowedHistogram(window_s)},
        window_prediction_error(window_s),
        capacity(cap) {
    entries.reserve(cap);
  }

  void record(SlowEntry e) {
    if (capacity == 0) return;
    std::lock_guard<std::mutex> lock(mu);
    if (entries.size() < capacity) {
      entries.push_back(std::move(e));
      return;
    }
    std::size_t min_i = 0;  // K is small; a linear scan beats a heap here
    for (std::size_t i = 1; i < entries.size(); ++i)
      if (entries[i].latency_ms < entries[min_i].latency_ms) min_i = i;
    if (e.latency_ms > entries[min_i].latency_ms)
      entries[min_i] = std::move(e);
  }

  std::vector<SlowEntry> sorted() {
    std::vector<SlowEntry> out;
    {
      std::lock_guard<std::mutex> lock(mu);
      out = entries;
    }
    std::sort(out.begin(), out.end(),
              [](const SlowEntry& a, const SlowEntry& b) {
                return a.latency_ms > b.latency_ms;
              });
    return out;
  }
};

// Warm DP state owned by the batching thread: one prefix-sharing solver
// per objective, refreshed only when the profile version or the
// requested capacity changes. Holding the shared_ptr keeps the profile
// set (and thus the cost rows the solver points into) alive across
// batches even after a reload swaps the served set.
//
// A hot reload that keeps the table shape (same program count and
// capacity) goes through resolve_incremental: cached DP layers whose
// cost rows are bit-identical in the new set survive, so reloading one
// of N profiles costs O(suffix) layers on the next solve instead of a
// cold solver (obs: serve.solver_incremental_refreshes /
// dp.layers_invalidated).
struct Server::SolverState {
  struct Entry {
    PrefixDpSolver solver;
    std::shared_ptr<const ProfileSet> set;
    std::size_t capacity = 0;
  };
  Entry sum;
  Entry max;
  DpResult dp_buf;

  PrefixDpSolver& ensure(const std::shared_ptr<const ProfileSet>& set,
                         std::size_t capacity, DpObjective objective) {
    Entry& e = objective == DpObjective::kMaxCost ? max : sum;
    if (e.set != set || e.capacity != capacity) {
      const CostMatrixView view = set->unit_costs.view();
      const bool same_shape =
          e.set != nullptr && e.capacity == capacity &&
          e.set->unit_costs.view().rows() == view.rows() &&
          e.set->unit_costs.view().cols() == view.cols();
      if (same_shape) {
        e.solver.resolve_incremental(view);
        OCPS_OBS_COUNT("serve.solver_incremental_refreshes", 1);
      } else {
        e.solver.configure(view, capacity, objective);
      }
      e.set = set;
      e.capacity = capacity;
    }
    return e.solver;
  }
};

// ---------------------------------------------------------------------------
// Lifecycle.

Server::Server(ServeConfig config, std::vector<ProgramModel> models)
    : config_(std::move(config)),
      counters_(std::make_unique<AtomicCounters>()) {
  OCPS_CHECK(!config_.socket_path.empty() || !config_.listen_address.empty(),
             "serve: a listener is required (socket path and/or TCP address)");
  OCPS_CHECK(config_.capacity > 0, "serve: capacity must be positive");
  OCPS_CHECK(config_.max_batch > 0, "serve: max_batch must be positive");
  OCPS_CHECK(config_.queue_capacity > 0,
             "serve: queue_capacity must be positive");
  OCPS_CHECK(config_.default_deadline_ms >= 0.0 &&
                 std::isfinite(config_.default_deadline_ms),
             "serve: default_deadline_ms must be finite and >= 0");
  OCPS_CHECK(config_.metrics_port >= -1 && config_.metrics_port <= 65535,
             "serve: metrics_port must be in [-1, 65535]");
  OCPS_CHECK(config_.latency_window_s > 0,
             "serve: latency_window_s must be positive");
  OCPS_CHECK(config_.max_connections > 0,
             "serve: max_connections must be positive");
  OCPS_CHECK(config_.io_timeout.count() > 0,
             "serve: io_timeout must be positive");
  OCPS_CHECK(config_.slo_p99_ms >= 0.0 && std::isfinite(config_.slo_p99_ms),
             "serve: slo_p99_ms must be finite and >= 0");
  OCPS_CHECK(config_.slo_availability >= 0.0 &&
                 config_.slo_availability < 1.0,
             "serve: slo_availability must be in [0, 1)");
  OCPS_CHECK(config_.decision_log_capacity > 0,
             "serve: decision_log_capacity must be positive");
  OCPS_CHECK(config_.drift_alpha > 0.0 && config_.drift_alpha <= 1.0,
             "serve: drift_alpha must be in (0, 1]");
  OCPS_CHECK(config_.drift_threshold >= 0.0 &&
                 std::isfinite(config_.drift_threshold),
             "serve: drift_threshold must be finite and >= 0");
  telemetry_ = std::make_unique<Telemetry>(config_.latency_window_s,
                                           config_.slowlog_capacity);
  obs::SloConfig slo_config;
  slo_config.p99_ms = config_.slo_p99_ms;
  slo_config.availability = config_.slo_availability;
  slo_ = std::make_unique<obs::SloTracker>(slo_config);
  decisions_ = std::make_unique<obs::DecisionLog>(
      config_.decision_log_capacity);
  obs::DriftConfig drift_config;
  drift_config.alpha = config_.drift_alpha;
  drift_config.threshold = config_.drift_threshold;
  drift_ = std::make_unique<obs::DriftDetector>(drift_config);
  profiles_ = make_profile_set(std::move(models), config_.capacity, 1);
  last_decision_version_.store(profiles_->version);
}

Server::~Server() { stop(); }

Result<bool> Server::start() {
  OCPS_CHECK(!started_.exchange(true), "Server::start called twice");

  // Tears down every listener claimed so far; each failure path below
  // must leave no fd or lock file behind.
  auto teardown = [&] {
    if (http_fd_ >= 0) {
      ::close(http_fd_);
      http_fd_ = -1;
    }
    if (tcp_fd_ >= 0) {
      ::close(tcp_fd_);
      tcp_fd_ = -1;
    }
    UnixListener claimed{listen_fd_, lock_fd_};
    release_unix_socket(claimed, config_.socket_path);
    listen_fd_ = -1;
    lock_fd_ = -1;
  };

  // Race-safe claim of the Unix socket path (flock + connect probe; see
  // socket_util.hpp) — a clear "in use by live daemon" error instead of
  // two daemons silently stealing each other's socket. TCP-only daemons
  // skip it entirely.
  if (!config_.socket_path.empty()) {
    Result<UnixListener> claimed = claim_unix_socket(config_.socket_path, 64);
    if (!claimed.ok()) return claimed.error();
    listen_fd_ = claimed.value().fd;
    lock_fd_ = claimed.value().lock_fd;
  }

  // Optional TCP request listener sharing the same protocol + pipeline.
  if (!config_.listen_address.empty()) {
    Result<Endpoint> ep = parse_endpoint(config_.listen_address);
    if (!ep.ok()) {
      teardown();
      return ep.error();
    }
    if (!ep.value().is_tcp()) {
      teardown();
      return Err(ErrorCode::kInvalidArgument,
                 "--listen must be host:port, got: " +
                     config_.listen_address);
    }
    Result<int> fd = listen_tcp(ep.value().host, ep.value().port, 64);
    if (!fd.ok()) {
      teardown();
      return fd.error();
    }
    tcp_fd_ = fd.value();
    Result<std::uint16_t> port = bound_tcp_port(tcp_fd_);
    if (!port.ok()) {
      teardown();
      return port.error();
    }
    tcp_port_.store(port.value());
  }

  // Optional Prometheus exposition listener, loopback only. -1 asks the
  // kernel for an ephemeral port (tests); the bound port is read back.
  if (config_.metrics_port != 0) {
    auto fail = [&](const std::string& what) -> Result<bool> {
      int err = errno;
      teardown();
      return Err(ErrorCode::kIoError, what + ": " + std::strerror(err));
    };
    http_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (http_fd_ < 0) return fail("metrics socket()");
    int one = 1;
    ::setsockopt(http_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in http_addr{};
    http_addr.sin_family = AF_INET;
    http_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    http_addr.sin_port =
        htons(config_.metrics_port > 0
                  ? static_cast<std::uint16_t>(config_.metrics_port)
                  : 0);
    if (::bind(http_fd_, reinterpret_cast<sockaddr*>(&http_addr),
               sizeof(http_addr)) != 0)
      return fail("metrics bind(127.0.0.1:" +
                  std::to_string(config_.metrics_port) + ")");
    if (::listen(http_fd_, 16) != 0) return fail("metrics listen()");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(http_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0)
      return fail("metrics getsockname()");
    http_port_.store(ntohs(bound.sin_port));
  }

  // Eager registration: the per-stage histograms and SLO gauges exist
  // from the first scrape (zero-valued before traffic) so dashboards and
  // the CI exposition checker see a stable series set.
  if (obs::enabled()) {
    for (const char* stage : kStageNames)
      obs::histogram(std::string("serve.stage.") + stage);
    obs::histogram("dp.prediction_error");
    obs::publish_decision_metrics(*decisions_, drift_.get(),
                                  &telemetry_->window_prediction_error,
                                  obs::DecisionLog::steady_now_ns());
    if (slo_->configured()) refresh_latency_gauges();
  }

  started_at_ = Clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
  batch_thread_ = std::thread([this] { batch_loop(); });
  if (http_fd_ >= 0) http_thread_ = std::thread([this] { http_loop(); });
  return Ok(true);
}

void Server::stop() {
  stopping_.store(true);
  if (!started_.load() || joined_.exchange(true)) return;

  // 1. No new connections (the metrics listener is independent of the
  // request pipeline, so it goes down in the same phase).
  if (accept_thread_.joinable()) accept_thread_.join();
  if (http_thread_.joinable()) http_thread_.join();
  if (http_fd_ >= 0) {
    ::close(http_fd_);
    http_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  UnixListener claimed{listen_fd_, lock_fd_};
  release_unix_socket(claimed, config_.socket_path);
  listen_fd_ = -1;
  lock_fd_ = -1;

  // 2. No new requests: join every reader (each notices stopping_ within
  // one poll interval and finishes the line it was handling).
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> guard(conns_mutex_);
    readers.swap(reader_threads_);
  }
  for (std::thread& t : readers)
    if (t.joinable()) t.join();

  // 3. Only now may the batching thread exit on empty — everything that
  // made it into the queue gets answered first (zero in-flight loss).
  producers_done_.store(true);
  queue_cv_.notify_all();
  if (batch_thread_.joinable()) batch_thread_.join();

  std::lock_guard<std::mutex> guard(conns_mutex_);
  conns_.clear();
}

void Server::wait_until_stop_requested() const {
  while (!stopping_.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> guard(queue_mutex_);
  return queue_.size();
}

std::uint64_t Server::profile_version() const {
  return profiles()->version;
}

Server::Counters Server::counters() const {
  Counters c;
  c.requests = counters_->requests.load();
  c.answered = counters_->answered.load();
  c.shed = counters_->shed.load();
  c.deadline_exceeded = counters_->deadline_exceeded.load();
  c.malformed = counters_->malformed.load();
  c.batches = counters_->batches.load();
  c.reloads = counters_->reloads.load();
  c.reload_rejected = counters_->reload_rejected.load();
  return c;
}

std::shared_ptr<const ProfileSet> Server::profiles() const {
  std::lock_guard<std::mutex> guard(profiles_mutex_);
  return profiles_;
}

// ---------------------------------------------------------------------------
// Socket threads.

void Server::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfds[2];
    nfds_t nfds = 0;
    if (listen_fd_ >= 0) pfds[nfds++] = {listen_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) pfds[nfds++] = {tcp_fd_, POLLIN, 0};
    int ready = ::poll(pfds, nfds, kPollMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    for (nfds_t i = 0; i < nfds; ++i) {
      if (!(pfds[i].revents & POLLIN)) continue;
      // Accepted fds are nonblocking: every read/write below goes
      // through a poll-bounded loop, so a stalled peer can never wedge
      // a daemon thread in the kernel.
      int fd = ::accept4(pfds[i].fd, nullptr, nullptr,
                         SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd < 0) continue;
      if (config_.net_faults && config_.net_faults->fail_accept()) {
        // Injected accept failure: the peer sees an immediate EOF, as
        // if the daemon ran out of fds and dropped the connection.
        ::close(fd);
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->faults = config_.net_faults;
      conn->io_timeout = config_.io_timeout;
      std::lock_guard<std::mutex> guard(conns_mutex_);
      if (stopping_.load()) continue;  // conn dtor closes the fd
      if (conns_.size() >= config_.max_connections) {
        // Explicit refusal beats letting the backlog time out: the
        // client gets a line it can parse and retry against a replica.
        OCPS_OBS_COUNT("serve.conn_limit_rejected", 1);
        conn->send_line(error_response(
            0, kCodeShuttingDown,
            "connection limit reached (" +
                std::to_string(config_.max_connections) + ")"));
        continue;  // conn dtor closes the fd
      }
      conns_.push_back(conn);
      reader_threads_.emplace_back([this, conn] { reader_loop(conn); });
    }
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  Clock::time_point last_progress = Clock::now();
  while (!stopping_.load()) {
    if (conn->broken.load(std::memory_order_relaxed)) break;
    // A partial line that stops growing is a stalled or byte-trickling
    // peer; answer 400 and drop it rather than buffer a frame forever.
    if (!buffer.empty() &&
        Clock::now() - last_progress > config_.io_timeout) {
      counters_->malformed.fetch_add(1);
      OCPS_OBS_COUNT("serve.malformed", 1);
      conn->send_line(error_response(0, kCodeBadRequest,
                                     "request line stalled mid-frame"));
      break;
    }
    pollfd pfd{conn->fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;
    char chunk[4096];
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // client hung up
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    last_progress = Clock::now();
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_line(conn, line);
    }
    if (buffer.size() > kMaxLineBytes) {
      counters_->malformed.fetch_add(1);
      OCPS_OBS_COUNT("serve.malformed", 1);
      conn->send_line(
          error_response(0, kCodeBadRequest, "request line too long"));
      break;
    }
  }
  // Drop this connection from the server's set so a long-lived daemon
  // doesn't accumulate dead fds; Pending entries still holding the
  // shared_ptr keep the fd alive until their responses are written.
  std::lock_guard<std::mutex> guard(conns_mutex_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
               conns_.end());
}

// ---------------------------------------------------------------------------
// Prometheus HTTP listener. One short-lived connection per scrape,
// handled serially: a scrape every few seconds is the design load, and a
// stalled scraper can block no one but the next scraper.

void Server::http_loop() {
  while (!stopping_.load()) {
    pollfd pfd{http_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollMs);
    if (ready <= 0) continue;
    int fd = ::accept4(http_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    // Shared responder (socket_util): same surface as the router's.
    handle_metrics_http_client(
        fd, [this] { return stopping_.load(); },
        [this] { refresh_latency_gauges(); });
    ::close(fd);
  }
}

// ---------------------------------------------------------------------------
// Request admission.

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  counters_->requests.fetch_add(1);
  OCPS_OBS_COUNT("serve.requests", 1);

  // Admission span on the reader thread; tagged with the client's
  // trace_id so the export links it to the solve span on the batching
  // thread into one per-request tree.
  obs::ScopedSpan admit("serve.admit", "serve");

  Result<Request> parsed = parse_request(line);
  if (!parsed.ok()) {
    counters_->malformed.fetch_add(1);
    OCPS_OBS_COUNT("serve.malformed", 1);
    conn->send_line(
        error_response(0, kCodeBadRequest, parsed.error().message));
    return;
  }
  Request req = std::move(parsed.value());
  admit.set_trace_id(req.trace_id);
  admit.set_arg("id", static_cast<std::uint64_t>(req.id));
  // Router-forwarded requests carry a trace context; record the parent
  // span nonce so a stitched fleet trace can pair this daemon's spans
  // with the router attempt that forwarded them.
  if (req.hop > 0)
    obs::instant_event("serve.hop", "serve", "parent_span", req.parent_span,
                       req.trace_id);

  if (req.capacity > config_.capacity) {
    counters_->malformed.fetch_add(1);
    OCPS_OBS_COUNT("serve.malformed", 1);
    conn->send_line(error_response(
        req.id, kCodeBadRequest,
        "capacity " + std::to_string(req.capacity) +
            " exceeds server capacity " + std::to_string(config_.capacity)));
    return;
  }

  switch (req.op) {
    case Op::kHealth:
      handle_health(conn, req);
      return;
    case Op::kReload:
      handle_reload(conn, req);
      return;
    case Op::kMetrics:
      handle_metrics(conn, req);
      return;
    case Op::kSlowlog:
      handle_slowlog(conn, req);
      return;
    case Op::kTrace:
      handle_trace(conn, req);
      return;
    case Op::kSlo:
      handle_slo(conn, req);
      return;
    case Op::kDecisions:
      handle_decisions(conn, req);
      return;
    case Op::kReconcile:
      handle_reconcile(conn, req);
      return;
    case Op::kPartition:
    case Op::kSweep:
      break;
  }

  if (stopping_.load()) {
    conn->send_line(
        error_response(req.id, kCodeShuttingDown, "daemon is draining"));
    return;
  }

  Pending p;
  p.req = std::move(req);
  p.conn = conn;
  p.enqueued = Clock::now();
  double deadline_ms = p.req.deadline_ms > 0.0 ? p.req.deadline_ms
                                               : config_.default_deadline_ms;
  p.deadline = deadline_ms > 0.0
                   ? p.enqueued +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 deadline_ms))
                   : Clock::time_point::max();

  bool admitted = false;
  {
    std::lock_guard<std::mutex> guard(queue_mutex_);
    if (queue_.size() < config_.queue_capacity) {
      queue_.push_back(std::move(p));
      OCPS_OBS_GAUGE("serve.queue_depth",
                     static_cast<double>(queue_.size()));
      admitted = true;
    }
  }
  if (admitted) {
    queue_cv_.notify_all();
  } else {
    counters_->shed.fetch_add(1);
    OCPS_OBS_COUNT("serve.shed", 1);
    conn->send_line(error_response(p.req.id, kCodeQueueFull, "queue full"));
  }
}

void Server::handle_health(const std::shared_ptr<Connection>& conn,
                           const Request& req) {
  auto set = profiles();
  json::Value body;
  body.set("uptime_ms", json::Value(ms_since(started_at_, Clock::now())));
  body.set("version", json::Value(static_cast<double>(set->version)));
  body.set("capacity", json::Value(static_cast<double>(config_.capacity)));
  json::Array names;
  names.reserve(set->models.size());
  for (const ProgramModel& m : set->models) names.emplace_back(m.name);
  body.set("programs", json::Value(std::move(names)));
  body.set("queue_depth",
           json::Value(static_cast<double>(queue_depth())));
  body.set("draining", json::Value(stopping_.load()));
  Counters c = counters();
  json::Value cnt;
  cnt.set("requests", json::Value(static_cast<double>(c.requests)));
  cnt.set("answered", json::Value(static_cast<double>(c.answered)));
  cnt.set("shed", json::Value(static_cast<double>(c.shed)));
  cnt.set("deadline_exceeded",
          json::Value(static_cast<double>(c.deadline_exceeded)));
  cnt.set("malformed", json::Value(static_cast<double>(c.malformed)));
  cnt.set("batches", json::Value(static_cast<double>(c.batches)));
  cnt.set("reloads", json::Value(static_cast<double>(c.reloads)));
  cnt.set("reload_rejected",
          json::Value(static_cast<double>(c.reload_rejected)));
  body.set("counters", std::move(cnt));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Server::handle_reload(const std::shared_ptr<Connection>& conn,
                           const Request& req) {
  std::lock_guard<std::mutex> reload_guard(reload_mutex_);

  auto reject = [&](const std::string& why) {
    counters_->reload_rejected.fetch_add(1);
    OCPS_OBS_COUNT("serve.reload_rejected", 1);
    conn->send_line(error_response(
        req.id, kCodeUnprocessable,
        "reload rejected, keeping profile set v" +
            std::to_string(profile_version()) + ": " + why));
  };

  // Build the complete candidate set first; nothing is swapped until
  // every file loads and sanitizes.
  std::vector<ProgramModel> models;
  models.reserve(req.paths.size());
  std::unordered_set<std::string> names;
  for (const std::string& path : req.paths) {
    Result<ProgramModel> model = load_profile(path, config_.capacity);
    if (!model.ok()) {
      reject(model.error().message);
      return;
    }
    if (!names.insert(model.value().name).second) {
      reject("duplicate program name \"" + model.value().name + "\"");
      return;
    }
    models.push_back(std::move(model.value()));
  }

  std::uint64_t next_version = profile_version() + 1;
  auto set = make_profile_set(std::move(models), config_.capacity,
                              next_version);
  {
    std::lock_guard<std::mutex> guard(profiles_mutex_);
    profiles_ = std::move(set);
  }
  counters_->reloads.fetch_add(1);
  OCPS_OBS_COUNT("serve.reloads", 1);
  json::Value body;
  body.set("version", json::Value(static_cast<double>(next_version)));
  body.set("programs",
           json::Value(static_cast<double>(req.paths.size())));
  conn->send_line(ok_response(req.id, std::move(body)));
}

// ---------------------------------------------------------------------------
// Telemetry ops (answered inline, like health).

void Server::refresh_latency_gauges() {
  obs::MetricsSnapshot snap = obs::metrics_snapshot();
  const obs::HistogramSnapshot* lifetime = nullptr;
  for (const auto& h : snap.histograms)
    if (h.name == "serve.request_latency") {
      lifetime = &h;
      break;
    }
  obs::HistogramSnapshot empty;
  const obs::HistogramSnapshot& life = lifetime ? *lifetime : empty;
  obs::HistogramSnapshot window =
      telemetry_->window.snapshot("serve.request_latency.window");

  // Derived gauges exist from the first scrape (value 0 before traffic)
  // so dashboards and the CI format checker see a stable series set.
  static constexpr double kQ[] = {0.5, 0.95, 0.99};
  static constexpr const char* kName[] = {"p50", "p95", "p99"};
  for (std::size_t i = 0; i < 3; ++i) {
    obs::gauge(std::string("serve.request_latency.") + kName[i])
        .set(obs::histogram_quantile(life, kQ[i]));
    obs::gauge(std::string("serve.request_latency.window.") + kName[i])
        .set(obs::histogram_quantile(window, kQ[i]));
  }
  obs::gauge("serve.latency_window_s")
      .set(static_cast<double>(config_.latency_window_s));

  // Per-stage windowed percentiles (the `ocps top` stage columns).
  for (std::size_t i = 0; i < kStageCount; ++i) {
    std::string base = std::string("serve.stage.") + kStageNames[i];
    obs::HistogramSnapshot stage_window =
        telemetry_->stage[i].snapshot(base + ".window");
    obs::gauge(base + ".window.p50")
        .set(obs::histogram_quantile(stage_window, 0.5));
    obs::gauge(base + ".window.p99")
        .set(obs::histogram_quantile(stage_window, 0.99));
  }

  // SLO burn rates, recomputed per scrape like the quantile gauges.
  if (slo_->configured()) {
    obs::SloTracker::Status slo =
        slo_->status(obs::SloTracker::steady_now_ns());
    for (const obs::SloTracker::Objective& o : slo.objectives) {
      std::string base = "serve.slo." + o.name;
      obs::gauge(base + ".target").set(o.target);
      obs::gauge(base + ".burn_5m").set(o.burn_short);
      obs::gauge(base + ".burn_1h").set(o.burn_long);
      obs::gauge(base + ".breaching").set(o.breaching ? 1.0 : 0.0);
    }
    obs::gauge("serve.slo.alerts_total")
        .set(static_cast<double>(slo.alerts_total));
  }

  // Decision-quality gauges (dp.decision.* / dp.drift.*), same
  // recompute-per-scrape contract as the quantile gauges above.
  obs::publish_decision_metrics(*decisions_, drift_.get(),
                                &telemetry_->window_prediction_error,
                                obs::DecisionLog::steady_now_ns());
}

void Server::handle_metrics(const std::shared_ptr<Connection>& conn,
                            const Request& req) {
  if (!obs::enabled()) {
    conn->send_line(error_response(
        req.id, kCodeObsDisabled,
        "observability disabled (compiled out or OCPS_OBS unset)"));
    return;
  }
  refresh_latency_gauges();
  std::ostringstream prom;
  obs::write_metrics_prometheus(prom);
  std::ostringstream js;
  obs::write_metrics_json(js);
  Result<json::Value> metrics = json::parse(js.str());

  json::Value body;
  body.set("version",
           json::Value(static_cast<double>(profile_version())));
  body.set("uptime_ms", json::Value(ms_since(started_at_, Clock::now())));
  body.set("window_s",
           json::Value(static_cast<double>(config_.latency_window_s)));
  if (metrics.ok()) body.set("metrics", std::move(metrics.value()));
  body.set("prometheus", json::Value(prom.str()));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Server::handle_slowlog(const std::shared_ptr<Connection>& conn,
                            const Request& req) {
  // The slow log is server-owned state, not an obs metric: it answers
  // even with the obs layer off (unlike `metrics`).
  json::Value body;
  body.set("capacity",
           json::Value(static_cast<double>(config_.slowlog_capacity)));
  json::Array rows;
  for (const Telemetry::SlowEntry& e : telemetry_->sorted()) {
    json::Value row;
    row.set("trace_id", json::Value(static_cast<double>(e.trace_id)));
    row.set("id", json::Value(static_cast<double>(e.id)));
    row.set("op", json::Value(op_name(e.op)));
    row.set("objective", json::Value(e.objective));
    row.set("groups", json::Value(static_cast<double>(e.group)));
    row.set("latency_ms", json::Value(e.latency_ms));
    // NaN (no deadline) serializes as null.
    row.set("deadline_slack_ms", json::Value(e.deadline_slack_ms));
    row.set("ok", json::Value(e.ok));
    // Per-stage breakdown (new fields appended; everything above is the
    // pre-existing row shape, unchanged for old consumers).
    for (std::size_t i = 0; i < kStageCount; ++i)
      row.set(std::string(kStageNames[i]) + "_ms",
              json::Value(e.stage_ms[i]));
    rows.push_back(std::move(row));
  }
  body.set("slowlog", json::Value(std::move(rows)));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Server::handle_trace(const std::shared_ptr<Connection>& conn,
                          const Request& req) {
  if (!obs::enabled()) {
    conn->send_line(error_response(
        req.id, kCodeObsDisabled,
        "observability disabled (compiled out or OCPS_OBS unset)"));
    return;
  }
  json::Value body;
  body.set("trace_id", json::Value(static_cast<double>(req.trace_id)));
  json::Array procs;
  procs.push_back(trace_proc_json("serve", req.trace_id));
  body.set("procs", json::Value(std::move(procs)));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Server::handle_slo(const std::shared_ptr<Connection>& conn,
                        const Request& req) {
  // Like slowlog, the SLO engine is server-owned state independent of
  // the obs registry: it answers even with obs compiled out.
  obs::SloTracker::Status slo =
      slo_->status(obs::SloTracker::steady_now_ns());
  json::Value body;
  body.set("configured", json::Value(slo_->configured()));
  json::Array objectives;
  for (const obs::SloTracker::Objective& o : slo.objectives) {
    json::Value row;
    row.set("name", json::Value(o.name));
    row.set("target", json::Value(o.target));
    row.set("budget", json::Value(o.budget));
    row.set("burn_5m", json::Value(o.burn_short));
    row.set("burn_1h", json::Value(o.burn_long));
    row.set("breaching", json::Value(o.breaching));
    objectives.push_back(std::move(row));
  }
  body.set("objectives", json::Value(std::move(objectives)));
  json::Array alerts;
  for (const obs::SloTracker::Alert& a : slo.alerts) {
    json::Value row;
    row.set("seq", json::Value(static_cast<double>(a.seq)));
    row.set("at_ns", json::Value(static_cast<double>(a.at_ns)));
    row.set("objective", json::Value(a.objective));
    row.set("burn_5m", json::Value(a.burn_short));
    row.set("burn_1h", json::Value(a.burn_long));
    alerts.push_back(std::move(row));
  }
  body.set("alerts", json::Value(std::move(alerts)));
  body.set("alerts_total",
           json::Value(static_cast<double>(slo.alerts_total)));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Server::handle_decisions(const std::shared_ptr<Connection>& conn,
                              const Request& req) {
  // Like slo/slowlog, the decision log is server-owned state independent
  // of the obs registry: it answers even with obs off or compiled out.
  json::Value body;
  if (req.decision_id != 0) {
    obs::DecisionRecord rec;
    if (!decisions_->find(req.decision_id, &rec)) {
      conn->send_line(error_response(
          req.id, kCodeNotFound,
          "unknown decision id " + std::to_string(req.decision_id) +
              " (never issued, or evicted from the audit ring)"));
      return;
    }
    body.set("decision", decision_json(rec));
    // The predecessor enables the `ocps why` allocation diff.
    obs::DecisionRecord prev;
    if (rec.id > 1 && decisions_->find(rec.id - 1, &prev))
      body.set("previous", decision_json(prev));
  } else {
    const std::size_t limit = req.limit == 0 ? 16 : req.limit;
    json::Array rows;
    for (const obs::DecisionRecord& rec : decisions_->recent(limit))
      rows.push_back(decision_json(rec));
    body.set("decisions", json::Value(std::move(rows)));
  }
  body.set("accuracy", decision_accuracy_json(decisions_->accuracy()));
  body.set("drift",
           drift_status_json(drift_->status(), drift_->alerts()));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Server::handle_reconcile(const std::shared_ptr<Connection>& conn,
                              const Request& req) {
  const std::uint64_t now = obs::DecisionLog::steady_now_ns();
  obs::DecisionRecord rec;
  switch (decisions_->reconcile(req.decision_id, req.realized,
                                /*partial=*/false, now, &rec)) {
    case obs::DecisionLog::ReconcileStatus::kUnknownId:
      conn->send_line(error_response(
          req.id, kCodeNotFound,
          "unknown decision id " + std::to_string(req.decision_id) +
              " (never issued, or evicted from the audit ring)"));
      return;
    case obs::DecisionLog::ReconcileStatus::kAlreadyReconciled:
      conn->send_line(error_response(
          req.id, kCodeUnprocessable,
          "decision " + std::to_string(req.decision_id) +
              " is already reconciled"));
      return;
    case obs::DecisionLog::ReconcileStatus::kSizeMismatch:
      decisions_->find(req.decision_id, &rec);  // fetch the tenant count
      conn->send_line(error_response(
          req.id, kCodeBadRequest,
          "realized has " + std::to_string(req.realized.size()) +
              " entries but decision " + std::to_string(req.decision_id) +
              " has " + std::to_string(rec.tenants.size()) + " tenants"));
      return;
    case obs::DecisionLog::ReconcileStatus::kOk:
      break;
  }
  obs::record_prediction_errors(rec, drift_.get(),
                                &telemetry_->window_prediction_error, now);
  obs::publish_decision_metrics(*decisions_, drift_.get(),
                                &telemetry_->window_prediction_error, now);
  json::Value body;
  body.set("decision", decision_json(rec));
  body.set("drift",
           drift_status_json(drift_->status(), drift_->alerts()));
  conn->send_line(ok_response(req.id, std::move(body)));
}

// ---------------------------------------------------------------------------
// Batching thread.

void Server::batch_loop() {
  SolverState solver;
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(kPollMs), [&] {
        return !queue_.empty() || producers_done_.load();
      });
      if (queue_.empty()) {
        if (producers_done_.load()) break;
        continue;
      }
      // Test seam: admit but do not drain while held (never during the
      // shutdown drain, which must always make progress).
      if (!stopping_.load() && config_.hold_batching &&
          config_.hold_batching->load()) {
        lock.unlock();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      // Group commit: take whatever queued while the solver was busy, up
      // to max_batch, and solve it now. A lone request never waits for
      // company; concurrent clients still coalesce, because requests
      // arriving during a solve ride the next batch together.
      std::size_t take = std::min(queue_.size(), config_.max_batch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      OCPS_OBS_GAUGE("serve.queue_depth",
                     static_cast<double>(queue_.size()));
    }
    process_batch(batch, solver);
  }
}

void Server::process_batch(std::vector<Pending>& batch,
                           SolverState& solver) {
  counters_->batches.fetch_add(1);
  OCPS_OBS_COUNT("serve.batches", 1);
  OCPS_OBS_HIST("serve.batch_size", static_cast<double>(batch.size()));
  obs::ScopedSpan span("serve.process_batch", "serve");
  span.set_arg("requests", batch.size());

  auto set = profiles();

  // Answer partitions grouped by (objective, capacity) so the warm
  // solver reconfigures at most once per distinct pair, keeping the DP
  // prefix cache effective across the batch; sweeps go last (they use
  // the thread pool, not the warm solver). stable_sort keeps arrival
  // order within each class.
  std::vector<std::size_t> order(batch.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Request& ra = batch[a].req;
                     const Request& rb = batch[b].req;
                     if (ra.op != rb.op) return ra.op == Op::kPartition;
                     if (ra.objective != rb.objective)
                       return ra.objective < rb.objective;
                     return ra.capacity < rb.capacity;
                   });

  for (std::size_t idx : order) {
    Pending& p = batch[idx];
    // Solve span on the batching thread: second leg of the per-request
    // tree started by serve.admit on the reader thread (same trace_id).
    obs::ScopedSpan req_span(
        p.req.op == Op::kPartition ? "serve.solve" : "serve.sweep", "serve");
    req_span.set_trace_id(p.req.trace_id);
    req_span.set_arg("id", static_cast<std::uint64_t>(p.req.id));
    // Stage stamps: answer paths move serialize_start to where the solve
    // actually ended; error paths that never solve leave it here so the
    // whole error turnaround is attributed to serialize.
    p.solve_start = Clock::now();
    p.serialize_start = p.solve_start;
    if (Clock::now() > p.deadline) {
      counters_->deadline_exceeded.fetch_add(1);
      OCPS_OBS_COUNT("serve.deadline_exceeded", 1);
      respond(p,
              error_response(p.req.id, kCodeDeadlineExceeded,
                             "deadline exceeded before solve"),
              false);
      continue;
    }
    try {
      if (p.req.op == Op::kPartition)
        answer_partition(p, set, solver);
      else
        answer_sweep(p, *set);
    } catch (const SweepDeadlineExceeded& e) {
      counters_->deadline_exceeded.fetch_add(1);
      OCPS_OBS_COUNT("serve.deadline_exceeded", 1);
      p.serialize_start = Clock::now();  // solve ran until the throw
      respond(p, error_response(p.req.id, kCodeDeadlineExceeded, e.what()),
              false);
    } catch (const std::exception& e) {
      p.serialize_start = Clock::now();
      respond(p, error_response(p.req.id, kCodeInternal, e.what()), false);
    }
  }
}

void Server::answer_partition(
    Pending& p, const std::shared_ptr<const ProfileSet>& set_ptr,
    SolverState& solver) {
  const ProfileSet& set = *set_ptr;
  const Request& req = p.req;
  const std::size_t capacity =
      req.capacity > 0 ? req.capacity : config_.capacity;
  const std::size_t n = req.programs.size();

  // Resolve names, then sort members ascending for DP layer reuse while
  // remembering each one's position in the request.
  std::vector<std::pair<std::uint32_t, std::size_t>> resolved;
  resolved.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t idx = set.index_of(req.programs[i]);
    if (idx == ProfileSet::npos) {
      respond(p,
              error_response(req.id, kCodeNotFound,
                             "unknown program \"" + req.programs[i] + "\""),
              false);
      return;
    }
    resolved.emplace_back(static_cast<std::uint32_t>(idx), i);
  }
  std::sort(resolved.begin(), resolved.end());
  std::vector<std::uint32_t> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = resolved[i].first;

  DpObjective objective = req.objective == "max" ? DpObjective::kMaxCost
                                                 : DpObjective::kSumCost;
  PrefixDpSolver& dp = solver.ensure(set_ptr, capacity, objective);
  dp.solve(members.data(), n, nullptr, solver.dp_buf);
  if (!solver.dp_buf.feasible) {
    respond(p,
            error_response(req.id, kCodeInternal,
                           "unconstrained DP reported infeasible"),
            false);
    return;
  }

  // Map the allocation back to request order and evaluate the solo MRCs.
  std::vector<double> alloc(n, 0.0);
  std::vector<double> mr(n, 0.0);
  double rate_sum = 0.0;
  double weighted_mr = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const ProgramModel& model = set.models[members[i]];
    std::size_t units = solver.dp_buf.alloc[i];
    double ratio = model.mrc.ratio(units);
    std::size_t pos = resolved[i].second;
    alloc[pos] = static_cast<double>(units);
    mr[pos] = ratio;
    rate_sum += model.access_rate;
    weighted_mr += model.access_rate * ratio;
  }
  p.serialize_start = Clock::now();  // DP + mapping done; body build next

  // Audit the decision. A serving daemon has no epoch clock, so the
  // trigger is kRequest — except for the first decision after a profile
  // reload, which is tagged kReload so `ocps decisions` shows where the
  // model changed under the clients. Realized ratios arrive later via
  // the `reconcile` op.
  obs::DecisionRecord decision;
  decision.at_ns = obs::DecisionLog::steady_now_ns();
  const std::uint64_t seen = last_decision_version_.exchange(set.version);
  decision.trigger = seen != set.version ? obs::DecisionTrigger::kReload
                                         : obs::DecisionTrigger::kRequest;
  decision.tenants.assign(req.programs.begin(), req.programs.end());
  decision.alloc.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    decision.alloc[i] = static_cast<std::size_t>(alloc[i]);
  decision.predicted_mr = mr;
  decision.tenant_degraded.assign(n, false);
  decision.solve_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(p.serialize_start -
                                                           p.solve_start)
          .count());
  decision.note = "serve: objective=" + req.objective +
                  " value=" + json::Value(solver.dp_buf.objective_value).dump();
  const std::uint64_t decision_id =
      decisions_->record(decision, decision.at_ns);
  OCPS_OBS_COUNT("dp.decisions", 1);

  json::Value body;
  json::Array programs;
  programs.reserve(n);
  for (const std::string& name : req.programs) programs.emplace_back(name);
  body.set("programs", json::Value(std::move(programs)));
  body.set("capacity", json::Value(static_cast<double>(capacity)));
  body.set("objective", json::Value(req.objective));
  json::Array alloc_arr(alloc.begin(), alloc.end());
  body.set("alloc", json::Value(std::move(alloc_arr)));
  json::Array mr_arr(mr.begin(), mr.end());
  body.set("miss_ratios", json::Value(std::move(mr_arr)));
  body.set("group_mr",
           json::Value(rate_sum > 0.0 ? weighted_mr / rate_sum : 0.0));
  body.set("objective_value", json::Value(solver.dp_buf.objective_value));
  body.set("version", json::Value(static_cast<double>(set.version)));
  body.set("decision_id",
           json::Value(static_cast<double>(decision_id)));
  respond(p, ok_response(req.id, std::move(body)), true);
}

void Server::answer_sweep(Pending& p, const ProfileSet& set) {
  const Request& req = p.req;
  const std::size_t capacity =
      req.capacity > 0 ? req.capacity : config_.capacity;

  std::vector<std::uint32_t> selected;
  if (req.programs.empty()) {
    selected.resize(set.models.size());
    std::iota(selected.begin(), selected.end(), 0u);
  } else {
    for (const std::string& name : req.programs) {
      std::size_t idx = set.index_of(name);
      if (idx == ProfileSet::npos) {
        respond(p,
                error_response(req.id, kCodeNotFound,
                               "unknown program \"" + name + "\""),
                false);
        return;
      }
      selected.push_back(static_cast<std::uint32_t>(idx));
    }
    std::sort(selected.begin(), selected.end());
    selected.erase(std::unique(selected.begin(), selected.end()),
                   selected.end());
  }
  const std::size_t n = selected.size();
  if (n == 0) {
    respond(p,
            error_response(req.id, kCodeNotFound, "no programs loaded"),
            false);
    return;
  }
  std::size_t k = req.group_size > 0 ? req.group_size
                                     : std::min<std::size_t>(4, n);
  if (k > n) {
    respond(p,
            error_response(req.id, kCodeBadRequest,
                           "group_size " + std::to_string(k) +
                               " exceeds program count " +
                               std::to_string(n)),
            false);
    return;
  }

  std::vector<std::vector<std::uint32_t>> groups = all_subsets(
      static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(k));
  for (auto& group : groups)
    for (std::uint32_t& member : group) member = selected[member];

  SweepOptions options;
  options.capacity = capacity;
  options.threads = config_.threads;
  if (p.deadline != Clock::time_point::max()) options.deadline = p.deadline;

  // Throws SweepDeadlineExceeded past the deadline; process_batch maps
  // that to 504.
  std::vector<GroupEvaluation> sweep =
      sweep_groups(set.models, groups, options);
  p.serialize_start = Clock::now();  // sweep done; stats + body build next

  json::Value improvement;
  const Method baselines[] = {Method::kEqual, Method::kNatural,
                              Method::kEqualBaseline,
                              Method::kNaturalBaseline, Method::kSttw};
  for (Method m : baselines) {
    ImprovementStats stats = improvement_over(sweep, m);
    json::Value row;
    row.set("max", json::Value(stats.max));
    row.set("avg", json::Value(stats.avg));
    row.set("median", json::Value(stats.median));
    row.set("frac_ge_10", json::Value(stats.frac_ge_10));
    row.set("frac_ge_20", json::Value(stats.frac_ge_20));
    improvement.set(method_name(m), std::move(row));
  }

  json::Value body;
  body.set("groups", json::Value(static_cast<double>(groups.size())));
  body.set("group_size", json::Value(static_cast<double>(k)));
  body.set("capacity", json::Value(static_cast<double>(capacity)));
  body.set("version", json::Value(static_cast<double>(set.version)));
  body.set("improvement", std::move(improvement));
  respond(p, ok_response(req.id, std::move(body)), true);
}

void Server::respond(Pending& p, const std::string& line, bool answered) {
  // Counted before the line goes out, so a client that has its answer
  // and asks for health next always sees it counted.
  if (answered) {
    counters_->answered.fetch_add(1);
    OCPS_OBS_COUNT("serve.answered", 1);
  }
  Clock::time_point send_start = Clock::now();
  p.conn->send_line(line);
  Clock::time_point now = Clock::now();
  double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - p.enqueued)
          .count());
  OCPS_OBS_HIST("serve.request_ns", ns);
  double ms = ns / 1e6;
  // Milliseconds twin of request_ns: the log-bucket resolution (factor
  // of two) is what the exposition quantiles work from, and ms buckets
  // read naturally on a dashboard.
  OCPS_OBS_HIST("serve.request_latency", ms);
  if (obs::enabled()) telemetry_->window.observe(ms);

  // Stage decomposition. solve / serialize / network come straight from
  // the stamps; queue_wait is the remainder — queue backlog plus
  // intra-batch ordering — so the four stages sum to latency_ms exactly
  // (modulo floating rounding), which the tests pin within an epsilon.
  double stage_ms[kStageCount];
  stage_ms[1] = std::max(0.0, ms_since(p.solve_start, p.serialize_start));
  stage_ms[2] = std::max(0.0, ms_since(p.serialize_start, send_start));
  stage_ms[3] = std::max(0.0, ms_since(send_start, now));
  stage_ms[0] =
      std::max(0.0, ms - stage_ms[1] - stage_ms[2] - stage_ms[3]);
  if (obs::enabled()) {
    for (std::size_t i = 0; i < kStageCount; ++i) {
      std::string name = std::string("serve.stage.") + kStageNames[i];
      obs::histogram(name).observe(stage_ms[i]);
      obs::note_exemplar(name, stage_ms[i], p.req.trace_id);
      telemetry_->stage[i].observe(stage_ms[i]);
    }
    obs::note_exemplar("serve.request_latency", ms, p.req.trace_id);
  }

  // SLO accounting is obs-independent (the tracker carries its own
  // clock) so burn rates keep working in an OCPS_OBS_DISABLED build.
  slo_->record(ms, answered, obs::SloTracker::steady_now_ns());

  Telemetry::SlowEntry entry;
  entry.trace_id = p.req.trace_id;
  entry.id = p.req.id;
  entry.op = p.req.op;
  entry.objective = p.req.objective;
  entry.group = p.req.op == Op::kPartition ? p.req.programs.size()
                                           : p.req.group_size;
  entry.latency_ms = ms;
  entry.deadline_slack_ms =
      p.deadline == Clock::time_point::max()
          ? std::numeric_limits<double>::quiet_NaN()
          : ms_since(now, p.deadline);
  entry.ok = answered;
  for (std::size_t i = 0; i < kStageCount; ++i)
    entry.stage_ms[i] = stage_ms[i];
  telemetry_->record(std::move(entry));
}

}  // namespace ocps::serve
