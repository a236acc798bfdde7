// Router implementation. Threading model:
//
//   front end     --> one reader thread per client connection
//                       (parses, routes, forwards synchronously)
//   health thread --> asks every backend for `health` on a fixed
//                     interval, feeding the circuit breakers + fleet
//                     gauges
//
// Forwarding is synchronous on the reader thread: one client connection
// is one lane, and a slow backend delays only the clients routed to it.
// Each connection's line handler owns its backend Client set (Lanes), so
// no connection state is shared across reader threads; the shared state
// (breakers, the counter set, fleet gauges) is mutex- or atomic-guarded.

#include "serve/router.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ocps::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

std::chrono::milliseconds clamp_left(Clock::time_point deadline,
                                     Clock::time_point now) {
  auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
  return std::max(std::chrono::milliseconds(1), left);
}

// The router's counter set, in `health` order: one name per Count.
enum Count : std::size_t {
  kRequests, kForwarded, kFailovers, kRelayedErrors, kNoBackend, kAllOpen,
  kMalformed, kReloads, kDeadlineExceeded, kHealthProbes, kHealthFailures,
  kCountTotal
};
constexpr const char* kCountNames[] = {
    "serve.router.requests",          "serve.router.forwarded",
    "serve.router.failovers",         "serve.router.relayed_errors",
    "serve.router.no_backend",        "serve.router.all_open",
    "serve.router.malformed",         "serve.router.reloads",
    "serve.router.deadline_exceeded", "serve.router.health_probes",
    "serve.router.health_failures"};
static_assert(std::size(kCountNames) == kCountTotal, "one name per Count");

}  // namespace

// ---------------------------------------------------------------------------
// Consistent-hash ring.

std::uint64_t HashRing::hash_key(const std::string& key) {
  // FNV-1a 64: deterministic across builds (unlike std::hash), cheap,
  // and well-spread enough once each point also goes through splitmix.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

HashRing::HashRing(std::size_t backends, std::size_t vnodes)
    : backends_(backends) {
  OCPS_CHECK(backends > 0, "ring needs at least one backend");
  OCPS_CHECK(vnodes > 0, "ring needs at least one vnode per backend");
  ring_.reserve(backends * vnodes);
  for (std::size_t b = 0; b < backends; ++b)
    for (std::size_t v = 0; v < vnodes; ++v) {
      std::uint64_t state =
          (static_cast<std::uint64_t>(b) << 32) ^ static_cast<std::uint64_t>(v);
      std::uint64_t h = splitmix64(state);
      ring_.push_back({h, static_cast<std::uint32_t>(b)});
    }
  std::sort(ring_.begin(), ring_.end(),
            [](const Point& a, const Point& b) { return a.hash < b.hash; });
}

std::size_t HashRing::primary_for(const std::string& key) const {
  return order_for(key).front();
}

std::vector<std::size_t> HashRing::order_for(const std::string& key) const {
  std::uint64_t h = hash_key(key);
  std::size_t start = std::lower_bound(ring_.begin(), ring_.end(), h,
                                       [](const Point& p, std::uint64_t v) {
                                         return p.hash < v;
                                       }) -
                      ring_.begin();
  std::vector<std::size_t> order;
  order.reserve(backends_);
  std::vector<bool> seen(backends_, false);
  for (std::size_t i = 0; i < ring_.size() && order.size() < backends_; ++i) {
    const Point& p = ring_[(start + i) % ring_.size()];
    if (!seen[p.backend]) {
      seen[p.backend] = true;
      order.push_back(p.backend);
    }
  }
  return order;
}

// ---------------------------------------------------------------------------
// Circuit breaker.

CircuitBreaker::CircuitBreaker(const CircuitBreakerConfig& config)
    : config_(config) {
  OCPS_CHECK(config.failure_threshold > 0,
             "breaker failure_threshold must be positive");
  OCPS_CHECK(config.cooldown.count() >= 0, "breaker cooldown must be >= 0");
  OCPS_CHECK(config.probe_successes > 0,
             "breaker probe_successes must be positive");
}

bool CircuitBreaker::allow(TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now - opened_at_ < config_.cooldown) return false;
      // Cooldown over: this caller becomes the half-open probe.
      state_ = State::kHalfOpen;
      half_open_successes_ = 0;
      probe_in_flight_ = true;
      return true;
    case State::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return false;  // unreachable
}

void CircuitBreaker::record_success(TimePoint) {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen) {
    probe_in_flight_ = false;
    if (++half_open_successes_ >= config_.probe_successes) {
      state_ = State::kClosed;
      half_open_successes_ = 0;
    }
  }
}

void CircuitBreaker::record_failure(TimePoint now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= config_.failure_threshold) {
        state_ = State::kOpen;
        opened_at_ = now;
      }
      break;
    case State::kHalfOpen:
      // The probe failed: back to a full cooldown.
      state_ = State::kOpen;
      opened_at_ = now;
      probe_in_flight_ = false;
      half_open_successes_ = 0;
      break;
    case State::kOpen:
      break;  // already open; keep the original cooldown clock
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

const char* CircuitBreaker::state_name(State s) {
  switch (s) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half_open";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Router plumbing types.

struct Router::Backend {
  std::string endpoint;
  CircuitBreaker breaker;
  std::atomic<bool> up{false};  ///< last health-probe outcome

  Client probe_client;  ///< health thread's private connection

  /// Forward-attempt latency over the last 30 s, feeding the
  /// serve.router.backend_latency.<i>.window.p99 gauge.
  obs::WindowedHistogram latency_window;

  /// The backend's counters from its last `health` answer (health thread
  /// writes, gauge refresh reads).
  std::mutex fleet_mu;
  double fleet_requests = 0.0;
  double fleet_answered = 0.0;
  double fleet_shed = 0.0;
  double fleet_deadline = 0.0;

  Backend(std::string ep, const CircuitBreakerConfig& cfg)
      : endpoint(std::move(ep)), breaker(cfg) {}
};

// ---------------------------------------------------------------------------
// Lifecycle.

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      counts_({std::begin(kCountNames), std::end(kCountNames)}),
      frontend_(
          config_, "serve.router.conn_limit_rejected",
          {[this] {
             // Sole owner; shared_ptr only because std::function needs a
             // copyable closure and Client is move-only.
             auto lanes = std::make_shared<Lanes>(config_.backends.size());
             return [this, lanes](const std::shared_ptr<Connection>& conn,
                                  const std::string& line) {
               handle_line(conn, line, *lanes);
             };
           },
           [this] { counts_.add(kMalformed); },
           [this] { refresh_gauges(); }}) {
  OCPS_CHECK(!config_.backends.empty(),
             "router: at least one backend endpoint is required");
  OCPS_CHECK(config_.vnodes > 0, "router: vnodes must be positive");
  OCPS_CHECK(config_.connect_timeout.count() > 0,
             "router: connect_timeout must be positive");
  OCPS_CHECK(config_.health_interval.count() > 0,
             "router: health_interval must be positive");
  OCPS_CHECK(config_.default_deadline_ms >= 0.0 &&
                 config_.default_deadline_ms <= kMaxDeadlineMs,
             "router: default_deadline_ms must be in [0, 2^31 - 1]");
  ring_ = std::make_unique<HashRing>(config_.backends.size(), config_.vnodes);
  backends_.reserve(config_.backends.size());
  for (const std::string& ep : config_.backends)
    backends_.push_back(std::make_unique<Backend>(ep, config_.breaker));
  slo_ = make_slo_tracker(config_.slo_p99_ms, config_.slo_availability);
  trace_seed_ = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

Router::~Router() { stop(); }

Result<bool> Router::start() {
  OCPS_CHECK(!started_.exchange(true), "Router::start called twice");

  // Eager metric registration (the obs.spans_dropped precedent): the
  // first Prometheus scrape must expose the complete serve.router.*
  // series, zero-valued, before any traffic or fault has occurred —
  // dashboards and alert rules need the series to exist to match on it.
  // The counter set exports from construction; the front end counts
  // connection-limit refusals in the registry.
  if (obs::enabled()) {
    obs::counter("serve.router.conn_limit_rejected");
    obs::gauge("serve.router.backends")
        .set(static_cast<double>(backends_.size()));
    obs::gauge("serve.router.backends_healthy").set(0.0);
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      obs::gauge("serve.router.backend_up." + std::to_string(i)).set(0.0);
      obs::histogram("serve.router.backend_latency." + std::to_string(i));
      obs::gauge("serve.router.backend_latency." + std::to_string(i) +
                 ".window.p99")
          .set(0.0);
    }
    static const char* kFleet[] = {
        "serve.fleet.requests", "serve.fleet.answered", "serve.fleet.shed",
        "serve.fleet.deadline_exceeded"};
    for (const char* name : kFleet) obs::gauge(name).set(0.0);
    if (slo_->configured()) refresh_gauges();
  }

  started_at_ = Clock::now();
  Result<bool> listening = frontend_.start();
  if (!listening.ok()) return listening;
  health_thread_ = std::thread([this] { health_loop(); });
  return Ok(true);
}

void Router::stop() {
  frontend_.request_stop();
  if (!started_.load() || joined_.exchange(true)) return;

  // Reader threads finish the request they are forwarding (bounded by
  // io_timeout) and exit on the next poll tick.
  frontend_.stop();
  if (health_thread_.joinable()) health_thread_.join();
}

CircuitBreaker::State Router::breaker_state(std::size_t i) const {
  OCPS_CHECK(i < backends_.size(), "breaker_state: backend out of range");
  return backends_[i]->breaker.state();
}

Router::Counters Router::counters() const {
  Counters c;
  c.requests = counts_.value(kRequests);
  c.forwarded = counts_.value(kForwarded);
  c.failovers = counts_.value(kFailovers);
  c.relayed_errors = counts_.value(kRelayedErrors);
  c.no_backend = counts_.value(kNoBackend);
  c.all_open = counts_.value(kAllOpen);
  c.malformed = counts_.value(kMalformed);
  c.reloads = counts_.value(kReloads);
  c.deadline_exceeded = counts_.value(kDeadlineExceeded);
  c.health_probes = counts_.value(kHealthProbes);
  c.health_failures = counts_.value(kHealthFailures);
  return c;
}

// ---------------------------------------------------------------------------
// Request handling.

std::string Router::route_key(const Request& req) {
  if (!req.programs.empty()) {
    // The profile-set id: the sorted member list, so {"a","b"} and
    // {"b","a"} land on the same backend and keep its DP state warm.
    std::vector<std::string> names = req.programs;
    std::sort(names.begin(), names.end());
    std::string key;
    for (const std::string& n : names) {
      key += n;
      key += ',';
    }
    return key;
  }
  // No named tenants (sweep-all, slowlog): spread by op + shape.
  return std::string("op:") + op_name(req.op) + ":" +
         std::to_string(req.group_size) + ":" + std::to_string(req.capacity);
}

void Router::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line, Lanes& lanes) {
  counts_.add(kRequests);

  Result<Request> parsed = parse_request(line);
  if (!parsed.ok()) {
    counts_.add(kMalformed);
    conn->send_line(
        error_response(0, kCodeBadRequest, parsed.error().message));
    return;
  }
  Request req = std::move(parsed.value());

  switch (req.op) {
    case Op::kHealth:
      handle_health_local(conn, req);
      return;
    case Op::kMetrics: {
      json::Value head;
      head.set("role", json::Value("router"));
      head.set("uptime_ms", json::Value(ms_since(started_at_, Clock::now())));
      conn->send_line(metrics_response(req.id, std::move(head),
                                       [this] { refresh_gauges(); }));
      return;
    }
    case Op::kReload:
      fan_out_reload(conn, req, line, lanes);
      return;
    case Op::kTrace:
      handle_trace_local(conn, req, lanes);
      return;
    case Op::kSlo:
      // The router's own tracker (fleet-level burn); answers even with
      // obs off.
      conn->send_line(ok_response(req.id, slo_json(*slo_, "router")));
      return;
    case Op::kDecisions:
      handle_decisions_local(conn, req, lanes);
      return;
    case Op::kReconcile:
      handle_reconcile_local(conn, req, lanes);
      return;
    case Op::kPartition:
    case Op::kSweep:
    case Op::kSlowlog:
      break;
  }

  if (stop_requested()) {
    conn->send_line(
        error_response(req.id, kCodeShuttingDown, "router is draining"));
    return;
  }
  forward(conn, req, lanes);
}

std::uint64_t Router::next_trace_nonce() {
  std::uint64_t state =
      trace_seed_ + trace_counter_.fetch_add(1, std::memory_order_relaxed);
  // Odd and below 2^53, so the id survives the wire's doubles exactly.
  return (splitmix64(state) >> 11) | 1ULL;
}

void Router::record_backend_latency(std::size_t idx, double ms) {
  if (!obs::enabled()) return;
  backends_[idx]->latency_window.observe(ms);
  obs::histogram("serve.router.backend_latency." + std::to_string(idx))
      .observe(ms);
}

Result<Response> Router::call_backend(Client& lane, std::size_t idx,
                                      const std::string& line,
                                      std::chrono::milliseconds timeout) {
  if (!lane.connected()) {
    Result<Client> fresh = Client::connect(
        backends_[idx]->endpoint, std::min(config_.connect_timeout, timeout));
    if (!fresh.ok()) return fresh.error();
    lane = std::move(fresh.value());
  }
  Result<Response> r = lane.call(line, timeout);
  if (!r.ok()) lane = Client();
  return r;
}

void Router::forward(const std::shared_ptr<Connection>& conn,
                     const Request& req, Lanes& lanes) {
  const Clock::time_point fwd_start = Clock::now();

  // Trace context: adopt the client's trace_id (minting one when absent)
  // and stamp this tier onto the forwarded line — parent_span is this
  // forward's nonce, hop is incremented — so backend spans link back to
  // the router span below. The response is still relayed verbatim.
  const std::uint64_t trace_id =
      req.trace_id != 0 ? req.trace_id : next_trace_nonce();
  const std::uint64_t span_nonce = next_trace_nonce();
  Request fwd_req = req;
  fwd_req.trace_id = trace_id;
  fwd_req.parent_span = span_nonce;
  fwd_req.hop = req.hop + 1;
  const std::string fwd_line = encode_request(fwd_req);

  obs::ScopedSpan span("serve.router.forward", "router");
  span.set_trace_id(trace_id);
  span.set_arg("span_nonce", span_nonce);

  // The router's own SLO is judged on what the client experienced:
  // whole-walk latency, success = a definitive ok answer.
  auto finish = [&](bool ok) {
    slo_->record(ms_since(fwd_start, Clock::now()), ok, obs::steady_now_ns());
  };

  const std::vector<std::size_t> order = ring_->order_for(route_key(req));
  obs::instant_event("serve.router.placement", "router", "primary",
                     static_cast<std::uint64_t>(order.front()), trace_id);

  // The request deadline is the failover budget; without one, io_timeout
  // bounds the whole walk so a dead fleet cannot wedge the lane.
  double budget_ms =
      req.deadline_ms > 0.0 ? req.deadline_ms : config_.default_deadline_ms;
  const Clock::time_point deadline =
      budget_ms > 0.0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   budget_ms))
          : Clock::now() + config_.io_timeout;

  bool any_allowed = false;
  bool have_relay = false;
  Response relay;

  for (std::size_t idx : order) {
    Clock::time_point now = Clock::now();
    if (now >= deadline) {
      counts_.add(kDeadlineExceeded);
      conn->send_line(error_response(req.id, kCodeDeadlineExceeded,
                                     "deadline exceeded while forwarding"));
      finish(false);
      return;
    }
    Backend& b = *backends_[idx];
    if (!b.breaker.allow(now)) {
      obs::instant_event("serve.router.breaker_skip", "router", "backend",
                         static_cast<std::uint64_t>(idx), trace_id);
      continue;
    }
    any_allowed = true;

    const Clock::time_point attempt_start = Clock::now();
    Result<Response> r =
        call_backend(lanes[idx], idx, fwd_line, clamp_left(deadline, now));
    record_backend_latency(idx, ms_since(attempt_start, Clock::now()));
    if (!r.ok()) {
      // Transport failure (connect or call): fail over.
      b.breaker.record_failure(Clock::now());
      counts_.add(kFailovers);
      obs::instant_event("serve.router.failover", "router", "backend",
                         static_cast<std::uint64_t>(idx), trace_id);
      continue;
    }
    Response& resp = r.value();
    if (resp.ok || !retryable_code(resp.code)) {
      // Definitive: relay verbatim (the backend echoed the client's id).
      b.breaker.record_success(Clock::now());
      if (!resp.ok) counts_.add(kRelayedErrors);
      counts_.add(kForwarded);
      conn->send_line(resp.body.dump());
      finish(resp.ok);
      return;
    }
    // Retryable status. 429 means alive-but-overloaded: that is load
    // information, not a health failure — shedding backends must not
    // trip breakers and amplify the overload. 503/504 count against it.
    if (resp.code == kCodeQueueFull)
      b.breaker.record_success(Clock::now());
    else
      b.breaker.record_failure(Clock::now());
    have_relay = true;
    relay = std::move(resp);
    counts_.add(kFailovers);
    obs::instant_event("serve.router.failover", "router", "backend",
                       static_cast<std::uint64_t>(idx), trace_id);
  }

  if (have_relay) {
    // Every replica answered with a retryable status (e.g. the whole
    // fleet is shedding): the last one is the truth — relay it so the
    // client sees an honest 429/503/504 it can back off on.
    counts_.add(kRelayedErrors);
    conn->send_line(relay.body.dump());
    finish(false);
    return;
  }
  if (!any_allowed) {
    counts_.add(kAllOpen);
    conn->send_line(error_response(
        req.id, kCodeShuttingDown,
        "no backend available (all circuit breakers open)"));
    finish(false);
    return;
  }
  counts_.add(kNoBackend);
  conn->send_line(
      error_response(req.id, kCodeBadGateway, "no backend answered"));
  finish(false);
}

void Router::fan_out_reload(const std::shared_ptr<Connection>& conn,
                            const Request& req, const std::string& line,
                            Lanes& lanes) {
  // Reload reaches every backend, breaker or no breaker: a suspect
  // backend that is actually alive must not come back serving a stale
  // profile set. Never retried — a lost response may mean the swap
  // already happened on that backend.
  counts_.add(kReloads);
  std::size_t ok_count = 0;
  std::string first_error;
  for (std::size_t idx = 0; idx < backends_.size(); ++idx) {
    Backend& b = *backends_[idx];
    Result<Response> r =
        call_backend(lanes[idx], idx, line, config_.io_timeout);
    if (!r.ok()) {
      b.breaker.record_failure(Clock::now());
      if (first_error.empty())
        first_error = b.endpoint + ": " + r.error().message;
      continue;
    }
    b.breaker.record_success(Clock::now());
    if (r.value().ok) {
      ++ok_count;
    } else if (first_error.empty()) {
      first_error = b.endpoint + ": " + r.value().error;
    }
  }
  if (ok_count == backends_.size()) {
    json::Value body;
    body.set("backends", json::Value(static_cast<double>(ok_count)));
    conn->send_line(ok_response(req.id, std::move(body)));
    return;
  }
  conn->send_line(error_response(
      req.id, kCodeBadGateway,
      "reload failed on " +
          std::to_string(backends_.size() - ok_count) + "/" +
          std::to_string(backends_.size()) + " backends: " + first_error));
}

void Router::handle_health_local(const std::shared_ptr<Connection>& conn,
                                 const Request& req) {
  json::Value body;
  body.set("role", json::Value("router"));
  body.set("uptime_ms", json::Value(ms_since(started_at_, Clock::now())));
  body.set("draining", json::Value(stop_requested()));
  json::Array rows;
  std::size_t healthy = 0;
  for (const auto& b : backends_) {
    json::Value row;
    row.set("endpoint", json::Value(b->endpoint));
    row.set("state", json::Value(CircuitBreaker::state_name(
                         b->breaker.state())));
    bool up = b->up.load();
    row.set("up", json::Value(up));
    if (up) ++healthy;
    rows.push_back(std::move(row));
  }
  body.set("backends", json::Value(std::move(rows)));
  body.set("healthy", json::Value(static_cast<double>(healthy)));
  body.set("counters", counters_json(counts_));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Router::handle_trace_local(const std::shared_ptr<Connection>& conn,
                                const Request& req, Lanes& lanes) {
  // Debug fan-out: gather every process's retained spans for this id.
  // Best effort and breaker-blind — tracing must work exactly when the
  // fleet is misbehaving, so open breakers are ignored, probe failures
  // leave breaker state untouched, and an unreachable backend simply
  // contributes no proc entry.
  json::Value body;
  body.set("trace_id", json::Value(static_cast<double>(req.trace_id)));
  json::Array procs;
  procs.push_back(trace_proc_json("router", req.trace_id));

  Request probe;
  probe.id = -1;
  probe.op = Op::kTrace;
  probe.trace_id = req.trace_id;
  const std::string probe_line = encode_request(probe);
  for (std::size_t idx = 0; idx < backends_.size(); ++idx) {
    Result<Response> r =
        call_backend(lanes[idx], idx, probe_line, config_.io_timeout);
    if (!r.ok() || !r.value().ok) continue;  // e.g. 501: obs off there
    const json::Value* backend_procs = r.value().body.find("procs");
    if (!backend_procs || !backend_procs->is_array()) continue;
    for (const json::Value& proc : backend_procs->as_array()) {
      json::Value row = proc;
      // Disambiguate replicas: "serve" becomes "serve.<backend slot>".
      const json::Value* label = row.find("proc");
      if (label && label->is_string())
        row.set("proc",
                json::Value(label->as_string() + "." + std::to_string(idx)));
      procs.push_back(std::move(row));
    }
  }
  body.set("procs", json::Value(std::move(procs)));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Router::handle_decisions_local(const std::shared_ptr<Connection>& conn,
                                    const Request& req, Lanes& lanes) {
  // Audit fan-out: every backend keeps its own decision ring, so the
  // fleet view is the union. Breaker-blind for the same reason as
  // trace — the audit trail matters most while the fleet misbehaves —
  // and an unreachable backend simply contributes no entry.
  json::Value body;
  body.set("role", json::Value("router"));
  json::Array rows;

  Request probe;
  probe.id = -1;
  probe.op = Op::kDecisions;
  probe.decision_id = req.decision_id;
  probe.limit = req.limit;
  const std::string probe_line = encode_request(probe);
  for (std::size_t idx = 0; idx < backends_.size(); ++idx) {
    Result<Response> r =
        call_backend(lanes[idx], idx, probe_line, config_.io_timeout);
    if (!r.ok() || !r.value().ok) continue;  // e.g. 404: id unknown there
    json::Value row = r.value().body;
    row.set("backend", json::Value(static_cast<double>(idx)));
    row.set("endpoint", json::Value(backends_[idx]->endpoint));
    rows.push_back(std::move(row));
  }
  if (req.decision_id != 0 && rows.empty()) {
    conn->send_line(error_response(
        req.id, kCodeNotFound,
        "no backend knows decision id " + std::to_string(req.decision_id)));
    return;
  }
  body.set("backends", json::Value(std::move(rows)));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Router::handle_reconcile_local(const std::shared_ptr<Connection>& conn,
                                    const Request& req, Lanes& lanes) {
  // Decision ids are per-daemon counters: only the backend that issued
  // the id accepts the reconcile (others answer 404), so walk the fleet
  // and relay the first acceptance. A definitive non-404 rejection
  // (422 size mismatch, 400) is relayed immediately — retrying it
  // elsewhere could double-apply on an id collision.
  const std::string fwd_line = encode_request(req);
  for (std::size_t idx = 0; idx < backends_.size(); ++idx) {
    Result<Response> r =
        call_backend(lanes[idx], idx, fwd_line, config_.io_timeout);
    if (!r.ok()) continue;
    Response& resp = r.value();
    if (!resp.ok && resp.code == kCodeNotFound) continue;
    json::Value body = resp.body;
    body.set("backend", json::Value(static_cast<double>(idx)));
    body.set("endpoint", json::Value(backends_[idx]->endpoint));
    if (resp.ok) {
      body.set("id", json::Value(static_cast<double>(req.id)));
      conn->send_line(body.dump());
    } else {
      conn->send_line(error_response(req.id, resp.code, resp.error));
    }
    return;
  }
  conn->send_line(error_response(
      req.id, kCodeNotFound,
      "no backend knows decision id " + std::to_string(req.decision_id)));
}

// ---------------------------------------------------------------------------
// Health probing + fleet aggregation.

void Router::health_loop() {
  Request probe;
  probe.id = -1;
  probe.op = Op::kHealth;
  const std::string probe_line = encode_request(probe);

  while (!stop_requested()) {
    for (std::size_t i = 0; i < backends_.size() && !stop_requested();
         ++i) {
      Backend& b = *backends_[i];
      Clock::time_point now = Clock::now();
      // allow() doubles as the half-open probe token: when the breaker
      // is open and cooled down, this probe is exactly the canary the
      // state machine wants. While it is open and cooling, skip.
      if (!b.breaker.allow(now)) continue;
      counts_.add(kHealthProbes);

      // `health` carries this backend's own counter set, whether or not
      // obs is on there; a `metrics` scrape would carry its process's.
      Result<Response> r =
          call_backend(b.probe_client, i, probe_line, config_.io_timeout);
      const bool okay = r.ok() && r.value().ok;
      const json::Value* counters =
          okay ? r.value().body.find("counters") : nullptr;
      if (counters) {
        auto pick = [&](const char* name) {
          const json::Value* v = counters->find(name);
          return v && v->is_number() ? v->as_number() : 0.0;
        };
        std::lock_guard<std::mutex> lock(b.fleet_mu);
        b.fleet_requests = pick("requests");
        b.fleet_answered = pick("answered");
        b.fleet_shed = pick("shed");
        b.fleet_deadline = pick("deadline_exceeded");
      }
      if (okay) {
        b.breaker.record_success(Clock::now());
      } else {
        b.breaker.record_failure(Clock::now());
        counts_.add(kHealthFailures);
      }
      b.up.store(okay);
    }
    refresh_gauges();

    Clock::time_point wake = Clock::now() + config_.health_interval;
    while (!stop_requested() && Clock::now() < wake)
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
}

void Router::refresh_gauges() {
  if (!obs::enabled()) return;
  std::size_t healthy = 0;
  double requests = 0.0, answered = 0.0, shed = 0.0, deadline = 0.0;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = *backends_[i];
    bool up = b.up.load();
    if (up) ++healthy;
    obs::gauge("serve.router.backend_up." + std::to_string(i))
        .set(up ? 1.0 : 0.0);
    const std::string lat_base =
        "serve.router.backend_latency." + std::to_string(i);
    obs::gauge(lat_base + ".window.p99")
        .set(obs::histogram_quantile(
            b.latency_window.snapshot(lat_base + ".window"), 0.99));
    std::lock_guard<std::mutex> lock(b.fleet_mu);
    requests += b.fleet_requests;
    answered += b.fleet_answered;
    shed += b.fleet_shed;
    deadline += b.fleet_deadline;
  }
  obs::gauge("serve.router.backends")
      .set(static_cast<double>(backends_.size()));
  obs::gauge("serve.router.backends_healthy")
      .set(static_cast<double>(healthy));
  obs::gauge("serve.fleet.requests").set(requests);
  obs::gauge("serve.fleet.answered").set(answered);
  obs::gauge("serve.fleet.shed").set(shed);
  obs::gauge("serve.fleet.deadline_exceeded").set(deadline);

  // Router-level SLO burn rates, recomputed per scrape.
  publish_slo_gauges(*slo_);
}

}  // namespace ocps::serve
