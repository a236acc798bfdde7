// Fault-tolerant front tier for a fleet of partition-service daemons
// (`ocps router`).
//
// One daemon is a single point of failure; the ROADMAP north-star is a
// fleet. The router speaks the exact same line-delimited JSON protocol
// as the daemons on its front listeners (Unix socket and/or TCP), so
// every existing client works unchanged, and spreads the work across N
// backends. Its listeners, connection cap, framing and reader threads
// are the daemon's own front end (serve/frontend.hpp); each client
// connection's line handler owns that connection's backend lanes.
//
//   * Placement: consistent hashing with virtual nodes over the
//     request's profile-set id (its sorted program list), so a tenant's
//     queries keep landing on the same backend (warm DP prefix state)
//     and adding a backend only remaps ~1/N of the key space.
//   * Health: a prober thread scrapes every backend's `metrics` op on a
//     fixed interval, feeding the same per-backend circuit breaker the
//     request path uses — a dead backend is ejected within a few probe
//     intervals even with zero traffic.
//   * Failure handling: per-backend circuit breaker
//     (closed → open on consecutive failures, open → half-open after a
//     cooldown, half-open admits one probe at a time and re-closes on
//     success); the request path walks the ring's failover order,
//     skipping open breakers, and fails over to the next replica on
//     transport errors and retryable statuses (429/503/504). Definitive
//     answers (ok, 400, 404, 422, 500) are relayed verbatim. When every
//     breaker is open the client gets 503; when every attempt failed in
//     transport it gets 502.
//   * `reload` fans out to every backend (never retried — a lost
//     response may mean the swap already happened) and succeeds only if
//     the whole fleet succeeded.
//   * `health` and `metrics` are answered by the router itself:
//     router-level health lists per-backend breaker state, and the
//     metrics registry carries `serve.router.*` counters, per-backend
//     `serve.router.backend_latency.<i>` histograms, and
//     `serve.fleet.*` aggregates ingested from backend scrapes. The
//     optional loopback HTTP listener exposes the same registry to
//     Prometheus (the front end's responder, shared with the daemon).
//   * Tracing: every forwarded request carries a trace context —
//     the client's trace_id (or one the router mints), parent_span
//     (the router's forward-span nonce) and hop+1 — and the router
//     records its own spans (placement, failovers, breaker skips).
//     `trace` fans out to the backends and returns one merged
//     per-process span list; `slo` reports the router's own
//     multi-window burn rates over forward outcomes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/frontend.hpp"
#include "serve/protocol.hpp"
#include "util/result.hpp"

namespace ocps::obs {
class SloTracker;  // obs/slo.hpp
}

namespace ocps::serve {

// ---------------------------------------------------------------------------
// Consistent-hash ring.

/// Maps string keys to backends via consistent hashing with virtual
/// nodes. order_for() yields the failover sequence: every backend
/// exactly once, starting at the key's ring successor — so replica
/// choice under failure is deterministic, and two routers with the same
/// backend list agree on placement.
class HashRing {
 public:
  /// `backends` must be >= 1; `vnodes` points per backend smooth the
  /// key-space split (64 keeps the max/min load ratio near 1.2 for
  /// small fleets).
  explicit HashRing(std::size_t backends, std::size_t vnodes = 64);

  std::size_t backends() const { return backends_; }
  std::size_t primary_for(const std::string& key) const;
  std::vector<std::size_t> order_for(const std::string& key) const;

  /// FNV-1a 64-bit — the ring's key hash, exposed for tests.
  static std::uint64_t hash_key(const std::string& key);

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t backend;
  };
  std::vector<Point> ring_;  ///< sorted by hash
  std::size_t backends_;
};

// ---------------------------------------------------------------------------
// Circuit breaker.

struct CircuitBreakerConfig {
  int failure_threshold = 3;  ///< consecutive failures: closed → open
  std::chrono::milliseconds cooldown{1000};  ///< open → half-open delay
  int probe_successes = 1;  ///< half-open successes to re-close
};

/// Per-backend circuit breaker. Deterministic: time is a parameter, not
/// an ambient clock, so unit tests drive the full state machine with a
/// fake timeline. Thread-safe — the request path and the health prober
/// feed the same instance.
///
/// States: kClosed admits everything and counts consecutive failures;
/// at `failure_threshold` it opens. kOpen admits nothing until
/// `cooldown` has passed, then the next allow() becomes the half-open
/// probe. kHalfOpen admits one in-flight probe at a time;
/// `probe_successes` successes re-close, any failure re-opens (and
/// restarts the cooldown).
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit CircuitBreaker(const CircuitBreakerConfig& config);

  /// May a request be sent now? In half-open this acquires the single
  /// probe token; callers that got `true` MUST report the outcome via
  /// record_success/record_failure.
  bool allow(TimePoint now);
  void record_success(TimePoint now);
  void record_failure(TimePoint now);

  State state() const;
  static const char* state_name(State s);

 private:
  CircuitBreakerConfig config_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  bool probe_in_flight_ = false;
  TimePoint opened_at_{};
};

// ---------------------------------------------------------------------------
// The router.

/// Router knobs (CLI flags of `ocps router` map 1:1 onto these; the
/// front listener and connection ones are FrontendConfig's). One or more
/// backend endpoints are required. io_timeout also bounds each backend
/// call. net_faults arms the front connections only, as on a daemon
/// (accept failures and reset / trickle / stall write faults); backend
/// lanes are never faulted here.
struct RouterConfig : FrontendConfig {
  std::vector<std::string> backends;  ///< daemon endpoints (>= 1)

  std::size_t vnodes = 64;
  CircuitBreakerConfig breaker;
  std::chrono::milliseconds connect_timeout{1000};
  std::chrono::milliseconds health_interval{500};
  double default_deadline_ms = 0.0;  ///< forward budget when none given

  /// Fleet-level SLOs evaluated on forward outcomes (what clients of the
  /// router actually experienced, failovers included). Same semantics as
  /// the ServeConfig twins: 0 disables the objective.
  double slo_p99_ms = 0.0;
  double slo_availability = 0.0;
};

/// The front-tier daemon. Same lifecycle contract as serve::Server:
/// construction validates config, start() binds and spawns threads,
/// stop() drains and joins, single-use.
class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  Result<bool> start();
  void request_stop() noexcept { frontend_.request_stop(); }
  void stop();
  void wait_until_stop_requested() const {
    frontend_.wait_until_stop_requested();
  }
  bool stop_requested() const { return frontend_.stopping(); }

  const RouterConfig& config() const { return config_; }
  int bound_metrics_port() const { return frontend_.bound_metrics_port(); }
  int bound_listen_port() const { return frontend_.bound_listen_port(); }

  /// Breaker state of backend `i` (for tests and `health`).
  CircuitBreaker::State breaker_state(std::size_t i) const;

  struct Counters {
    std::uint64_t requests = 0;        ///< lines received on the front
    std::uint64_t forwarded = 0;       ///< answered from a backend
    std::uint64_t failovers = 0;       ///< backend attempts that failed over
    std::uint64_t relayed_errors = 0;  ///< definitive backend errors relayed
    std::uint64_t no_backend = 0;      ///< 502: every attempt failed
    std::uint64_t all_open = 0;        ///< 503: every breaker open
    std::uint64_t malformed = 0;       ///< 400 parse failures
    std::uint64_t reloads = 0;         ///< fleet-wide reload fan-outs
    std::uint64_t deadline_exceeded = 0;  ///< 504s synthesized mid-walk
    std::uint64_t health_probes = 0;
    std::uint64_t health_failures = 0;
  };
  Counters counters() const;

  /// The placement key for a request: its sorted program list (the
  /// profile-set id), or an op-derived key when no programs are named.
  /// Exposed for tests asserting placement stability.
  static std::string route_key(const Request& req);

 private:
  struct Backend;
  /// One client connection's backend clients, indexed like backends_:
  /// one lane per client connection, so reader threads never share a
  /// backend socket.
  using Lanes = std::vector<Client>;

  void health_loop();

  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line, Lanes& lanes);
  void handle_health_local(const std::shared_ptr<Connection>& conn,
                           const Request& req);
  /// Fans a `trace` request out to every reachable backend and merges
  /// their proc entries with the router's own (one stitched timeline).
  void handle_trace_local(const std::shared_ptr<Connection>& conn,
                          const Request& req, Lanes& lanes);
  /// Fans a `decisions` request out to every reachable backend
  /// (breaker-blind, like trace — the audit trail must be readable while
  /// the fleet misbehaves) and returns one "backends" array of the
  /// per-daemon audit views.
  void handle_decisions_local(const std::shared_ptr<Connection>& conn,
                              const Request& req, Lanes& lanes);
  /// Fans a `reconcile` out and relays the first backend that accepts
  /// it; decision ids are per-daemon counters, so only the issuing
  /// backend (in id order of the walk) reconciles successfully.
  void handle_reconcile_local(const std::shared_ptr<Connection>& conn,
                              const Request& req, Lanes& lanes);
  /// forward() re-encodes the request with trace context stamped on
  /// (trace_id minted when absent, parent_span = this forward's span
  /// nonce, hop+1) — the relayed response stays verbatim.
  void forward(const std::shared_ptr<Connection>& conn, const Request& req,
               Lanes& lanes);
  void fan_out_reload(const std::shared_ptr<Connection>& conn,
                      const Request& req, const std::string& line,
                      Lanes& lanes);
  /// Sends one request line to backend `idx` on `lane` (a connection's
  /// lane or the prober's), connecting it first when it is down, within
  /// min(connect_timeout, timeout). A transport error drops the lane —
  /// its stream may hold half a response — so the next call reconnects.
  Result<Response> call_backend(Client& lane, std::size_t idx,
                                const std::string& line,
                                std::chrono::milliseconds timeout);
  void refresh_gauges();
  void record_backend_latency(std::size_t idx, double ms);
  std::uint64_t next_trace_nonce();

  RouterConfig config_;
  std::unique_ptr<HashRing> ring_;
  std::vector<std::unique_ptr<Backend>> backends_;

  std::atomic<bool> started_{false};
  std::atomic<bool> joined_{false};

  std::chrono::steady_clock::time_point started_at_;

  struct AtomicCounters;
  std::unique_ptr<AtomicCounters> counters_;

  /// Fleet SLO tracker, fed by forward() outcomes (always constructed;
  /// objectives may be unset). Lives behind a pointer so the header
  /// needs only a forward declaration.
  std::unique_ptr<obs::SloTracker> slo_;

  /// Nonce stream for minted trace ids and forward-span ids: a counter
  /// whitened through splitmix64 and seeded with the construction time,
  /// so two routers do not mint colliding ids.
  std::uint64_t trace_seed_ = 0;
  std::atomic<std::uint64_t> trace_counter_{0};

  /// Front listeners and reader threads; its hooks reach every member
  /// above, so it is declared (and started) after them.
  Frontend frontend_;
  std::thread health_thread_;
};

}  // namespace ocps::serve
