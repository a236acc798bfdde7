// Resident partition-service daemon (`ocps serve`).
//
// The batch CLI reloads profiles and rebuilds the DP on every invocation;
// a multi-tenant cache manager is instead deployed as a resident service
// that answers allocation queries online (Memshare, LFOC). This module is
// that layer: the daemon loads the workload suite's footprint/MRC
// profiles once, keeps the PR 3 batch engine warm (one PrefixDpSolver on
// the batching thread, the persistent ThreadPool for sweeps), and serves
// `partition` / `sweep` / `health` / `reload` requests over a Unix domain
// socket — and, with `--listen host:port`, a TCP listener sharing the
// same pipeline — speaking line-delimited JSON (serve/protocol.hpp).
//
// Request flow and the failure ladder:
//   * the shared front end (serve/frontend.hpp) owns the listeners, the
//     connection cap, framing and the reader threads; the daemon sees
//     one request line at a time;
//   * readers parse each line; malformed JSON → 400, never a crash;
//   * solver requests enter a bounded queue — admission control: when the
//     queue is full the request is shed immediately with 429 instead of
//     growing the backlog (load-shedding beats unbounded latency);
//   * group commit: whenever the batching thread is free it takes
//     whatever has queued, up to `max_batch` (a lone request is solved at
//     once; requests arriving during a solve ride the next batch), sorts
//     them for DP prefix reuse, and answers each; per-request deadlines
//     are honored cooperatively — checked before each solve and per group
//     inside the sweep loop — and expired requests get 504;
//   * `reload` builds a complete candidate profile set first — every file
//     re-validated through the PR 1 sanitizer — and atomically swaps it
//     in only when every profile is good; any bad profile rejects the
//     whole reload with 422 and keeps the last-good set serving;
//   * on SIGTERM (`request_stop()`) the daemon stops accepting, drains
//     the queue answering every admitted request (zero in-flight loss),
//     then exits.
//
// Observability (obs registry, docs/serving.md lists all fields):
// serve.queue_depth gauge, serve.batch_size + serve.request_ns
// histograms, counters serve.requests / serve.shed /
// serve.deadline_exceeded / serve.malformed / serve.reloads /
// serve.reload_rejected / serve.batches. `health` reads the same
// numbers from the server's own atomics so it works with obs off.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_matrix.hpp"
#include "core/program_model.hpp"
#include "serve/frontend.hpp"
#include "serve/protocol.hpp"
#include "util/result.hpp"

namespace ocps::obs {
class SloTracker;  // obs/slo.hpp
}

namespace ocps::serve {

/// Daemon knobs (CLI flags of `ocps serve` map 1:1 onto these; the
/// listener and connection ones are FrontendConfig's).
struct ServeConfig : FrontendConfig {
  std::size_t capacity = 1024;   ///< default / maximum cache size in units
  std::size_t max_batch = 64;    ///< max solver requests per batch
  std::size_t queue_capacity = 256;  ///< admission-control bound
  std::size_t threads = 0;       ///< sweep width (0 = auto, see SweepOptions)
  double default_deadline_ms = 0.0;  ///< per-request default; 0 = none

  /// Slow-request log size: the K slowest answered/expired requests kept
  /// for the `slowlog` op. 0 disables the log.
  std::size_t slowlog_capacity = 32;
  /// Sliding window, in seconds, for the `serve.request_latency.window.*`
  /// percentile gauges.
  unsigned latency_window_s = 30;

  /// Declarative SLOs (0 = objective off). Evaluated as multi-window
  /// burn rates (obs/slo.hpp) on every answered solver request; exposed
  /// as `serve.slo.*` gauges and via the `slo` op (which, like
  /// `slowlog`, answers even with obs off).
  double slo_p99_ms = 0.0;       ///< p99 end-to-end latency target, ms
  double slo_availability = 0.0; ///< success-rate target, e.g. 0.999

  /// Decision-quality plane (obs/decision_log.hpp): every answered
  /// `partition` request is logged with its predicted miss ratios and a
  /// decision id the client can later `reconcile` with realized ratios.
  /// Like the SLO tracker, the log answers `decisions` even with obs
  /// off; drift *alerting* engages only when drift_threshold > 0.
  std::size_t decision_log_capacity = 128;
  double drift_alpha = 0.25;     ///< EWMA weight of the newest error
  double drift_threshold = 0.0;  ///< |error| EWMA breach level, 0 = off

  /// Test seam: while *hold_batching is true the batching thread admits
  /// requests into the queue but does not drain it, making queue-full and
  /// deadline behaviour deterministic to test. Ignored during drain.
  const std::atomic<bool>* hold_batching = nullptr;
};

/// Immutable snapshot of the profiles the daemon serves. Swapped
/// atomically by `reload`; in-flight batches keep the set they started
/// with via shared_ptr.
struct ProfileSet {
  std::vector<ProgramModel> models;
  CostMatrix unit_costs;  ///< rate-weighted miss counts, capacity columns
  std::uint64_t version = 0;

  /// Index of the named program, or npos.
  std::size_t index_of(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Builds a profile set from models (validates against `capacity`).
std::shared_ptr<const ProfileSet> make_profile_set(
    std::vector<ProgramModel> models, std::size_t capacity,
    std::uint64_t version);

/// Loads + sanitizes one footprint file into a ProgramModel. Every
/// failure (unreadable file, malformed header, knots the PR 1 sanitizer
/// cannot repair) comes back as an Error — the reload path must never
/// throw on operator input.
Result<ProgramModel> load_profile(const std::string& path,
                                  std::size_t capacity);

/// The daemon. Construction validates config and profiles; start() binds
/// the socket and spawns the accept/reader/batching threads; stop()
/// drains and joins everything. A Server is single-use: once stopped it
/// cannot be restarted.
class Server {
 public:
  /// Throws CheckError on invalid config (empty socket path, zero
  /// capacity/queue) — misconfiguration is a caller bug, unlike anything
  /// arriving over the socket.
  Server(ServeConfig config, std::vector<ProgramModel> models);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens on the socket and starts the service threads.
  /// Returns an Error (kIoError) when the socket cannot be bound.
  Result<bool> start();

  /// Signals shutdown. Async-signal-safe (only stores an atomic): the
  /// SIGTERM handler of `ocps serve` calls exactly this. Threads notice
  /// within one poll interval (~50 ms) and begin the drain.
  void request_stop() noexcept { frontend_.request_stop(); }

  /// Blocks until request_stop() is observed and the drain completes,
  /// then joins every thread and removes the socket file. Idempotent.
  void stop();

  /// Blocks until request_stop() has been called (the `ocps serve` main
  /// thread parks here), without initiating the drain itself.
  void wait_until_stop_requested() const {
    frontend_.wait_until_stop_requested();
  }

  bool stop_requested() const { return frontend_.stopping(); }
  const ServeConfig& config() const { return config_; }

  /// Port the Prometheus HTTP listener actually bound (relevant when the
  /// config asked for an ephemeral port); 0 when the listener is off.
  int bound_metrics_port() const { return frontend_.bound_metrics_port(); }

  /// Port the TCP request listener actually bound (relevant when
  /// listen_address asked for port 0); 0 when TCP is off.
  int bound_listen_port() const { return frontend_.bound_listen_port(); }

  /// Requests currently admitted but not yet batched.
  std::size_t queue_depth() const;

  /// Current profile-set version (bumps on successful reload).
  std::uint64_t profile_version() const;

  /// Plain-data counters mirrored into the obs registry; `health`
  /// responses are assembled from these so they work with obs off.
  struct Counters {
    std::uint64_t requests = 0;     ///< lines received (any op)
    std::uint64_t answered = 0;     ///< solver requests answered ok
    std::uint64_t shed = 0;         ///< 429 admission rejections
    std::uint64_t deadline_exceeded = 0;  ///< 504 responses
    std::uint64_t malformed = 0;    ///< 400 parse/validation failures
    std::uint64_t batches = 0;      ///< solver batches executed
    std::uint64_t reloads = 0;      ///< successful profile swaps
    std::uint64_t reload_rejected = 0;  ///< 422 kept-last-good reloads
  };
  Counters counters() const;

 private:
  struct SolverState;

  /// One admitted solver request waiting in the batching queue.
  struct Pending {
    Request req;
    std::shared_ptr<Connection> conn;
    std::chrono::steady_clock::time_point enqueued;
    /// time_point::max() when the request has no deadline.
    std::chrono::steady_clock::time_point deadline;
    /// Stage-attribution stamps (respond() turns these into the
    /// queue_wait / solve / serialize / network stage histograms): when
    /// this request's solve began, and when response serialization began.
    std::chrono::steady_clock::time_point solve_start;
    std::chrono::steady_clock::time_point serialize_start;
  };

  void batch_loop();

  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void handle_health(const std::shared_ptr<Connection>& conn,
                     const Request& req);
  void handle_reload(const std::shared_ptr<Connection>& conn,
                     const Request& req);
  void handle_metrics(const std::shared_ptr<Connection>& conn,
                      const Request& req);
  void handle_slowlog(const std::shared_ptr<Connection>& conn,
                      const Request& req);
  void handle_trace(const std::shared_ptr<Connection>& conn,
                    const Request& req);
  void handle_slo(const std::shared_ptr<Connection>& conn,
                  const Request& req);
  void handle_decisions(const std::shared_ptr<Connection>& conn,
                        const Request& req);
  void handle_reconcile(const std::shared_ptr<Connection>& conn,
                        const Request& req);
  /// Recomputes the derived p50/p95/p99 gauges (lifetime, windowed, and
  /// per-stage) plus the serve.slo.* burn-rate gauges; called before
  /// every scrape.
  void refresh_latency_gauges();
  void process_batch(std::vector<Pending>& batch, SolverState& solver);
  void answer_partition(Pending& p,
                        const std::shared_ptr<const ProfileSet>& profiles,
                        SolverState& solver);
  void answer_sweep(Pending& p, const ProfileSet& profiles);
  void respond(Pending& p, const std::string& line, bool answered);

  std::shared_ptr<const ProfileSet> profiles() const;

  ServeConfig config_;
  std::atomic<bool> started_{false};
  std::atomic<bool> joined_{false};
  /// Set by stop() once the front end is joined: nothing can enqueue
  /// any more, so the batching thread may exit when the queue drains.
  std::atomic<bool> producers_done_{false};

  mutable std::mutex profiles_mutex_;
  std::shared_ptr<const ProfileSet> profiles_;
  std::mutex reload_mutex_;  ///< serializes reload requests

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;

  std::chrono::steady_clock::time_point started_at_;

  struct AtomicCounters;
  std::unique_ptr<AtomicCounters> counters_;

  /// Windowed latency histogram + slow-request log (see server.cpp).
  struct Telemetry;
  std::unique_ptr<Telemetry> telemetry_;

  /// Burn-rate SLO evaluation (obs/slo.hpp); always constructed, inert
  /// when no objective is configured. Independent of the obs registry so
  /// the `slo` op answers even with obs off.
  std::unique_ptr<obs::SloTracker> slo_;

  /// Decision audit trail + drift detector (obs/decision_log.hpp); like
  /// slo_, always constructed and registry-independent, so `decisions`
  /// answers with obs off. The batching thread records, `reconcile`
  /// attaches realized ratios, scrapes publish the dp.decision.* /
  /// dp.drift.* gauges.
  std::unique_ptr<obs::DecisionLog> decisions_;
  std::unique_ptr<obs::DriftDetector> drift_;
  /// Profile-set version stamped on the previous decision; the first
  /// decision after a version bump records trigger=reload.
  std::atomic<std::uint64_t> last_decision_version_{0};

  /// Listeners, connection cap, framing and reader threads; its hooks
  /// reach every member above, so it is declared (and started) after
  /// them.
  Frontend frontend_;
  std::thread batch_thread_;
};

}  // namespace ocps::serve
