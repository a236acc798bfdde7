// Daemon implementation. Threading model (see server.hpp for the tour):
//
//   front end (accept thread --> one reader thread per connection)
//       --> bounded queue --> batching thread
//
// Every blocking wait in the daemon is a poll()/wait_for() loop of at
// most kPollMs that re-checks the stop flag, so request_stop() can be a
// pure atomic store (and therefore safe to call from a signal handler)
// while shutdown latency stays bounded. The drain ordering in stop() is
// what guarantees zero in-flight loss: producers are joined before
// producers_done_ lets the batching thread exit, so every admitted
// request is answered before the last thread dies.

#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "combinatorics/enumerate.hpp"
#include "core/batch_engine.hpp"
#include "core/group_sweep.hpp"
#include "locality/footprint_io.hpp"
#include "locality/sanitize.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "util/check.hpp"

namespace ocps::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Stage names of the per-request latency decomposition, in pipeline
// order. Indexes match Telemetry::stage and SlowEntry::stage_ms.
constexpr std::size_t kStageCount = 4;
constexpr const char* kStageNames[kStageCount] = {"queue_wait", "solve",
                                                  "serialize", "network"};

// The daemon's counter set, in `health` order: one name per Count.
enum Count : std::size_t {
  kRequests, kAnswered, kShed, kDeadlineExceeded, kMalformed, kBatches,
  kReloads, kReloadRejected, kCountTotal
};
constexpr const char* kCountNames[] = {
    "serve.requests",          "serve.answered",  "serve.shed",
    "serve.deadline_exceeded", "serve.malformed", "serve.batches",
    "serve.reloads",           "serve.reload_rejected"};
static_assert(std::size(kCountNames) == kCountTotal, "one name per Count");

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
      counts_({std::begin(kCountNames), std::end(kCountNames)}),
      frontend_(
          config_, "serve.conn_limit_rejected",
          {[this] {
             return [this](const std::shared_ptr<Connection>& conn,
                           const std::string& line) {
               handle_line(conn, line);
             };
           },
           [this] { counts_.add(kMalformed); },
           [this] { refresh_latency_gauges(); }}) {
  OCPS_CHECK(config_.capacity > 0, "serve: capacity must be positive");
  OCPS_CHECK(config_.max_batch > 0, "serve: max_batch must be positive");
  OCPS_CHECK(config_.queue_capacity > 0,
             "serve: queue_capacity must be positive");
  OCPS_CHECK(config_.default_deadline_ms >= 0.0 &&
                 std::isfinite(config_.default_deadline_ms),
             "serve: default_deadline_ms must be finite and >= 0");
  OCPS_CHECK(config_.latency_window_s > 0,
             "serve: latency_window_s must be positive");
  OCPS_CHECK(config_.decision_log_capacity > 0,
             "serve: decision_log_capacity must be positive");
  OCPS_CHECK(config_.drift_alpha > 0.0 && config_.drift_alpha <= 1.0,
             "serve: drift_alpha must be in (0, 1]");
  OCPS_CHECK(config_.drift_threshold >= 0.0 &&
                 std::isfinite(config_.drift_threshold),
             "serve: drift_threshold must be finite and >= 0");
  telemetry_ = std::make_unique<Telemetry>(config_.latency_window_s,
                                           config_.slowlog_capacity);
  slo_ = make_slo_tracker(config_.slo_p99_ms, config_.slo_availability);
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

  // Eager registration: the per-stage histograms and SLO gauges exist
  // from the first scrape (zero-valued before traffic) so dashboards and
  // the CI exposition checker see a stable series set.
  if (obs::enabled()) {
    for (const char* stage : kStageNames)
      obs::histogram(std::string("serve.stage.") + stage);
    obs::histogram("dp.prediction_error");
    obs::publish_decision_metrics(*decisions_, drift_.get(),
                                  &telemetry_->window_prediction_error,
                                  obs::steady_now_ns());
    if (slo_->configured()) refresh_latency_gauges();
  }

  started_at_ = Clock::now();
  Result<bool> listening = frontend_.start();
  if (!listening.ok()) return listening;
  batch_thread_ = std::thread([this] { batch_loop(); });
  return Ok(true);
}

void Server::stop() {
  frontend_.request_stop();
  if (!started_.load() || joined_.exchange(true)) return;

  // 1 + 2. No new connections, then no new requests (frontend.hpp).
  frontend_.stop();

  // 3. Only now may the batching thread exit on empty — everything that
  // made it into the queue gets answered first (zero in-flight loss).
  producers_done_.store(true);
  queue_cv_.notify_all();
  if (batch_thread_.joinable()) batch_thread_.join();
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
  c.requests = counts_.value(kRequests);
  c.answered = counts_.value(kAnswered);
  c.shed = counts_.value(kShed);
  c.deadline_exceeded = counts_.value(kDeadlineExceeded);
  c.malformed = counts_.value(kMalformed);
  c.batches = counts_.value(kBatches);
  c.reloads = counts_.value(kReloads);
  c.reload_rejected = counts_.value(kReloadRejected);
  return c;
}

std::shared_ptr<const ProfileSet> Server::profiles() const {
  std::lock_guard<std::mutex> guard(profiles_mutex_);
  return profiles_;
}

// ---------------------------------------------------------------------------
// Request admission.

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  counts_.add(kRequests);

  // Admission span on the reader thread; tagged with the client's
  // trace_id so the export links it to the solve span on the batching
  // thread into one per-request tree.
  obs::ScopedSpan admit("serve.admit", "serve");

  Result<Request> parsed = parse_request(line);
  if (!parsed.ok()) {
    counts_.add(kMalformed);
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
    counts_.add(kMalformed);
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

  if (stop_requested()) {
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
    counts_.add(kShed);
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
  body.set("draining", json::Value(stop_requested()));
  body.set("counters", counters_json(counts_));
  conn->send_line(ok_response(req.id, std::move(body)));
}

void Server::handle_reload(const std::shared_ptr<Connection>& conn,
                           const Request& req) {
  std::lock_guard<std::mutex> reload_guard(reload_mutex_);

  auto reject = [&](const std::string& why) {
    counts_.add(kReloadRejected);
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
  counts_.add(kReloads);
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
  publish_slo_gauges(*slo_);

  // Decision-quality gauges (dp.decision.* / dp.drift.*), same
  // recompute-per-scrape contract as the quantile gauges above.
  obs::publish_decision_metrics(*decisions_, drift_.get(),
                                &telemetry_->window_prediction_error,
                                obs::steady_now_ns());
}

void Server::handle_metrics(const std::shared_ptr<Connection>& conn,
                            const Request& req) {
  json::Value head;
  head.set("version", json::Value(static_cast<double>(profile_version())));
  head.set("uptime_ms", json::Value(ms_since(started_at_, Clock::now())));
  head.set("window_s",
           json::Value(static_cast<double>(config_.latency_window_s)));
  conn->send_line(metrics_response(req.id, std::move(head),
                                   [this] { refresh_latency_gauges(); }));
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
        "observability disabled (OCPS_OBS unset)"));
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
  // the obs registry: it answers even with obs off.
  conn->send_line(ok_response(req.id, slo_json(*slo_)));
}

void Server::handle_decisions(const std::shared_ptr<Connection>& conn,
                              const Request& req) {
  // Like slo/slowlog, the decision log is server-owned state independent
  // of the obs registry: it answers even with obs off.
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
  const std::uint64_t now = obs::steady_now_ns();
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
      if (!stop_requested() && config_.hold_batching &&
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
  counts_.add(kBatches);
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
      counts_.add(kDeadlineExceeded);
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
      counts_.add(kDeadlineExceeded);
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
  decision.at_ns = obs::steady_now_ns();
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
  if (answered) counts_.add(kAnswered);
  Clock::time_point send_start = Clock::now();
  p.conn->send_line(line);
  Clock::time_point now = Clock::now();
  const double ms = ms_since(p.enqueued, now);
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

  // SLO accounting is independent of the runtime flag, so burn rates
  // keep working with obs off.
  slo_->record(ms, answered, obs::steady_now_ns());

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
