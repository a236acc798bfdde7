// Wire protocol of the partition-service daemon (`ocps serve`).
//
// Transport: a Unix domain stream socket carrying line-delimited JSON —
// one request object per line in, one response object per line out,
// answered in completion order (responses echo the request id, so a
// client may pipeline). The full protocol is documented in
// docs/serving.md; this header is the single source of truth for field
// names and status codes, shared by the server, the blocking client, the
// `ocps query` subcommand, and the integration tests.
//
// Requests:
//   {"id":1,"op":"partition","programs":["mcf","lbm"],"capacity":512,
//    "objective":"sum","deadline_ms":50}
//   {"id":2,"op":"sweep","group_size":4,"capacity":512,"deadline_ms":500}
//   {"id":3,"op":"health"}
//   {"id":4,"op":"reload","paths":["profiles/a.fp","profiles/b.fp"]}
//   {"id":5,"op":"metrics"}
//   {"id":6,"op":"slowlog"}
//   {"id":7,"op":"trace","trace_id":42}
//   {"id":8,"op":"slo"}
//   {"id":9,"op":"decisions"}                   (recent + accuracy + drift)
//   {"id":10,"op":"decisions","decision_id":17} (one record + predecessor)
//   {"id":11,"op":"reconcile","decision_id":17,"realized":[0.12,null]}
// Any request may carry a trace context: "trace_id" (a positive integer
// correlating the daemon's spans for that request in the Chrome trace
// export), plus "parent_span" (the forwarding router's span nonce) and
// "hop" (how many routing tiers the request has crossed; a daemon sees
// hop >= 1 iff the request arrived via `ocps router`). The router
// generates a trace_id when the client did not supply one and stamps
// parent_span/hop on the forwarded line, so every request in the fleet
// is traceable end to end.
//
// Responses: {"id":1,"ok":true,...} or
//   {"id":1,"ok":false,"code":429,"error":"queue full"}.
// JSON numbers are doubles, so integers are exact only below 2^53: a
// request with an integer field at or above 2^53, or an id outside
// (-2^53, 2^53), is refused with 400, and such a response id is malformed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/decision_log.hpp"
#include "obs/slo.hpp"
#include "util/json.hpp"
#include "util/result.hpp"

namespace ocps::serve {

/// Request kinds the daemon answers.
enum class Op {
  kPartition,  ///< DP allocation for one named co-run group
  kSweep,      ///< Table I-style sweep over every k-subset
  kHealth,     ///< daemon liveness + counters (answered inline)
  kReload,     ///< atomic profile-set swap (answered inline)
  kMetrics,    ///< obs registry scrape (answered inline)
  kSlowlog,    ///< top-K slowest requests (answered inline)
  kTrace,      ///< retained spans for one trace_id (answered inline)
  kSlo,        ///< SLO burn rates + alert log (answered inline)
  kDecisions,  ///< decision audit trail + accuracy + drift (inline)
  kReconcile,  ///< attach realized miss ratios to a decision (inline)
};

const char* op_name(Op op);

/// HTTP-flavoured status codes used in error responses.
inline constexpr int kCodeBadRequest = 400;        ///< malformed request
inline constexpr int kCodeNotFound = 404;          ///< unknown program name
inline constexpr int kCodeQueueFull = 429;         ///< admission shed
inline constexpr int kCodeUnprocessable = 422;     ///< rejected reload
inline constexpr int kCodeInternal = 500;          ///< unexpected failure
inline constexpr int kCodeObsDisabled = 501;       ///< obs off (OCPS_OBS unset)
inline constexpr int kCodeBadGateway = 502;        ///< router: no backend answered
inline constexpr int kCodeShuttingDown = 503;      ///< drain / overload / no backend up
inline constexpr int kCodeDeadlineExceeded = 504;  ///< deadline passed

/// One decoded request. Fields irrelevant to the op stay defaulted.
struct Request {
  std::int64_t id = 0;  ///< echoed in the response; 0 when absent
  Op op = Op::kHealth;
  std::vector<std::string> programs;  ///< partition: co-run group members
  std::size_t capacity = 0;           ///< 0 = server default
  std::string objective = "sum";      ///< "sum" | "max"
  double deadline_ms = 0.0;           ///< 0 = server default (may be none)
  std::size_t group_size = 0;         ///< sweep: k (0 = min(4, #programs))
  std::vector<std::string> paths;     ///< reload: footprint files
  /// Optional client-supplied correlation id: every span the daemon
  /// records for this request is tagged with it, so the Chrome trace
  /// export shows one connected tree per request across threads. 0 = off.
  /// For `trace` requests this is the id whose spans are being fetched.
  std::uint64_t trace_id = 0;
  /// Trace context stamped by a forwarding router: the nonce of the
  /// router span that forwarded this request (0 = direct client) and the
  /// number of routing tiers crossed so far.
  std::uint64_t parent_span = 0;
  std::size_t hop = 0;
  /// decisions: fetch exactly this record (plus its predecessor for the
  /// allocation diff); 0 = list recent ones. reconcile: the decision the
  /// realized ratios belong to (required, non-zero).
  std::uint64_t decision_id = 0;
  std::size_t limit = 0;  ///< decisions: max recent records (0 = default)
  /// reconcile: realized per-tenant miss ratios in the decision's tenant
  /// order. JSON nulls decode to NaN (tenant made no accesses).
  std::vector<double> realized;
};

/// Decodes one request line. kCorruptData for syntactically bad JSON,
/// kInvalidArgument for a well-formed object with bad fields.
Result<Request> parse_request(const std::string& line);

/// Serializes a request to one JSON line (no trailing newline), emitting
/// only the fields relevant to the op plus trace_id when non-zero. This
/// is the client-side twin of parse_request; `serve::Client` callers and
/// `ocps query` go through it so trace ids propagate uniformly.
std::string encode_request(const Request& req);

/// Response builders; each returns one JSON line WITHOUT the trailing
/// newline (the transport appends it).
std::string error_response(std::int64_t id, int code,
                           const std::string& message);
std::string ok_response(std::int64_t id, json::Value body);

/// Fields of a decoded response, as far as the generic client cares.
struct Response {
  std::int64_t id = 0;
  bool ok = false;
  int code = 0;           ///< set on errors
  std::string error;      ///< set on errors
  json::Value body;       ///< the whole response object
};

/// Decodes one response line; kCorruptData when the id or code is out
/// of range.
Result<Response> parse_response(const std::string& line);

/// The "counters" object of a `health` answer: each count of `set` keyed
/// by the last component of its name (serve.requests → "requests").
json::Value counters_json(const obs::CounterSet& set);

/// One process's contribution to a `trace` response: its retained spans
/// for `trace_id` plus the clock anchors a stitcher needs to place them
/// on a shared timeline:
///   {"proc":label,"mono_ns":<obs now>,"wall_ns":<system_clock now>,
///    "spans":[{"name","cat","ts_ns","dur_ns","tid","instant",
///              "arg_name"?,"arg"?},...]}
/// Span timestamps are nanoseconds since the process's private trace
/// epoch; `wall_ns - mono_ns` converts them to (approximate) wall-clock
/// time comparable across processes on one machine. Shared by the server
/// and router `trace` handlers so `ocps trace` stitches one format.
json::Value trace_proc_json(const std::string& proc_label,
                            std::uint64_t trace_id);

/// Wire shape of one decision record, shared by the server's
/// `decisions` handler, the controller's --decisions-out export, and
/// the `ocps decisions` / `ocps why` views:
///   {"decision_id","epoch","trigger","tenants":[...],"alloc":[...],
///    "predicted_mr":[...],"tenant_degraded":[...],"solve_ns",
///    "incremental","note"?,"reconciled","partial"?,
///    "realized_mr":[...]?,"error":[...]?}
/// Non-finite ratios/errors serialize as JSON null.
json::Value decision_json(const obs::DecisionRecord& rec);

/// {"decisions_total","reconciled","error_samples","mean_abs_error",
///  "max_abs_error","bias"} — the lifetime accuracy summary.
json::Value decision_accuracy_json(const obs::DecisionAccuracy& acc);

/// {"configured","alpha","threshold","ewma_abs_error","bias","samples",
///  "breaching","alerts_total","tenants":[...],"alerts":[...]} — drift
/// detector state plus its bounded alert log.
json::Value drift_status_json(const obs::DriftStatus& status,
                              const std::vector<obs::DriftAlert>& alerts);

/// The whole `metrics` answer, shared by the daemon and the router: 501
/// when observability is off; otherwise runs `refresh`, then answers
/// `head` extended with "metrics" (the registry snapshot as JSON) and
/// "prometheus" (the exposition text).
std::string metrics_response(std::int64_t id, json::Value head,
                             const std::function<void()>& refresh);

/// The SLO tracker of a daemon or a router. Throws CheckError unless
/// p99_ms is finite and >= 0 and availability is in [0, 1); 0 turns an
/// objective off.
std::unique_ptr<obs::SloTracker> make_slo_tracker(double p99_ms,
                                                  double availability);

/// Body of an `slo` answer, shared by the daemon and the router:
///   {"role"?,"configured","objectives":[{"name","target","budget",
///    "burn_5m","burn_1h","breaching"}],"alerts":[{"seq","at_ns",
///    "objective","burn_5m","burn_1h"}],"alerts_total"}
/// `role` is set only when a router answers for itself.
json::Value slo_json(obs::SloTracker& slo, const char* role = nullptr);

/// Publishes the serve.slo.<objective>.{target,burn_5m,burn_1h,breaching}
/// gauges and serve.slo.alerts_total; nothing when no objective is set.
/// Each process exports its own view under the same names.
void publish_slo_gauges(obs::SloTracker& slo);

}  // namespace ocps::serve
