#include "serve/protocol.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps::serve {

const char* op_name(Op op) {
  switch (op) {
    case Op::kPartition: return "partition";
    case Op::kSweep: return "sweep";
    case Op::kHealth: return "health";
    case Op::kReload: return "reload";
    case Op::kMetrics: return "metrics";
    case Op::kSlowlog: return "slowlog";
    case Op::kTrace: return "trace";
    case Op::kSlo: return "slo";
    case Op::kDecisions: return "decisions";
    case Op::kReconcile: return "reconcile";
  }
  return "?";
}

namespace {

Result<std::vector<std::string>> string_list(const json::Value& obj,
                                             std::string_view key) {
  std::vector<std::string> out;
  const json::Value* v = obj.find(key);
  if (!v) return Ok(std::move(out));
  if (!v->is_array())
    return Err(ErrorCode::kInvalidArgument,
               std::string(key) + " must be an array of strings");
  for (const json::Value& item : v->as_array()) {
    if (!item.is_string())
      return Err(ErrorCode::kInvalidArgument,
                 std::string(key) + " must be an array of strings");
    out.push_back(item.as_string());
  }
  return Ok(std::move(out));
}

// 2^53: the parser may already have rounded an integer this large.
constexpr double kExactLimit = 9007199254740992.0;

Result<std::size_t> size_field(const json::Value& obj, std::string_view key,
                               std::size_t fallback) {
  const json::Value* v = obj.find(key);
  if (!v) return Ok(std::move(fallback));
  if (!v->is_number() || v->as_number() < 0 ||
      v->as_number() >= kExactLimit ||
      v->as_number() != std::floor(v->as_number()))
    return Err(ErrorCode::kInvalidArgument,
               std::string(key) + " must be an integer in [0, 2^53)");
  return Ok(static_cast<std::size_t>(v->as_number()));
}

// The id of a request or response, exact or refused.
Result<std::int64_t> id_field(const json::Value& obj) {
  const double id = obj.get_number("id", 0.0);
  if (!(std::fabs(id) < kExactLimit))
    return Err(ErrorCode::kInvalidArgument, "|id| must be below 2^53");
  return Ok(static_cast<std::int64_t>(id));
}

}  // namespace

Result<Request> parse_request(const std::string& line) {
  Result<json::Value> parsed = json::parse(line);
  if (!parsed.ok()) return parsed.error();
  const json::Value& obj = parsed.value();
  if (!obj.is_object())
    return Err(ErrorCode::kInvalidArgument, "request must be a JSON object");

  Request req;
  auto id = id_field(obj);
  if (!id.ok()) return id.error();
  req.id = id.value();

  std::string op = obj.get_string("op", "");
  if (op == "partition") req.op = Op::kPartition;
  else if (op == "sweep") req.op = Op::kSweep;
  else if (op == "health") req.op = Op::kHealth;
  else if (op == "reload") req.op = Op::kReload;
  else if (op == "metrics") req.op = Op::kMetrics;
  else if (op == "slowlog") req.op = Op::kSlowlog;
  else if (op == "trace") req.op = Op::kTrace;
  else if (op == "slo") req.op = Op::kSlo;
  else if (op == "decisions") req.op = Op::kDecisions;
  else if (op == "reconcile") req.op = Op::kReconcile;
  else
    return Err(ErrorCode::kInvalidArgument,
               op.empty() ? "missing \"op\"" : "unknown op \"" + op + "\"");

  auto programs = string_list(obj, "programs");
  if (!programs.ok()) return programs.error();
  req.programs = std::move(programs.value());

  auto paths = string_list(obj, "paths");
  if (!paths.ok()) return paths.error();
  req.paths = std::move(paths.value());

  auto capacity = size_field(obj, "capacity", 0);
  if (!capacity.ok()) return capacity.error();
  req.capacity = capacity.value();

  auto group_size = size_field(obj, "group_size", 0);
  if (!group_size.ok()) return group_size.error();
  req.group_size = group_size.value();

  req.objective = obj.get_string("objective", "sum");
  if (req.objective != "sum" && req.objective != "max")
    return Err(ErrorCode::kInvalidArgument,
               "objective must be \"sum\" or \"max\"");

  req.deadline_ms = obj.get_number("deadline_ms", 0.0);
  if (!(req.deadline_ms >= 0.0 && req.deadline_ms <= kMaxDeadlineMs))
    return Err(ErrorCode::kInvalidArgument,
               "deadline_ms must be a number in [0, 2^31 - 1]");

  auto trace_id = size_field(obj, "trace_id", 0);
  if (!trace_id.ok()) return trace_id.error();
  req.trace_id = static_cast<std::uint64_t>(trace_id.value());

  auto parent_span = size_field(obj, "parent_span", 0);
  if (!parent_span.ok()) return parent_span.error();
  req.parent_span = static_cast<std::uint64_t>(parent_span.value());

  auto hop = size_field(obj, "hop", 0);
  if (!hop.ok()) return hop.error();
  req.hop = hop.value();

  auto decision_id = size_field(obj, "decision_id", 0);
  if (!decision_id.ok()) return decision_id.error();
  req.decision_id = static_cast<std::uint64_t>(decision_id.value());

  auto limit = size_field(obj, "limit", 0);
  if (!limit.ok()) return limit.error();
  req.limit = limit.value();

  if (const json::Value* realized = obj.find("realized")) {
    if (!realized->is_array())
      return Err(ErrorCode::kInvalidArgument,
                 "realized must be an array of numbers or nulls");
    for (const json::Value& item : realized->as_array()) {
      if (item.is_number())
        req.realized.push_back(item.as_number());
      else if (item.is_null())
        req.realized.push_back(std::nan(""));  // zero-access tenant
      else
        return Err(ErrorCode::kInvalidArgument,
                   "realized must be an array of numbers or nulls");
    }
  }

  switch (req.op) {
    case Op::kPartition:
      if (req.programs.empty())
        return Err(ErrorCode::kInvalidArgument,
                   "partition needs a non-empty \"programs\" list");
      break;
    case Op::kReload:
      if (req.paths.empty())
        return Err(ErrorCode::kInvalidArgument,
                   "reload needs a non-empty \"paths\" list");
      break;
    case Op::kTrace:
      if (req.trace_id == 0)
        return Err(ErrorCode::kInvalidArgument,
                   "trace needs a non-zero \"trace_id\"");
      break;
    case Op::kReconcile:
      if (req.decision_id == 0)
        return Err(ErrorCode::kInvalidArgument,
                   "reconcile needs a non-zero \"decision_id\"");
      if (req.realized.empty())
        return Err(ErrorCode::kInvalidArgument,
                   "reconcile needs a non-empty \"realized\" array");
      break;
    case Op::kSweep:
    case Op::kHealth:
    case Op::kMetrics:
    case Op::kSlowlog:
    case Op::kSlo:
    case Op::kDecisions:
      break;
  }
  return Ok(std::move(req));
}

std::string encode_request(const Request& req) {
  json::Value out;
  out.set("id", json::Value(static_cast<double>(req.id)));
  out.set("op", json::Value(op_name(req.op)));
  if (!req.programs.empty()) {
    json::Array programs;
    programs.reserve(req.programs.size());
    for (const std::string& name : req.programs) programs.emplace_back(name);
    out.set("programs", json::Value(std::move(programs)));
  }
  if (!req.paths.empty()) {
    json::Array paths;
    paths.reserve(req.paths.size());
    for (const std::string& path : req.paths) paths.emplace_back(path);
    out.set("paths", json::Value(std::move(paths)));
  }
  if (req.capacity > 0)
    out.set("capacity", json::Value(static_cast<double>(req.capacity)));
  if (req.group_size > 0)
    out.set("group_size", json::Value(static_cast<double>(req.group_size)));
  if (req.objective != "sum") out.set("objective", json::Value(req.objective));
  if (req.deadline_ms > 0.0)
    out.set("deadline_ms", json::Value(req.deadline_ms));
  if (req.trace_id != 0)
    out.set("trace_id", json::Value(static_cast<double>(req.trace_id)));
  if (req.parent_span != 0)
    out.set("parent_span", json::Value(static_cast<double>(req.parent_span)));
  if (req.hop != 0) out.set("hop", json::Value(static_cast<double>(req.hop)));
  if (req.decision_id != 0)
    out.set("decision_id",
            json::Value(static_cast<double>(req.decision_id)));
  if (req.limit != 0)
    out.set("limit", json::Value(static_cast<double>(req.limit)));
  if (!req.realized.empty()) {
    json::Array realized;
    realized.reserve(req.realized.size());
    // Non-finite entries dump as null and parse back to NaN.
    for (double v : req.realized) realized.emplace_back(v);
    out.set("realized", json::Value(std::move(realized)));
  }
  return out.dump();
}

std::string error_response(std::int64_t id, int code,
                           const std::string& message) {
  json::Value out;
  out.set("id", json::Value(static_cast<double>(id)));
  out.set("ok", json::Value(false));
  out.set("code", json::Value(static_cast<double>(code)));
  out.set("error", json::Value(message));
  return out.dump();
}

std::string ok_response(std::int64_t id, json::Value body) {
  json::Value out;
  out.set("id", json::Value(static_cast<double>(id)));
  out.set("ok", json::Value(true));
  if (body.is_object())
    for (const auto& [k, v] : body.as_object()) out.set(k, v);
  return out.dump();
}

json::Value trace_proc_json(const std::string& proc_label,
                            std::uint64_t trace_id) {
  json::Value proc;
  proc.set("proc", json::Value(proc_label));
  proc.set("mono_ns", json::Value(static_cast<double>(obs::now_ns())));
  proc.set("wall_ns",
           json::Value(static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count())));
  json::Array spans;
  for (const obs::TraceEvent& e : obs::trace_events_for(trace_id)) {
    json::Value row;
    row.set("name", json::Value(e.name ? e.name : ""));
    row.set("cat", json::Value(e.cat ? e.cat : "ocps"));
    row.set("ts_ns", json::Value(static_cast<double>(e.ts_ns)));
    row.set("dur_ns", json::Value(static_cast<double>(e.dur_ns)));
    row.set("tid", json::Value(static_cast<double>(e.tid)));
    row.set("instant", json::Value(e.instant));
    if (e.arg_name) {
      row.set("arg_name", json::Value(e.arg_name));
      row.set("arg", json::Value(static_cast<double>(e.arg)));
    }
    spans.push_back(std::move(row));
  }
  proc.set("spans", json::Value(std::move(spans)));
  return proc;
}

json::Value decision_json(const obs::DecisionRecord& rec) {
  json::Value out;
  out.set("decision_id", json::Value(static_cast<double>(rec.id)));
  out.set("epoch", json::Value(static_cast<double>(rec.epoch)));
  out.set("trigger", json::Value(obs::decision_trigger_name(rec.trigger)));
  json::Array tenants, alloc, predicted, degraded;
  tenants.reserve(rec.tenants.size());
  for (const std::string& t : rec.tenants) tenants.emplace_back(t);
  alloc.reserve(rec.alloc.size());
  for (std::size_t units : rec.alloc)
    alloc.emplace_back(static_cast<double>(units));
  predicted.reserve(rec.predicted_mr.size());
  for (double v : rec.predicted_mr) predicted.emplace_back(v);
  degraded.reserve(rec.tenant_degraded.size());
  for (bool d : rec.tenant_degraded) degraded.emplace_back(d);
  out.set("tenants", json::Value(std::move(tenants)));
  out.set("alloc", json::Value(std::move(alloc)));
  out.set("predicted_mr", json::Value(std::move(predicted)));
  out.set("tenant_degraded", json::Value(std::move(degraded)));
  out.set("solve_ns", json::Value(static_cast<double>(rec.solve_ns)));
  out.set("incremental", json::Value(rec.incremental));
  if (!rec.note.empty()) out.set("note", json::Value(rec.note));
  out.set("reconciled", json::Value(rec.reconciled));
  if (rec.reconciled) {
    if (rec.partial) out.set("partial", json::Value(true));
    json::Array realized, error;
    realized.reserve(rec.realized_mr.size());
    for (double v : rec.realized_mr) realized.emplace_back(v);
    error.reserve(rec.error.size());
    for (double v : rec.error) error.emplace_back(v);
    out.set("realized_mr", json::Value(std::move(realized)));
    out.set("error", json::Value(std::move(error)));
  }
  return out;
}

json::Value decision_accuracy_json(const obs::DecisionAccuracy& acc) {
  json::Value out;
  out.set("decisions_total",
          json::Value(static_cast<double>(acc.decisions_total)));
  out.set("reconciled",
          json::Value(static_cast<double>(acc.reconciled_total)));
  out.set("error_samples",
          json::Value(static_cast<double>(acc.error_samples)));
  out.set("mean_abs_error", json::Value(acc.mean_abs_error));
  out.set("max_abs_error", json::Value(acc.max_abs_error));
  out.set("bias", json::Value(acc.mean_signed_error));
  return out;
}

json::Value drift_status_json(const obs::DriftStatus& status,
                              const std::vector<obs::DriftAlert>& alerts) {
  json::Value out;
  out.set("configured", json::Value(status.configured));
  out.set("alpha", json::Value(status.alpha));
  out.set("threshold", json::Value(status.threshold));
  out.set("ewma_abs_error", json::Value(status.ewma_abs));
  out.set("bias", json::Value(status.bias));
  out.set("samples", json::Value(static_cast<double>(status.samples)));
  out.set("breaching", json::Value(status.breaching));
  out.set("alerts_total",
          json::Value(static_cast<double>(status.alerts_total)));
  json::Array tenants;
  tenants.reserve(status.tenants.size());
  for (const obs::DriftTenantStatus& t : status.tenants) {
    json::Value row;
    row.set("tenant", json::Value(t.tenant));
    row.set("ewma_abs_error", json::Value(t.ewma_abs));
    row.set("bias", json::Value(t.bias));
    row.set("samples", json::Value(static_cast<double>(t.samples)));
    tenants.push_back(std::move(row));
  }
  out.set("tenants", json::Value(std::move(tenants)));
  json::Array rows;
  rows.reserve(alerts.size());
  for (const obs::DriftAlert& a : alerts) {
    json::Value row;
    row.set("seq", json::Value(static_cast<double>(a.seq)));
    row.set("at_ns", json::Value(static_cast<double>(a.at_ns)));
    row.set("decision_id",
            json::Value(static_cast<double>(a.decision_id)));
    row.set("tenant", json::Value(a.tenant));
    row.set("ewma_abs_error", json::Value(a.ewma_abs));
    row.set("threshold", json::Value(a.threshold));
    rows.push_back(std::move(row));
  }
  out.set("alerts", json::Value(std::move(rows)));
  return out;
}

Result<Response> parse_response(const std::string& line) {
  Result<json::Value> parsed = json::parse(line);
  if (!parsed.ok()) return parsed.error();
  if (!parsed.value().is_object())
    return Err(ErrorCode::kCorruptData, "response must be a JSON object");
  Response r;
  r.body = std::move(parsed.value());
  auto id = id_field(r.body);
  const double code = r.body.get_number("code", 0.0);
  if (!id.ok() || !(std::fabs(code) <= std::numeric_limits<int>::max()))
    return Err(ErrorCode::kCorruptData, "response id or code out of range");
  r.id = id.value();
  r.ok = r.body.get_bool("ok", false);
  r.code = static_cast<int>(code);
  r.error = r.body.get_string("error", "");
  return Ok(std::move(r));
}

json::Value counters_json(const obs::CounterSet& set) {
  json::Value out;
  for (std::size_t i = 0; i < set.size(); ++i)
    out.set(set.name(i).substr(set.name(i).rfind('.') + 1),
            json::Value(static_cast<double>(set.value(i))));
  return out;
}

std::string metrics_response(std::int64_t id, json::Value head,
                             const std::function<void()>& refresh) {
  if (!obs::enabled())
    return error_response(
        id, kCodeObsDisabled,
        "observability disabled (OCPS_OBS unset)");
  refresh();
  std::ostringstream prom;
  obs::write_metrics_prometheus(prom);
  std::ostringstream js;
  obs::write_metrics_json(js);
  Result<json::Value> metrics = json::parse(js.str());
  if (metrics.ok()) head.set("metrics", std::move(metrics.value()));
  head.set("prometheus", json::Value(prom.str()));
  return ok_response(id, std::move(head));
}

std::unique_ptr<obs::SloTracker> make_slo_tracker(double p99_ms,
                                                  double availability) {
  OCPS_CHECK(p99_ms >= 0.0 && std::isfinite(p99_ms),
             "slo_p99_ms must be finite and >= 0");
  OCPS_CHECK(availability >= 0.0 && availability < 1.0,
             "slo_availability must be in [0, 1)");
  obs::SloConfig config;
  config.p99_ms = p99_ms;
  config.availability = availability;
  return std::make_unique<obs::SloTracker>(config);
}

json::Value slo_json(obs::SloTracker& slo, const char* role) {
  obs::SloTracker::Status status = slo.status(obs::steady_now_ns());
  json::Value body;
  if (role) body.set("role", json::Value(role));
  body.set("configured", json::Value(slo.configured()));
  json::Array objectives;
  for (const obs::SloTracker::Objective& o : status.objectives) {
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
  for (const obs::SloTracker::Alert& a : status.alerts) {
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
           json::Value(static_cast<double>(status.alerts_total)));
  return body;
}

void publish_slo_gauges(obs::SloTracker& slo) {
  if (!slo.configured()) return;
  obs::SloTracker::Status status = slo.status(obs::steady_now_ns());
  for (const obs::SloTracker::Objective& o : status.objectives) {
    std::string base = "serve.slo." + o.name;
    obs::gauge(base + ".target").set(o.target);
    obs::gauge(base + ".burn_5m").set(o.burn_short);
    obs::gauge(base + ".burn_1h").set(o.burn_long);
    obs::gauge(base + ".breaching").set(o.breaching ? 1.0 : 0.0);
  }
  obs::gauge("serve.slo.alerts_total")
      .set(static_cast<double>(status.alerts_total));
}

}  // namespace ocps::serve
