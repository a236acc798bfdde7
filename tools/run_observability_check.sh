#!/usr/bin/env bash
# End-to-end check of the observability layer: runs the controller with
# tracing on and validates the emitted Chrome trace and metrics JSON
# against a lightweight schema, then starts a serve daemon, drives it
# with trace-id-tagged queries, scrapes the live Prometheus endpoint,
# and validates the exposition format plus the cross-thread request
# trace trees. Intended as the CI observability job; usable locally the
# same way:
#
#   tools/run_observability_check.sh [build-dir]
#
# Exits non-zero when the CLI fails, an artifact is missing, or an
# artifact does not look like what docs/observability.md promises.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
ocps="$build_dir/tools/ocps"

if [[ ! -x "$ocps" ]]; then
  echo "building ocps CLI into $build_dir ..."
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$(nproc)" --target ocps_cli
fi

workdir="$(mktemp -d)"
serve_pid=""
fleet_pids=()
cleanup() {
  [[ -n "$serve_pid" ]] && kill "$serve_pid" 2> /dev/null || true
  for pid in ${fleet_pids[@]+"${fleet_pids[@]}"}; do
    kill "$pid" 2> /dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

# A small deterministic trace: two interleaved scans with different
# working sets, enough accesses for several controller epochs.
awk 'BEGIN { for (i = 0; i < 8000; i++) printf "%d\n", (i % 120) * 64 }' \
  > "$workdir/a.txt"
awk 'BEGIN { for (i = 0; i < 8000; i++) printf "%d\n", (i % 450) * 64 }' \
  > "$workdir/b.txt"

"$ocps" controller "$workdir/a.txt" "$workdir/b.txt" \
  --capacity 256 --epoch 2000 \
  --trace-out "$workdir/trace.json" \
  --metrics-out "$workdir/metrics.json"

for f in trace.json metrics.json; do
  [[ -s "$workdir/$f" ]] || { echo "FAIL: $f missing or empty"; exit 1; }
done

if command -v python3 > /dev/null; then
  python3 - "$workdir/trace.json" "$workdir/metrics.json" <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert isinstance(events, list) and events, "no trace events"
for e in events:
    for key in ("name", "cat", "ph", "pid", "tid", "ts"):
        assert key in e, f"event missing {key}: {e}"
    assert e["ph"] in ("X", "i"), f"unexpected phase {e['ph']}"
names = {e["name"] for e in events}
for stage in ("epoch", "estimate", "sanitize", "dp_solve", "apply"):
    assert stage in names, f"missing controller stage span '{stage}'"
spans = [e for e in events if e["ph"] == "X"]
assert all("dur" in e for e in spans), "span without duration"

metrics = json.load(open(sys.argv[2]))
for section in ("counters", "gauges", "histograms"):
    assert section in metrics, f"missing section {section}"
counters = metrics["counters"]
assert counters.get("controller.epochs", 0) > 0, "no epochs counted"
assert "controller.repairs" in counters, "missing health counter"
hist = metrics["histograms"].get("dp.solve_ns")
assert hist and hist["count"] > 0, "missing DP solve-latency histogram"
for bucket in hist["buckets"]:
    assert bucket["hi"] is None or bucket["hi"] > bucket["lo"]

print(f"OK: {len(events)} trace events, "
      f"{len(counters)} counters, "
      f"{counters['controller.epochs']} epochs traced")
EOF
else
  # Fallback schema check without python: look for the required keys.
  grep -q '"traceEvents"' "$workdir/trace.json"
  grep -q '"name":"epoch"' "$workdir/trace.json"
  grep -q '"name":"dp_solve"' "$workdir/trace.json"
  grep -q '"counters"' "$workdir/metrics.json"
  grep -q '"controller.epochs"' "$workdir/metrics.json"
  grep -q '"dp.solve_ns"' "$workdir/metrics.json"
  echo "OK (grep fallback): artifacts contain the required keys"
fi

# ---------------------------------------------------------------------------
# Decision quality under drift: a workload whose working set jumps
# mid-run. The epoch-k decision is made from epoch-k-1 behavior, so the
# first post-shift epochs mispredict, the |error| EWMA crosses the
# threshold, and exactly the edge-triggered alert rows promised by
# docs/observability.md must land in the audit trail.

awk 'BEGIN { for (i = 0; i < 16000; i++) {
       ws = (i < 8000) ? 150 : 900; printf "%d\n", (i % ws) * 64 } }' \
  > "$workdir/shift.txt"
"$ocps" controller "$workdir/a.txt" "$workdir/shift.txt" \
  --capacity 256 --epoch 2000 --drift-threshold 0.05 \
  --decisions-out "$workdir/decisions.json" > "$workdir/drift_run.txt"
grep -q 'drift alert #' "$workdir/drift_run.txt"
grep -q 'BREACHING' "$workdir/drift_run.txt"

if command -v python3 > /dev/null; then
  python3 - "$workdir/decisions.json" <<'EOF'
import json, sys

audit = json.load(open(sys.argv[1]))
decisions = {int(d["decision_id"]): d for d in audit["decisions"]}
assert decisions, "audit trail is empty"
assert all(d["reconciled"] for d in decisions.values()), \
    "controller left decisions unreconciled"
acc = audit["accuracy"]
assert acc["reconciled"] == acc["decisions_total"], acc
drift = audit["drift"]
assert drift["configured"] and drift["breaching"], drift
alerts = drift["alerts"]
assert alerts, "no drift alert despite the working-set shift"
for alert in alerts:
    rec = decisions.get(int(alert["decision_id"]))
    assert rec is not None, \
        f"alert names decision {alert['decision_id']} not in the trail"
    assert alert["ewma_abs_error"] > alert["threshold"], alert
    assert alert["tenant"] in rec["tenants"], alert
errors = [abs(e) for d in decisions.values()
          for e in (d.get("error") or []) if e is not None]
assert errors and max(errors) > drift["threshold"], \
    "no per-tenant error exceeds the breach threshold"
print(f"OK: {len(decisions)} audited decisions, "
      f"{len(alerts)} drift alert(s), worst |error| {max(errors):.4f}")
EOF
else
  grep -q '"alerts":\[{' "$workdir/decisions.json"
  grep -q '"breaching":true' "$workdir/decisions.json"
  echo "OK (grep fallback): drift alert present in the audit trail"
fi

# ---------------------------------------------------------------------------
# Live telemetry: a serve daemon under load, scraped over HTTP.

"$ocps" profile "$workdir/a.txt" --name a -o "$workdir/a.fp" > /dev/null
"$ocps" profile "$workdir/b.txt" --name b -o "$workdir/b.fp" > /dev/null

serve_log="$workdir/serve.log"
"$ocps" serve "$workdir/a.fp" "$workdir/b.fp" \
  --socket "$workdir/serve.sock" --capacity 256 \
  --metrics-port -1 --trace-out "$workdir/serve_trace.json" \
  --slo-p99-ms 500 --slo-availability 0.99 \
  > "$serve_log" 2>&1 &
serve_pid=$!

# The daemon binds an ephemeral metrics port and prints it at startup.
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's|^metrics on http://127.0.0.1:\([0-9]*\)/metrics$|\1|p' \
    "$serve_log")"
  [[ -n "$port" && -S "$workdir/serve.sock" ]] && break
  sleep 0.1
done
if [[ -z "$port" || ! -S "$workdir/serve.sock" ]]; then
  echo "FAIL: daemon did not come up"
  cat "$serve_log"
  exit 1
fi

# Traffic tagged with client trace ids, so the drain-time trace export
# must contain one multi-thread span tree per request.
for i in 1 2 3 4; do
  "$ocps" query --socket "$workdir/serve.sock" --op partition \
    --programs a,b --trace-id $((8000 + i)) > /dev/null
done
"$ocps" query --socket "$workdir/serve.sock" --op slowlog \
  > "$workdir/slowlog.json"
grep -q '"slowlog"' "$workdir/slowlog.json"

# Decision-quality plane: every partition answer minted a decision id;
# reconcile the first one so the prediction-error histogram and drift
# EWMA have samples before the scrape, then resolve the id both through
# the audit-trail listing and the `why` drill-down.
"$ocps" query --socket "$workdir/serve.sock" --op reconcile \
  --decision-id 1 --realized 0.4,0.6 > "$workdir/reconcile.json"
grep -q '"reconciled":true' "$workdir/reconcile.json"
grep -q '"error":\[' "$workdir/reconcile.json"
"$ocps" decisions --socket "$workdir/serve.sock" > "$workdir/decisions.txt"
grep -q '^1 ' "$workdir/decisions.txt"
grep -q 'accuracy: ' "$workdir/decisions.txt"
"$ocps" why 1 --socket "$workdir/serve.sock" > "$workdir/why.txt"
grep -q 'decision #1' "$workdir/why.txt"
grep -Eq '^a +' "$workdir/why.txt"   # per-tenant error rows resolve
grep -Eq '^b +' "$workdir/why.txt"
if ! "$ocps" why 9999 --socket "$workdir/serve.sock" \
  > "$workdir/why_missing.txt" 2>&1; then
  grep -q 'unknown decision id' "$workdir/why_missing.txt"
else
  echo "FAIL: why 9999 should have reported an unknown decision id"
  exit 1
fi

# Per-stage attribution: every slowlog row decomposes its latency into
# exactly the four stages, with no other stage field, and the stages must
# reconcile with the total.
check_slowlog_stages() {
  if command -v python3 > /dev/null; then
    python3 - "$1" <<'EOF'
import json, sys
stages = ("queue_wait_ms", "solve_ms", "serialize_ms", "network_ms")
rows = json.load(open(sys.argv[1]))["slowlog"]
assert rows, "slowlog is empty after tagged traffic"
for row in rows:
    fields = sorted(k for k in row if k.endswith("_ms")
                    and k not in ("latency_ms", "deadline_slack_ms"))
    assert fields == sorted(stages), f"slowlog stage fields {fields}: {row}"
    for stage in stages:
        assert row[stage] >= 0.0, f"negative stage time: {row}"
    total = sum(row[s] for s in stages)
    assert abs(total - row["latency_ms"]) < 1e-6, \
        f"stages sum {total} != latency {row['latency_ms']}: {row}"
print(f"OK: {len(rows)} slowlog rows with stage sums matching latency")
EOF
  else
    fields=$(grep -o '"[a-z_]*_ms"' "$1" | LC_ALL=C sort -u | tr '\n' ' ')
    expected='"deadline_slack_ms" "latency_ms" "network_ms" "queue_wait_ms" '
    expected+='"serialize_ms" "solve_ms" '
    if [[ "$fields" != "$expected" ]]; then
      echo "FAIL: slowlog rows carry fields $fields, expected $expected"
      exit 1
    fi
    echo "OK (grep fallback): slowlog rows carry the four stage fields"
  fi
}
check_slowlog_stages "$workdir/slowlog.json"

if command -v python3 > /dev/null; then
  python3 - "$port" "$workdir/metrics.prom" <<'EOF'
import sys, urllib.request
url = f"http://127.0.0.1:{sys.argv[1]}/metrics"
body = urllib.request.urlopen(url, timeout=10).read().decode()
open(sys.argv[2], "w").write(body)
print(f"scraped {len(body)} bytes from {url}")
EOF
  python3 "$repo_root/tools/check_prometheus_exposition.py" \
    "$workdir/metrics.prom" \
    serve_requests serve_request_latency_bucket serve_request_latency_p50 \
    serve_request_latency_p95 serve_request_latency_p99 \
    serve_request_latency_window_p50 serve_queue_depth obs_spans_dropped \
    serve_stage_queue_wait_bucket \
    serve_stage_solve_bucket serve_stage_serialize_bucket \
    serve_stage_network_bucket serve_stage_solve_window_p99 \
    serve_slo_latency_target serve_slo_latency_burn_5m \
    serve_slo_latency_burn_1h serve_slo_availability_burn_5m \
    serve_slo_alerts_total \
    ocps_build_info dp_decisions dp_decision_total dp_decision_reconciled \
    dp_decision_mean_abs_error dp_decision_bias dp_drift_ewma_abs_error \
    dp_drift_breaching dp_drift_alerts_total dp_prediction_error_bucket \
    dp_prediction_error_window_p99
  # Tagged traffic must leave exemplars on the stage histograms.
  grep -Eq '^serve_stage_[a-z_]+_bucket\{le="[^"]*"\} [0-9]+ # \{trace_id="80[0-9]+"\}' \
    "$workdir/metrics.prom"
else
  "$ocps" stats --socket "$workdir/serve.sock" > "$workdir/metrics.prom"
  grep -q 'serve_request_latency_bucket{le="' "$workdir/metrics.prom"
  grep -q 'serve_request_latency_p50' "$workdir/metrics.prom"
  echo "OK (grep fallback): exposition contains the required series"
fi

# The socket-side views read the same registry.
"$ocps" stats --socket "$workdir/serve.sock" \
  | grep -q 'serve_request_latency_bucket{le="'
"$ocps" top --socket "$workdir/serve.sock" --iterations 1 --no-ansi \
  | grep -q "ocps top"

# Drain; the daemon writes its Chrome trace on the way out.
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""

if command -v python3 > /dev/null; then
  python3 - "$workdir/serve_trace.json" <<'EOF'
import collections, json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "no daemon trace events"
threads_by_trace_id = collections.defaultdict(set)
for e in events:
    if e["ph"] == "X":
        assert "dur" in e, f"span without duration: {e}"
    tid = e.get("args", {}).get("trace_id")
    if tid:
        assert e.get("bind_id") == tid, f"bind_id != args.trace_id: {e}"
        threads_by_trace_id[tid].add(e["tid"])
linked = {t for t, tids in threads_by_trace_id.items() if len(tids) >= 2}
assert linked, ("no client trace id links spans across threads: "
                f"{dict(threads_by_trace_id)}")
print(f"OK: {len(events)} daemon trace events, "
      f"{len(linked)} request trees span multiple threads")
EOF
else
  grep -q '"bind_id":8001' "$workdir/serve_trace.json"
  echo "OK (grep fallback): daemon trace contains trace-id-linked spans"
fi

# ---------------------------------------------------------------------------
# Fleet: a router fronting two daemons. Tagged traffic through the router
# must stitch into one cross-process trace, and both tiers must answer
# the slo op with burn rates.

for i in 0 1; do
  "$ocps" serve "$workdir/a.fp" "$workdir/b.fp" \
    --socket "$workdir/backend$i.sock" --capacity 256 \
    --slo-p99-ms 500 --slo-availability 0.99 \
    > "$workdir/backend$i.log" 2>&1 &
  fleet_pids+=($!)
done
"$ocps" router --socket "$workdir/router.sock" \
  --backends "$workdir/backend0.sock,$workdir/backend1.sock" \
  --slo-p99-ms 500 --slo-availability 0.99 \
  > "$workdir/router.log" 2>&1 &
fleet_pids+=($!)

for _ in $(seq 1 100); do
  [[ -S "$workdir/router.sock" && -S "$workdir/backend0.sock" &&
     -S "$workdir/backend1.sock" ]] && break
  sleep 0.1
done
if [[ ! -S "$workdir/router.sock" ]]; then
  echo "FAIL: fleet did not come up"
  cat "$workdir/router.log" "$workdir"/backend?.log
  exit 1
fi

for i in 1 2 3 4; do
  "$ocps" query --socket "$workdir/router.sock" --op partition \
    --programs a,b --trace-id $((9100 + i)) > /dev/null
done

# Stitch the distributed trace for one tagged request. The router's
# forward span closes a hair after the client sees the response, so
# retry briefly until both tiers' spans are retained.
stitched="$workdir/stitched_trace.json"
stitch_ok=""
for _ in $(seq 1 50); do
  "$ocps" trace 9101 --socket "$workdir/router.sock" --out "$stitched" \
    > "$workdir/waterfall.txt" || true
  if grep -q 'serve.router.forward' "$workdir/waterfall.txt" &&
     grep -q 'serve.solve' "$workdir/waterfall.txt"; then
    stitch_ok=1
    break
  fi
  sleep 0.1
done
if [[ -z "$stitch_ok" ]]; then
  echo "FAIL: stitched trace never covered both tiers"
  cat "$workdir/waterfall.txt"
  exit 1
fi

if command -v python3 > /dev/null; then
  python3 - "$stitched" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
procs = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
names = set(procs.values())
assert "router" in names, f"no router process in stitched trace: {names}"
backends = {n for n in names if n.startswith("serve.")}
assert backends, f"no backend process in stitched trace: {names}"
spans = [e for e in events if e["ph"] in ("X", "i")]
assert spans, "stitched trace has no spans"
by_proc = {}
for e in spans:
    assert e["args"]["trace_id"] == 9101, f"wrong trace id: {e}"
    by_proc.setdefault(procs[e["pid"]], set()).add(e["name"])
assert "serve.router.forward" in by_proc.get("router", set()), \
    f"router spans missing forward: {by_proc}"
assert any("serve.solve" in by_proc.get(b, set()) for b in backends), \
    f"no backend solve span: {by_proc}"
print(f"OK: stitched trace covers {sorted(names)} "
      f"with {len(spans)} spans")
EOF
else
  grep -q '"name":"router"' "$stitched"
  grep -q '"name":"serve.router.forward"' "$stitched"
  grep -q '"name":"serve.solve"' "$stitched"
  echo "OK (grep fallback): stitched trace covers router and backend"
fi

# One-shot SLO views: both tiers are configured, so neither may answer
# "no SLOs configured", and both objectives must be listed.
"$ocps" slo --socket "$workdir/router.sock" > "$workdir/slo_router.txt"
grep -q 'latency' "$workdir/slo_router.txt"
grep -q 'availability' "$workdir/slo_router.txt"
"$ocps" slo --socket "$workdir/backend0.sock" > "$workdir/slo_backend.txt"
grep -q 'latency' "$workdir/slo_backend.txt"
for view in slo_router slo_backend; do
  if grep -q 'no SLOs configured' "$workdir/$view.txt"; then
    echo "FAIL: $view reports no SLOs configured"
    exit 1
  fi
done

# The backend that served the routed traffic must attribute its latency
# to stages just like the standalone daemon.
"$ocps" query --socket "$workdir/backend0.sock" --op partition \
  --programs a,b > /dev/null
"$ocps" query --socket "$workdir/backend0.sock" --op slowlog \
  > "$workdir/fleet_slowlog.json"
check_slowlog_stages "$workdir/fleet_slowlog.json"

# Keep the stitched trace when the caller wants an artifact (CI uploads
# it); the mktemp workdir is removed on exit.
if [[ -n "${OCPS_OBS_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$OCPS_OBS_ARTIFACT_DIR"
  cp "$stitched" "$workdir/waterfall.txt" "$OCPS_OBS_ARTIFACT_DIR/"
  echo "kept stitched trace in $OCPS_OBS_ARTIFACT_DIR"
fi

echo "observability check passed"
