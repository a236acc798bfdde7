// ocps — command-line front end to the library.
//
// Subcommands (see `ocps help`):
//   profile   trace file -> ASCII footprint file (the paper's per-program
//             profile artifact)
//   mrc       footprint file -> miss-ratio curve (CSV on stdout)
//   predict   footprint files -> co-run prediction: natural partition,
//             per-program + group miss ratios under sharing
//   optimize  footprint files -> partition via the DP, with optional
//             equal/natural baseline fairness constraints and sum/max
//             objectives
//   simulate  address-trace files -> exact shared / equal / optimal
//             partitioned LRU simulation (ground truth for small inputs)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/corun.hpp"
#include "combinatorics/enumerate.hpp"
#include "runtime/controller.hpp"
#include "runtime/fault_injection.hpp"
#include "core/baselines.hpp"
#include "core/composition.hpp"
#include "core/dp_partition.hpp"
#include "core/group_sweep.hpp"
#include "locality/footprint.hpp"
#include "locality/footprint_io.hpp"
#include "locality/phases.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "trace/generators.hpp"
#include "trace/interleave.hpp"
#include "trace/trace_io.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

using namespace ocps;

namespace {

int usage() {
  std::cout <<
      R"(ocps — optimal cache partition-sharing toolkit

usage: ocps <command> [options]

commands:
  profile <trace>      profile an address trace into a footprint file
      --block-bytes B  cache block size for address -> block mapping (64)
      --binary         input is an ocps binary trace, not text addresses
      --rate R         the program's access rate (1.0)
      --name NAME      program name stored in the file (file stem)
      -o FILE          output footprint file (<trace>.fp)
  mrc <fp-file>        print the miss-ratio curve as CSV
      --capacity C     cache size in blocks (1024)
  predict <fp...>      predict a co-run: natural partition + miss ratios
      --capacity C     shared cache size in blocks (1024)
  optimize <fp...>     compute a partition with the DP
      --capacity C     cache size in blocks (1024)
      --baseline B     none | equal | natural   (none)
      --objective O    sum | max                (sum)
  simulate <trace...>  exact LRU co-run simulation of address traces
      --capacity C     cache size in blocks (1024)
      --block-bytes B  block size (64)
      --warmup N       accesses excluded from stats (len/4)
  sweep <fp...>        evaluate every k-subset co-run with all six methods
      --capacity C     cache size in blocks (1024)
      --group-size K   programs per co-run group (min(4, #files))
      --threads N      sweep threads; 0 = auto from OCPS_THREADS /
                       hardware concurrency (0)
  phases <trace>       detect working-set phases of an address trace
      --block-bytes B  block size (64)
      --binary         input is an ocps binary trace
      --window W       accesses per WSS sample (2000)
      --threshold T    relative WSS change opening a phase (0.30)
  controller <trace...> run the fault-tolerant online repartitioning
                       controller over the interleaved traces
      --capacity C     cache size in blocks (1024)
      --block-bytes B  block size (64)
      --binary         inputs are ocps binary traces
      --epoch N        accesses per repartitioning epoch (50000)
      --sampling-rate R  SHARDS rate per program (0.05)
      --min-units M    per-program QoS floor in blocks (0)
      --max-delta D    hysteresis: max blocks moved per epoch (0 = off)
      --policy P       graceful | restart   (graceful)
      decision quality (the audit trail always runs; see
      docs/observability.md "Decision quality and model drift"):
      --drift-alpha A      EWMA weight of the newest prediction error (0.25)
      --drift-threshold T  |error| EWMA level that logs a model-drift
                           alert; 0 = alerting off (0)
      --decisions-out FILE write the decision audit trail (every decision
                           with predicted vs realized miss ratios,
                           accuracy summary, drift state) as JSON
      fault injection (deterministic; all rates in [0,1], default 0):
      --fault-rate F        set every fault kind to rate F
      --fault-nan F         NaN-lace a sampled MRC
      --fault-spike F       spike a sampled MRC above 1
      --fault-truncate F    truncate a sampled MRC
      --fault-drop F        drop a program's estimate for an epoch
      --fault-dp-fail F     fail the DP for an epoch
      --fault-seed S        injection schedule seed (0xFA117)
      observability (tracing is always recorded by this subcommand):
      --trace-out FILE      write a Chrome trace_event JSON of the run
                            (open in chrome://tracing or Perfetto)
      --metrics-out FILE    write a metrics-registry snapshot as JSON
  serve <fp...>        run the resident partition-service daemon: loads the
                       footprint profiles once, keeps the DP warm, answers
                       line-delimited JSON over a Unix socket (see
                       docs/serving.md); SIGTERM/SIGINT drain gracefully
      --socket PATH    Unix domain socket path (required)
      --listen H:P     also listen on TCP host:port ("127.0.0.1:0" picks an
                       ephemeral port, printed at startup)
      --max-conns N    concurrent connection cap; beyond it connects are
                       refused with 503 (256)
      --io-timeout-ms T  per-connection read/write timeout (5000)
      --capacity C     default / maximum cache size in blocks (1024)
      --max-batch N    max solver requests coalesced per batch (64)
      --queue-cap N    admission bound; beyond it requests shed 429 (256)
      --threads N      sweep threads; 0 = auto (0)
      --deadline-ms D  default per-request deadline; 0 = none (0)
      --metrics-port P serve Prometheus text on http://127.0.0.1:P/metrics
                       (0 = off)
      --slowlog-cap K  slowest requests kept for the slowlog op (32)
      --window-s N     sliding window for latency percentile gauges (30)
      --slo-p99-ms X   latency SLO: p99 under X ms, evaluated as 5m/1h
                       burn rates on serve.slo.latency.* gauges (0 = off)
      --slo-availability A  availability SLO target in [0,1), e.g. 0.999;
                       serve.slo.availability.* gauges (0 = off)
      --decision-log-cap N  partition-decision audit ring size (128)
      --drift-alpha A      prediction-error EWMA weight (0.25)
      --drift-threshold T  model-drift alert level on the |error| EWMA,
                       fed by `reconcile` requests; 0 = alerting off (0)
      --trace-out FILE   write the Chrome trace_event JSON at drain
      --metrics-out FILE write the metrics snapshot JSON at drain
      network chaos (deterministic; rates in [0,1], default 0; for the
      chaos harness — see docs/fault_tolerance.md):
      --chaos-accept-fail R  drop a freshly accepted connection
      --chaos-reset R        cut a response mid-line, then reset
      --chaos-trickle R      write a response byte-by-byte
      --chaos-stall R        delay a response by --chaos-stall-ms
      --chaos-stall-ms MS    stall duration (40)
      --chaos-seed S         injection schedule seed (0x5EAFA117)
  router               fault-tolerant front tier for a fleet of daemons:
                       speaks the same protocol on its front listeners,
                       places requests on backends by consistent hashing,
                       health-checks them, trips per-backend circuit
                       breakers, and fails over (see docs/serving.md)
      --socket PATH    Unix front listener (this or --listen required)
      --listen H:P     TCP front listener
      --backends A,B   comma-separated backend endpoints, each a socket
                       path or host:port (required)
      --vnodes V       virtual nodes per backend on the hash ring (64)
      --breaker-threshold N  consecutive failures opening a breaker (3)
      --breaker-cooldown-ms C  open -> half-open delay (1000)
      --breaker-probes N     half-open successes to re-close (1)
      --connect-timeout-ms T backend connect timeout (1000)
      --io-timeout-ms T      backend call / front io timeout (5000)
      --health-interval-ms I backend probe interval (500)
      --deadline-ms D  default failover budget per request; 0 = io
                       timeout (0)
      --max-conns N    concurrent front connection cap (256)
      --metrics-port P fleet-wide Prometheus on http://127.0.0.1:P/metrics
                       (0 = off, -1 = ephemeral)
      --slo-p99-ms X / --slo-availability A  fleet SLOs judged on what
                       clients experienced across failovers (same
                       semantics and serve.slo.* gauges as serve)
      --chaos-accept-fail R / --chaos-reset R / --chaos-trickle R /
      --chaos-stall R / --chaos-stall-ms MS / --chaos-seed S
                       front-connection chaos, as for serve (backend
                       lanes are never faulted)
  query                send one request to a running daemon (or router)
                       and print the JSON response
      --socket PATH    daemon socket path, or any endpoint (required
                       unless --addr)
      --addr H:P       TCP endpoint, alternative to --socket
      --op OP          partition | sweep | health | reload | metrics |
                       slowlog | trace | slo | decisions | reconcile
                       (health)
      --programs A,B   comma-separated program names (partition/sweep)
      --paths a,b      comma-separated footprint files (reload)
      --decision-id N  decisions: fetch one record; reconcile: the
                       decision the realized ratios belong to
      --limit N        decisions: max recent records (0 = server default)
      --realized A,B   reconcile: comma-separated realized miss ratios in
                       the decision's tenant order ("nan" = no accesses)
      --capacity C     cache size in blocks (0 = server default)
      --objective O    sum | max                (sum)
      --group-size K   sweep group size (0 = server default)
      --deadline-ms D  per-request deadline (0 = server default)
      --trace-id N     correlation id tagging the daemon's spans for this
                       request in the Chrome trace export (0 = none)
      --timeout-ms T   client-side wait for the response (30000)
      --retries N      attempts for idempotent ops on transport errors /
                       429 / 503 / 504; --deadline-ms is the retry
                       budget; reload is never retried (3)
      --retry-base-ms B  backoff before the first retry (10)
      --retry-max-ms M   backoff growth cap (500)
      --retry-seed S     jitter schedule seed (0xB0FF)
  trace <id>           stitch one request's distributed trace: queries a
                       router (which fans out to its backends) or a single
                       daemon for the spans retained under that trace id
                       and prints a cross-process waterfall aligned on
                       wall-clock (see docs/observability.md)
      --socket PATH    endpoint socket path (this or --addr required)
      --addr H:P       TCP endpoint
      --out FILE       also write the stitched Chrome trace_event JSON
      --timeout-ms T   client-side wait for each response (30000)
  slo                  one-shot SLO view of a daemon or router: targets,
                       5m/1h burn rates, breach state, and the bounded
                       breach-alert log
      --socket PATH    endpoint socket path (this or --addr required)
      --addr H:P       TCP endpoint
      --timeout-ms T   client-side wait (30000)
  decisions            one-shot view of an endpoint's partition-decision
                       audit trail: recent decisions, predicted-vs-
                       realized accuracy, model-drift state and alerts
                       (a router answers per backend)
      --socket PATH    endpoint socket path (this or --addr required)
      --addr H:P       TCP endpoint
      --limit N        max recent decisions to fetch (0 = server default)
      --timeout-ms T   client-side wait (30000)
  why <decision-id>    explain one partition decision: trigger and note,
                       allocation diff against the previous decision, and
                       per-tenant predicted vs realized miss ratios with
                       the prediction errors that drove any fallback
      --socket PATH    endpoint socket path (this or --addr required)
      --addr H:P       TCP endpoint
      --timeout-ms T   client-side wait (30000)
  top                  live terminal dashboard of a running daemon:
                       throughput, queue depth, shed/504 rates, batch
                       size, latency percentiles, per-stage p99s, build
                       info, and model-drift state, refreshed in place
      --socket PATH    daemon socket path (required)
      --interval-ms I  refresh interval (1000)
      --iterations N   frames to render before exiting; 0 = until ^C (0)
      --no-ansi        append frames instead of redrawing in place
      --timeout-ms T   per-poll client timeout (5000)
  stats [trace...]     run the controller with full observability and
                       print the metrics registry (DP solve latency,
                       simulator counters, controller health). With no
                       traces a synthetic 4-program mix is used.
      --capacity C     cache size in blocks (1024)
      --block-bytes B  block size (64)
      --binary         inputs are ocps binary traces
      --epoch N        accesses per repartitioning epoch (20000)
      --length N       accesses per synthetic program (100000)
      --trace-out FILE   write the Chrome trace_event JSON too
      --metrics-out FILE write the JSON snapshot too
      --socket PATH    read live metrics from a running daemon instead
                       (prints its Prometheus exposition; no local run)
      --timeout-ms T   client-side wait when --socket is used (30000)
  help                 this message
)";
  return 2;
}

/// Writes the trace / metrics artifacts requested via --trace-out and
/// --metrics-out. Shared by `controller` and `stats`.
void write_obs_outputs(const ArgParser& args) {
  std::string trace_out = args.get_string("trace-out", "");
  if (!trace_out.empty()) {
    std::ofstream os(trace_out, std::ios::trunc);
    OCPS_CHECK(os.good(), "cannot open " << trace_out << " for writing");
    obs::write_chrome_trace(os);
    OCPS_CHECK(os.good(), "write failed for " << trace_out);
    std::cout << "wrote Chrome trace (" << obs::trace_events().size()
              << " events) to " << trace_out << "\n";
  }
  std::string metrics_out = args.get_string("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out, std::ios::trunc);
    OCPS_CHECK(os.good(), "cannot open " << metrics_out << " for writing");
    obs::write_metrics_json(os);
    OCPS_CHECK(os.good(), "write failed for " << metrics_out);
    std::cout << "wrote metrics snapshot to " << metrics_out << "\n";
  }
}

std::string stem_of(const std::string& path) {
  auto slash = path.find_last_of('/');
  std::string base =
      (slash == std::string::npos) ? path : path.substr(slash + 1);
  auto dot = base.find_last_of('.');
  return (dot == std::string::npos) ? base : base.substr(0, dot);
}

int cmd_profile(const ArgParser& args) {
  OCPS_CHECK(args.positionals().size() == 2, "profile needs one trace file");
  const std::string& path = args.positionals()[1];
  std::uint64_t block_bytes =
      static_cast<std::uint64_t>(args.get_int("block-bytes", 64));
  Trace trace = args.has("binary")
                    ? load_trace_binary(path)
                    : load_address_trace(path, block_bytes);
  OCPS_CHECK(!trace.empty(), "trace is empty: " << path);
  FootprintCurve fp = compute_footprint(trace);
  FootprintFile file = make_footprint_file(
      args.get_string("name", stem_of(path)), args.get_double("rate", 1.0),
      fp);
  std::string out = args.get_string("o", path + ".fp");
  save_footprint_file(file, out);
  std::cout << "profiled " << trace.length() << " accesses, "
            << fp.distinct << " distinct blocks -> " << out << "\n";
  return 0;
}

int cmd_mrc(const ArgParser& args) {
  OCPS_CHECK(args.positionals().size() == 2, "mrc needs one footprint file");
  std::size_t capacity =
      static_cast<std::size_t>(args.get_int("capacity", 1024));
  ProgramModel model = model_from_footprint_file(
      load_footprint_file(args.positionals()[1]), capacity);
  std::cout << "cache_blocks,miss_ratio\n";
  for (std::size_t c = 0; c <= capacity; ++c)
    std::cout << c << ',' << model.mrc.ratio(c) << '\n';
  return 0;
}

std::vector<ProgramModel> load_models(const ArgParser& args,
                                      std::size_t capacity) {
  std::vector<ProgramModel> models;
  for (std::size_t i = 1; i < args.positionals().size(); ++i)
    models.push_back(model_from_footprint_file(
        load_footprint_file(args.positionals()[i]), capacity));
  OCPS_CHECK(!models.empty(), "need at least one footprint file");
  return models;
}

int cmd_predict(const ArgParser& args) {
  std::size_t capacity =
      static_cast<std::size_t>(args.get_int("capacity", 1024));
  auto models = load_models(args, capacity);
  std::vector<const ProgramModel*> ptrs;
  for (const auto& m : models) ptrs.push_back(&m);
  CoRunGroup group(ptrs);
  auto occupancy = natural_partition(group, static_cast<double>(capacity));
  auto mrs = predict_shared_miss_ratios(group, static_cast<double>(capacity));
  TextTable t({"program", "rate", "natural occupancy", "shared miss ratio",
               "solo miss ratio @C"});
  for (std::size_t i = 0; i < models.size(); ++i)
    t.add_row({models[i].name, TextTable::num(models[i].access_rate, 2),
               TextTable::num(occupancy[i], 1), TextTable::num(mrs[i], 5),
               TextTable::num(models[i].mrc.ratio(capacity), 5)});
  t.print(std::cout);
  std::cout << "group miss ratio under sharing: "
            << TextTable::num(group_miss_ratio(group, mrs), 5) << "\n";
  return 0;
}

int cmd_optimize(const ArgParser& args) {
  std::size_t capacity =
      static_cast<std::size_t>(args.get_int("capacity", 1024));
  auto models = load_models(args, capacity);
  std::vector<const ProgramModel*> ptrs;
  std::vector<const MissRatioCurve*> curves;
  std::vector<double> weights;
  for (const auto& m : models) {
    ptrs.push_back(&m);
    curves.push_back(&m.mrc);
    weights.push_back(m.access_rate);
  }
  CoRunGroup group(ptrs);
  CostMatrix cost = weighted_cost_matrix(curves, weights, capacity);

  std::string baseline = args.get_string("baseline", "none");
  std::string objective = args.get_string("objective", "sum");
  DpResult result;
  if (baseline == "equal") {
    result = optimize_equal_baseline(group, cost.view(), capacity);
  } else if (baseline == "natural") {
    result = optimize_natural_baseline(group, cost.view(), capacity);
  } else {
    OCPS_CHECK(baseline == "none", "unknown baseline '" << baseline << "'");
    DpOptions options;
    if (objective == "max") {
      options.objective = DpObjective::kMaxCost;
    } else {
      OCPS_CHECK(objective == "sum",
                 "unknown objective '" << objective << "'");
    }
    result = optimize_partition(cost.view(), capacity, options);
  }
  OCPS_CHECK(result.feasible, "optimization infeasible");

  double rate_sum = 0.0;
  for (double w : weights) rate_sum += w;
  TextTable t({"program", "blocks", "miss ratio"});
  double group_mr = 0.0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    double mr = models[i].mrc.ratio(result.alloc[i]);
    group_mr += weights[i] / rate_sum * mr;
    t.add_row({models[i].name, std::to_string(result.alloc[i]),
               TextTable::num(mr, 5)});
  }
  t.print(std::cout);
  std::cout << "group miss ratio: " << TextTable::num(group_mr, 5)
            << "  (baseline=" << baseline << ", objective=" << objective
            << ")\n";
  return 0;
}

int cmd_simulate(const ArgParser& args) {
  std::size_t capacity =
      static_cast<std::size_t>(args.get_int("capacity", 1024));
  std::uint64_t block_bytes =
      static_cast<std::uint64_t>(args.get_int("block-bytes", 64));
  std::vector<Trace> traces;
  std::vector<double> rates;
  std::vector<std::string> names;
  for (std::size_t i = 1; i < args.positionals().size(); ++i) {
    traces.push_back(
        load_address_trace(args.positionals()[i], block_bytes));
    rates.push_back(1.0);
    names.push_back(stem_of(args.positionals()[i]));
  }
  OCPS_CHECK(!traces.empty(), "need at least one trace file");
  std::size_t total = 0;
  for (const auto& t : traces) total += t.length();
  InterleavedTrace mix = interleave_proportional(traces, rates, total);
  CoRunOptions opt;
  opt.warmup = static_cast<std::size_t>(
      args.get_int("warmup", static_cast<std::int64_t>(total / 4)));

  CoRunResult shared = simulate_shared(mix, capacity, opt);
  CoRunResult equal = simulate_partitioned(
      mix, equal_partition(traces.size(), capacity), opt);
  TextTable t({"program", "shared mr", "equal-partition mr"});
  for (std::size_t i = 0; i < traces.size(); ++i)
    t.add_row({names[i], TextTable::num(shared.miss_ratio(i), 5),
               TextTable::num(equal.miss_ratio(i), 5)});
  t.print(std::cout);
  std::cout << "group: shared "
            << TextTable::num(shared.group_miss_ratio(), 5) << ", equal "
            << TextTable::num(equal.group_miss_ratio(), 5) << "\n";
  return 0;
}

int cmd_sweep(const ArgParser& args) {
  std::size_t capacity =
      static_cast<std::size_t>(args.get_int("capacity", 1024));
  auto models = load_models(args, capacity);
  std::size_t k = static_cast<std::size_t>(args.get_int(
      "group-size",
      static_cast<std::int64_t>(std::min<std::size_t>(4, models.size()))));
  OCPS_CHECK(k >= 1 && k <= models.size(),
             "group size must be in [1, #programs]");

  auto groups = all_subsets(static_cast<std::uint32_t>(models.size()),
                            static_cast<std::uint32_t>(k));
  SweepOptions options;
  options.capacity = capacity;
  options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  auto sweep = sweep_groups(models, groups, options);

  std::cout << "evaluated " << sweep.size() << " co-run groups of " << k
            << " programs at C=" << capacity << "\n\n";
  TextTable t({"Improvement of Optimal over", "Max", "Avg", "Median",
               ">=10%", ">=20%"});
  for (Method m : {Method::kEqual, Method::kEqualBaseline, Method::kNatural,
                   Method::kNaturalBaseline, Method::kSttw}) {
    ImprovementStats s = improvement_over(sweep, m);
    t.add_row({method_name(m), TextTable::pct(s.max, 2),
               TextTable::pct(s.avg, 2), TextTable::pct(s.median, 2),
               TextTable::pct(s.frac_ge_10, 2),
               TextTable::pct(s.frac_ge_20, 2)});
  }
  t.print(std::cout);

  // Per-group detail for small runs.
  if (sweep.size() <= 20) {
    std::cout << "\n";
    TextTable d({"group", "Equal", "Natural", "Optimal", "STTW"});
    for (const auto& g : sweep) {
      std::string label;
      for (auto m : g.members) {
        if (!label.empty()) label += "+";
        label += models[m].name;
      }
      d.add_row({label, TextTable::num(g.of(Method::kEqual).group_mr, 5),
                 TextTable::num(g.of(Method::kNatural).group_mr, 5),
                 TextTable::num(g.of(Method::kOptimal).group_mr, 5),
                 TextTable::num(g.of(Method::kSttw).group_mr, 5)});
    }
    d.print(std::cout);
  }
  return 0;
}

int cmd_phases(const ArgParser& args) {
  OCPS_CHECK(args.positionals().size() == 2, "phases needs one trace file");
  const std::string& path = args.positionals()[1];
  std::uint64_t block_bytes =
      static_cast<std::uint64_t>(args.get_int("block-bytes", 64));
  Trace trace = args.has("binary")
                    ? load_trace_binary(path)
                    : load_address_trace(path, block_bytes);
  PhaseDetectorConfig config;
  config.window = static_cast<std::size_t>(args.get_int("window", 2000));
  config.threshold = args.get_double("threshold", 0.30);
  auto phases = detect_phases(trace, config);

  std::cout << trace.length() << " accesses, " << phases.size()
            << " phase(s) detected (window " << config.window
            << ", threshold " << config.threshold << "):\n";
  TextTable t({"phase", "begin", "end", "accesses", "mean windowed WSS"});
  for (std::size_t i = 0; i < phases.size(); ++i)
    t.add_row({std::to_string(i), std::to_string(phases[i].begin),
               std::to_string(phases[i].end),
               std::to_string(phases[i].end - phases[i].begin),
               TextTable::num(phases[i].mean_wss, 1)});
  t.print(std::cout);
  std::cout << "Use the boundaries with phase-aware repartitioning "
               "(core/phase_aware) or pick the epoch count they imply.\n";
  return 0;
}

int cmd_controller(const ArgParser& args) {
  // The CLI always records: the controller's health counters are read
  // back from the metrics registry below, and --trace-out / --metrics-out
  // export whatever the run produced.
  obs::set_enabled(true);
  std::size_t capacity =
      static_cast<std::size_t>(args.get_int("capacity", 1024));
  std::uint64_t block_bytes =
      static_cast<std::uint64_t>(args.get_int("block-bytes", 64));
  std::vector<Trace> traces;
  std::vector<double> rates;
  std::vector<std::string> names;
  for (std::size_t i = 1; i < args.positionals().size(); ++i) {
    const std::string& path = args.positionals()[i];
    traces.push_back(args.has("binary")
                         ? load_trace_binary(path)
                         : load_address_trace(path, block_bytes));
    rates.push_back(1.0);
    names.push_back(stem_of(path));
  }
  OCPS_CHECK(!traces.empty(), "need at least one trace file");
  std::size_t total = 0;
  for (const auto& t : traces) total += t.length();
  InterleavedTrace mix = interleave_proportional(traces, rates, total);

  ControllerConfig config;
  config.capacity = capacity;
  config.epoch_length =
      static_cast<std::size_t>(args.get_int("epoch", 50000));
  config.sampling_rate = args.get_double("sampling-rate", 0.05);
  config.min_units =
      static_cast<std::size_t>(args.get_int("min-units", 0));
  config.max_delta_units =
      static_cast<std::size_t>(args.get_int("max-delta", 0));
  std::string policy = args.get_string("policy", "graceful");
  if (policy == "restart") {
    config.fault_policy = FaultPolicy::kRestartOnError;
  } else {
    OCPS_CHECK(policy == "graceful", "unknown policy '" << policy << "'");
  }
  config.drift_alpha = args.get_double("drift-alpha", 0.25);
  config.drift_threshold = args.get_double("drift-threshold", 0.0);

  double all = args.get_double("fault-rate", 0.0);
  FaultInjectionConfig faults;
  faults.nan_rate = args.get_double("fault-nan", all);
  faults.spike_rate = args.get_double("fault-spike", all);
  faults.truncate_rate = args.get_double("fault-truncate", all);
  faults.drop_rate = args.get_double("fault-drop", all);
  faults.dp_fail_rate = args.get_double("fault-dp-fail", all);
  faults.seed = static_cast<std::uint64_t>(
      args.get_int("fault-seed", 0xFA117));
  FaultInjector injector(faults);

  ControllerResult r = run_online_controller(mix, traces.size(), config,
                                             injector.hooks());

  TextTable t({"program", "final blocks", "miss ratio"});
  const auto& final_alloc = r.alloc_history.back();
  for (std::size_t i = 0; i < traces.size(); ++i)
    t.add_row({names[i], std::to_string(final_alloc[i]),
               TextTable::num(r.sim.miss_ratio(i), 5)});
  t.print(std::cout);
  std::cout << "group miss ratio: "
            << TextTable::num(r.sim.group_miss_ratio(), 5) << "\n\n";

  // Health comes from the metrics registry — the controller feeds the
  // same counters that back `ocps stats` and the bench snapshots.
  obs::write_metrics_text(std::cout, "controller.");
  std::cout << "profiling cost: " << TextTable::pct(r.sampled_fraction, 1)
            << "\n";

  // Decision-quality summary: how well the predicted miss ratios held up
  // against what the simulated cache then actually did.
  obs::DecisionAccuracy acc = r.decisions->accuracy();
  std::cout << "decisions: " << acc.decisions_total << " logged, "
            << acc.reconciled_total << " reconciled, mean |error| "
            << TextTable::num(acc.mean_abs_error, 5) << ", max "
            << TextTable::num(acc.max_abs_error, 5) << ", bias "
            << TextTable::num(acc.mean_signed_error, 5) << "\n";
  std::cout << "drift: EWMA |error| " << TextTable::num(r.drift.ewma_abs, 5)
            << ", bias " << TextTable::num(r.drift.bias, 5) << " over "
            << r.drift.samples << " samples";
  if (r.drift.configured)
    std::cout << " (threshold " << TextTable::num(r.drift.threshold, 5)
              << (r.drift.breaching ? ", BREACHING" : "") << ")";
  else
    std::cout << " (alerting off; set --drift-threshold)";
  std::cout << "\n";
  for (const obs::DriftAlert& a : r.drift_alerts)
    std::cout << "  drift alert #" << a.seq << " at decision " << a.decision_id
              << ": EWMA |error| " << TextTable::num(a.ewma_abs, 5) << " > "
              << TextTable::num(a.threshold, 5) << ", worst tenant "
              << a.tenant << "\n";

  std::string decisions_out = args.get_string("decisions-out", "");
  if (!decisions_out.empty()) {
    std::ofstream os(decisions_out, std::ios::trunc);
    OCPS_CHECK(os.good(),
               "cannot open " << decisions_out << " for writing");
    json::Value doc;
    json::Array rows;
    std::vector<obs::DecisionRecord> all =
        r.decisions->recent(r.decisions->capacity());
    for (auto it = all.rbegin(); it != all.rend(); ++it)  // oldest first
      rows.push_back(serve::decision_json(*it));
    doc.set("decisions", json::Value(std::move(rows)));
    doc.set("accuracy", serve::decision_accuracy_json(acc));
    doc.set("drift", serve::drift_status_json(r.drift, r.drift_alerts));
    os << doc.dump() << "\n";
    std::cout << "decision audit trail written to " << decisions_out << "\n";
  }
  if (injector.injected_total() > 0)
    std::cout << "injected faults: " << injector.injected_total() << " ("
              << injector.injected_nan() << " nan, "
              << injector.injected_spikes() << " spike, "
              << injector.injected_truncations() << " truncate, "
              << injector.injected_drops() << " drop, "
              << injector.injected_dp_failures() << " dp-fail)\n";
  write_obs_outputs(args);
  return 0;
}

// `ocps stats --socket PATH`: scrape a *running* daemon over its socket
// (the `metrics` op) and print the Prometheus exposition it returns,
// instead of running a local controller.
int cmd_stats_socket(const ArgParser& args, const std::string& socket) {
  Result<serve::Client> client = serve::Client::connect(socket);
  if (!client.ok()) {
    std::cerr << "error: " << client.error().to_string() << "\n";
    return 1;
  }
  serve::Request req;
  req.id = 1;
  req.op = serve::Op::kMetrics;
  Result<serve::Response> resp = client.value().call(
      serve::encode_request(req),
      std::chrono::milliseconds(args.get_int("timeout-ms", 30000)));
  if (!resp.ok()) {
    std::cerr << "error: " << resp.error().to_string() << "\n";
    return 1;
  }
  if (!resp.value().ok) {
    std::cerr << "error: daemon replied " << resp.value().code << ": "
              << resp.value().error << "\n";
    return 1;
  }
  std::cout << resp.value().body.get_string("prometheus", "");
  return 0;
}

int cmd_stats(const ArgParser& args) {
  std::string socket = args.get_string("socket", "");
  if (!socket.empty()) return cmd_stats_socket(args, socket);
  obs::set_enabled(true);
  std::size_t capacity =
      static_cast<std::size_t>(args.get_int("capacity", 1024));
  std::uint64_t block_bytes =
      static_cast<std::uint64_t>(args.get_int("block-bytes", 64));

  std::vector<Trace> traces;
  if (args.positionals().size() > 1) {
    for (std::size_t i = 1; i < args.positionals().size(); ++i) {
      const std::string& path = args.positionals()[i];
      traces.push_back(args.has("binary")
                           ? load_trace_binary(path)
                           : load_address_trace(path, block_bytes));
    }
  } else {
    // Synthetic 4-program mix exercising the cliff / smooth / convex /
    // two-regime MRC shapes, so every stage of the pipeline lights up.
    std::size_t n = static_cast<std::size_t>(args.get_int("length", 100000));
    traces.push_back(make_cyclic(n, capacity / 2));
    traces.push_back(make_sawtooth(n, capacity));
    traces.push_back(make_zipf(n, capacity * 4, 0.8, 42));
    traces.push_back(make_hot_cold(n, capacity / 8, capacity * 4, 0.9, 7));
  }

  std::size_t total = 0;
  for (const auto& t : traces) total += t.length();
  InterleavedTrace mix = interleave_proportional(
      traces, std::vector<double>(traces.size(), 1.0), total);

  ControllerConfig config;
  config.capacity = capacity;
  config.epoch_length =
      static_cast<std::size_t>(args.get_int("epoch", 20000));
  ControllerResult r =
      run_online_controller(mix, traces.size(), config, ControllerHooks{});
  (void)r;

  obs::BuildInfo bi = obs::build_info();
  std::cout << "build " << bi.git_sha << " — " << bi.compiler << " — simd "
            << bi.simd_kernel << "\n";
  std::cout << "metrics registry after a " << total << "-access, "
            << traces.size() << "-program controller run:\n\n";
  obs::write_metrics_text(std::cout);
  write_obs_outputs(args);
  return 0;
}

// The SIGTERM/SIGINT handler may only do async-signal-safe work;
// Server::request_stop is a single atomic store, which qualifies.
std::atomic<serve::Server*> g_server{nullptr};

extern "C" void ocps_serve_signal_handler(int) {
  if (serve::Server* s = g_server.load()) s->request_stop();
}

// Builds the socket-layer fault injector from the --chaos-* flags.
// Returns nullptr (and leaves `storage` empty) when every rate is zero,
// so production runs skip the injection branches entirely.
const NetFaultInjector* make_chaos_injector(
    const ArgParser& args, std::optional<NetFaultInjector>& storage) {
  NetFaultConfig cfg;
  cfg.accept_fail_rate = args.get_double("chaos-accept-fail", 0.0);
  cfg.reset_rate = args.get_double("chaos-reset", 0.0);
  cfg.trickle_rate = args.get_double("chaos-trickle", 0.0);
  cfg.stall_rate = args.get_double("chaos-stall", 0.0);
  cfg.stall = std::chrono::milliseconds(args.get_int("chaos-stall-ms", 40));
  cfg.seed = static_cast<std::uint64_t>(
      args.get_int("chaos-seed", 0x5EAFA117));
  if (cfg.accept_fail_rate <= 0.0 && cfg.reset_rate <= 0.0 &&
      cfg.trickle_rate <= 0.0 && cfg.stall_rate <= 0.0)
    return nullptr;
  storage.emplace(cfg);
  return &*storage;
}

int cmd_serve(const ArgParser& args) {
  obs::set_enabled(true);
  serve::ServeConfig config;
  config.socket_path = args.get_string("socket", "");
  config.listen_address = args.get_string("listen", "");
  OCPS_CHECK(!config.socket_path.empty() || !config.listen_address.empty(),
             "serve needs --socket PATH and/or --listen HOST:PORT");
  config.max_connections =
      static_cast<std::size_t>(args.get_int("max-conns", 256));
  config.io_timeout =
      std::chrono::milliseconds(args.get_int("io-timeout-ms", 5000));
  config.capacity = static_cast<std::size_t>(args.get_int("capacity", 1024));
  config.max_batch = static_cast<std::size_t>(args.get_int("max-batch", 64));
  config.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-cap", 256));
  config.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  config.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  config.metrics_port = static_cast<int>(args.get_int("metrics-port", 0));
  config.slowlog_capacity =
      static_cast<std::size_t>(args.get_int("slowlog-cap", 32));
  config.latency_window_s =
      static_cast<unsigned>(args.get_int("window-s", 30));
  config.slo_p99_ms = args.get_double("slo-p99-ms", 0.0);
  config.slo_availability = args.get_double("slo-availability", 0.0);
  config.decision_log_capacity =
      static_cast<std::size_t>(args.get_int("decision-log-cap", 128));
  config.drift_alpha = args.get_double("drift-alpha", 0.25);
  config.drift_threshold = args.get_double("drift-threshold", 0.0);

  // Declared before the server so it outlives every server thread.
  std::optional<NetFaultInjector> chaos;
  config.net_faults = make_chaos_injector(args, chaos);

  auto models = load_models(args, config.capacity);
  serve::Server server(config, std::move(models));
  g_server.store(&server);
  std::signal(SIGTERM, ocps_serve_signal_handler);
  std::signal(SIGINT, ocps_serve_signal_handler);

  Result<bool> started = server.start();
  if (!started.ok()) {
    g_server.store(nullptr);
    std::cerr << "error: " << started.error().to_string() << "\n";
    return 1;
  }
  std::cout << "serving " << args.positionals().size() - 1
            << " program profiles on "
            << (config.socket_path.empty() ? std::string("tcp only")
                                           : config.socket_path)
            << " (capacity " << config.capacity << ", max batch "
            << config.max_batch << ", queue " << config.queue_capacity
            << "); SIGTERM drains" << std::endl;
  if (server.bound_listen_port() > 0)
    std::cout << "tcp listener on " << config.listen_address << " (port "
              << server.bound_listen_port() << ")" << std::endl;
  if (config.net_faults)
    std::cout << "CHAOS: network fault injection is armed" << std::endl;
  if (server.bound_metrics_port() > 0)
    std::cout << "metrics on http://127.0.0.1:" << server.bound_metrics_port()
              << "/metrics" << std::endl;

  server.wait_until_stop_requested();
  std::cout << "draining..." << std::endl;
  server.stop();
  g_server.store(nullptr);

  serve::Server::Counters c = server.counters();
  std::cout << "drained: " << c.requests << " requests, " << c.answered
            << " answered, " << c.shed << " shed, " << c.deadline_exceeded
            << " past deadline, " << c.malformed << " malformed, "
            << c.batches << " batches, " << c.reloads << " reloads\n";
  if (chaos)
    std::cout << "chaos injected: " << chaos->injected_accept_failures()
              << " accept failures, " << chaos->injected_resets()
              << " resets, " << chaos->injected_trickles() << " trickles, "
              << chaos->injected_stalls() << " stalls\n";
  // The daemon's own spans (admission / solve / sweep, tagged with client
  // trace ids) and metrics are exportable at drain, same as `controller`.
  write_obs_outputs(args);
  return 0;
}

int cmd_query(const ArgParser& args) {
  std::string endpoint = args.get_string("addr", "");
  if (endpoint.empty()) endpoint = args.get_string("socket", "");
  OCPS_CHECK(!endpoint.empty(),
             "query needs --socket PATH or --addr HOST:PORT");

  json::Value req;
  req.set("id", json::Value(1.0));
  req.set("op", json::Value(args.get_string("op", "health")));
  auto comma_list = [](const std::string& csv) {
    json::Array out;
    std::size_t start = 0;
    while (start <= csv.size()) {
      std::size_t comma = csv.find(',', start);
      if (comma == std::string::npos) comma = csv.size();
      if (comma > start) out.emplace_back(csv.substr(start, comma - start));
      start = comma + 1;
    }
    return out;
  };
  std::string programs = args.get_string("programs", "");
  if (!programs.empty())
    req.set("programs", json::Value(comma_list(programs)));
  std::string paths = args.get_string("paths", "");
  if (!paths.empty()) req.set("paths", json::Value(comma_list(paths)));
  std::int64_t capacity = args.get_int("capacity", 0);
  if (capacity > 0)
    req.set("capacity", json::Value(static_cast<double>(capacity)));
  if (args.has("objective"))
    req.set("objective", json::Value(args.get_string("objective", "sum")));
  std::int64_t group_size = args.get_int("group-size", 0);
  if (group_size > 0)
    req.set("group_size", json::Value(static_cast<double>(group_size)));
  double deadline_ms = args.get_double("deadline-ms", 0.0);
  if (deadline_ms > 0.0)
    req.set("deadline_ms", json::Value(deadline_ms));
  std::int64_t trace_id = args.get_int("trace-id", 0);
  if (trace_id > 0)
    req.set("trace_id", json::Value(static_cast<double>(trace_id)));
  std::int64_t decision_id = args.get_int("decision-id", 0);
  if (decision_id > 0)
    req.set("decision_id", json::Value(static_cast<double>(decision_id)));
  std::int64_t limit = args.get_int("limit", 0);
  if (limit > 0) req.set("limit", json::Value(static_cast<double>(limit)));
  std::string realized = args.get_string("realized", "");
  if (!realized.empty()) {
    // Realized miss ratios in tenant order; "nan" marks a tenant that
    // made no accesses (serialized as JSON null, decoded back to NaN).
    json::Array ratios;
    std::size_t pos = 0;
    while (pos <= realized.size()) {
      std::size_t comma = realized.find(',', pos);
      if (comma == std::string::npos) comma = realized.size();
      if (comma > pos) {
        std::string tok = realized.substr(pos, comma - pos);
        if (tok == "nan" || tok == "null") {
          ratios.emplace_back(std::nan(""));
        } else {
          try {
            ratios.emplace_back(std::stod(tok));
          } catch (...) {
            OCPS_CHECK(false, "bad --realized entry '" << tok << "'");
          }
        }
      }
      pos = comma + 1;
    }
    req.set("realized", json::Value(std::move(ratios)));
  }

  auto timeout = std::chrono::milliseconds(args.get_int("timeout-ms", 30000));
  serve::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(args.get_int("retries", 3));
  OCPS_CHECK(policy.max_attempts >= 1, "retries must be >= 1");
  policy.base_delay =
      std::chrono::milliseconds(args.get_int("retry-base-ms", 10));
  policy.max_delay =
      std::chrono::milliseconds(args.get_int("retry-max-ms", 500));
  policy.seed = static_cast<std::uint64_t>(args.get_int("retry-seed", 0xB0FF));

  Result<serve::Client> client = serve::Client::connect(endpoint, timeout);
  if (!client.ok()) {
    std::cerr << "error: " << client.error().to_string() << "\n";
    return 1;
  }
  Result<serve::Response> resp = Err(ErrorCode::kIoError, "not attempted");
  serve::RetryStats stats;
  if (policy.max_attempts > 1) {
    // Round-trip through the protocol decoder: the retry path needs a
    // typed Request (op idempotency, deadline budget, jitter salt), and
    // a bad --op fails here with the same message the daemon would give.
    Result<serve::Request> parsed = serve::parse_request(req.dump());
    if (!parsed.ok()) {
      std::cerr << "error: " << parsed.error().to_string() << "\n";
      return 1;
    }
    resp = client.value().call_with_retry(parsed.value(), policy, &stats);
  } else {
    resp = client.value().call(req, timeout);
  }
  if (!resp.ok()) {
    std::cerr << "error: " << resp.error().to_string() << "\n";
    return 1;
  }
  if (stats.attempts > 1)
    std::cerr << "note: " << stats.attempts << " attempts, "
              << stats.backoff_total.count() << "ms total backoff\n";
  std::cout << resp.value().body.dump() << "\n";
  if (!resp.value().ok) {
    std::cerr << "error: daemon replied " << resp.value().code << ": "
              << resp.value().error << "\n";
    return 1;
  }
  return 0;
}

// Same async-signal-safe drain contract as the server's handler.
std::atomic<serve::Router*> g_router{nullptr};

extern "C" void ocps_router_signal_handler(int) {
  if (serve::Router* r = g_router.load()) r->request_stop();
}

int cmd_router(const ArgParser& args) {
  obs::set_enabled(true);
  serve::RouterConfig config;
  config.socket_path = args.get_string("socket", "");
  config.listen_address = args.get_string("listen", "");
  OCPS_CHECK(!config.socket_path.empty() || !config.listen_address.empty(),
             "router needs a front listener: --socket PATH and/or "
             "--listen HOST:PORT");
  std::string backends = args.get_string("backends", "");
  std::size_t start = 0;
  while (start <= backends.size()) {
    std::size_t comma = backends.find(',', start);
    if (comma == std::string::npos) comma = backends.size();
    if (comma > start)
      config.backends.push_back(backends.substr(start, comma - start));
    start = comma + 1;
  }
  OCPS_CHECK(!config.backends.empty(),
             "router needs --backends A,B,... (daemon endpoints)");
  config.vnodes = static_cast<std::size_t>(args.get_int("vnodes", 64));
  config.breaker.failure_threshold =
      static_cast<int>(args.get_int("breaker-threshold", 3));
  config.breaker.cooldown =
      std::chrono::milliseconds(args.get_int("breaker-cooldown-ms", 1000));
  config.breaker.probe_successes =
      static_cast<int>(args.get_int("breaker-probes", 1));
  config.connect_timeout =
      std::chrono::milliseconds(args.get_int("connect-timeout-ms", 1000));
  config.io_timeout =
      std::chrono::milliseconds(args.get_int("io-timeout-ms", 5000));
  config.health_interval =
      std::chrono::milliseconds(args.get_int("health-interval-ms", 500));
  config.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  config.max_connections =
      static_cast<std::size_t>(args.get_int("max-conns", 256));
  config.metrics_port = static_cast<int>(args.get_int("metrics-port", 0));
  config.slo_p99_ms = args.get_double("slo-p99-ms", 0.0);
  config.slo_availability = args.get_double("slo-availability", 0.0);

  std::optional<NetFaultInjector> chaos;
  config.net_faults = make_chaos_injector(args, chaos);

  serve::Router router(std::move(config));
  g_router.store(&router);
  std::signal(SIGTERM, ocps_router_signal_handler);
  std::signal(SIGINT, ocps_router_signal_handler);

  Result<bool> started = router.start();
  if (!started.ok()) {
    g_router.store(nullptr);
    std::cerr << "error: " << started.error().to_string() << "\n";
    return 1;
  }
  std::cout << "routing across " << router.config().backends.size()
            << " backends";
  if (!router.config().socket_path.empty())
    std::cout << " on " << router.config().socket_path;
  if (router.bound_listen_port() > 0)
    std::cout << (router.config().socket_path.empty() ? " on" : " and")
              << " tcp port " << router.bound_listen_port();
  std::cout << "; SIGTERM drains" << std::endl;
  if (router.config().net_faults)
    std::cout << "CHAOS: network fault injection is armed" << std::endl;
  if (router.bound_metrics_port() > 0)
    std::cout << "fleet metrics on http://127.0.0.1:"
              << router.bound_metrics_port() << "/metrics" << std::endl;

  router.wait_until_stop_requested();
  std::cout << "draining..." << std::endl;
  router.stop();
  g_router.store(nullptr);

  serve::Router::Counters c = router.counters();
  std::cout << "drained: " << c.requests << " requests, " << c.forwarded
            << " forwarded, " << c.failovers << " failovers, "
            << c.relayed_errors << " relayed errors, " << c.no_backend
            << " no-backend, " << c.all_open << " all-open, "
            << c.deadline_exceeded << " past deadline, " << c.malformed
            << " malformed, " << c.reloads << " reloads\n";
  return 0;
}

// Sends one request to --socket / --addr and returns the response, for
// the one-shot observability subcommands (`trace`, `slo`).
Result<serve::Response> one_shot_request(const ArgParser& args,
                                         const char* command,
                                         const serve::Request& req) {
  std::string endpoint = args.get_string("addr", "");
  if (endpoint.empty()) endpoint = args.get_string("socket", "");
  OCPS_CHECK(!endpoint.empty(),
             "" << command << " needs --socket PATH or --addr HOST:PORT");
  auto timeout = std::chrono::milliseconds(args.get_int("timeout-ms", 30000));
  Result<serve::Client> client = serve::Client::connect(endpoint, timeout);
  if (!client.ok()) return client.error();
  return client.value().call(serve::encode_request(req), timeout);
}

// `ocps trace <id>`: fetch every process's retained spans for one trace
// id (a router answers with its own spans plus every backend's, a daemon
// with just its own) and stitch them onto one wall-clock timeline.
int cmd_trace(const ArgParser& args) {
  OCPS_CHECK(args.positionals().size() == 2,
             "trace needs one id: ocps trace <id> --socket PATH");
  std::uint64_t trace_id = 0;
  try {
    trace_id = std::stoull(args.positionals()[1]);
  } catch (...) {
  }
  OCPS_CHECK(trace_id != 0, "trace id must be a positive integer");

  serve::Request req;
  req.id = 1;
  req.op = serve::Op::kTrace;
  req.trace_id = trace_id;
  Result<serve::Response> resp = one_shot_request(args, "trace", req);
  if (!resp.ok()) {
    std::cerr << "error: " << resp.error().to_string() << "\n";
    return 1;
  }
  if (!resp.value().ok) {
    std::cerr << "error: endpoint replied " << resp.value().code << ": "
              << resp.value().error << "\n";
    return 1;
  }
  const json::Value* procs = resp.value().body.find("procs");
  OCPS_CHECK(procs && procs->is_array(),
             "malformed trace response: missing procs");

  // Stitch: each proc reports matching monotonic + wall-clock instants,
  // so wall_ns - mono_ns re-anchors its span timestamps (nanoseconds
  // since that process's private trace epoch) onto the shared wall
  // clock. Exact enough across processes on one machine.
  struct StitchedSpan {
    std::size_t proc = 0;   // index into proc_labels
    double wall_ns = 0.0;   // start, wall-clock
    double dur_ns = 0.0;
    double tid = 0.0;
    bool instant = false;
    std::string name;
    std::string cat;
    std::string arg_name;   // empty = no arg
    double arg = 0.0;
  };
  std::vector<std::string> proc_labels;
  std::vector<StitchedSpan> spans;
  for (const json::Value& proc : procs->as_array()) {
    std::size_t pi = proc_labels.size();
    proc_labels.push_back(proc.get_string(
        "proc", "proc" + std::to_string(pi)));
    double offset =
        proc.get_number("wall_ns", 0.0) - proc.get_number("mono_ns", 0.0);
    const json::Value* rows = proc.find("spans");
    if (!rows || !rows->is_array()) continue;
    for (const json::Value& row : rows->as_array()) {
      StitchedSpan s;
      s.proc = pi;
      s.wall_ns = row.get_number("ts_ns", 0.0) + offset;
      s.dur_ns = row.get_number("dur_ns", 0.0);
      s.tid = row.get_number("tid", 0.0);
      s.instant = row.get_bool("instant", false);
      s.name = row.get_string("name", "");
      s.cat = row.get_string("cat", "ocps");
      s.arg_name = row.get_string("arg_name", "");
      s.arg = row.get_number("arg", 0.0);
      spans.push_back(std::move(s));
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const StitchedSpan& a, const StitchedSpan& b) {
              return a.wall_ns < b.wall_ns;
            });

  if (spans.empty()) {
    std::cout << "trace " << trace_id << ": no spans retained ("
              << proc_labels.size()
              << " process(es) answered; the per-thread rings may have "
                 "recycled, or the id was never used)\n";
  } else {
    const double base = spans.front().wall_ns;
    std::cout << "trace " << trace_id << " — " << spans.size()
              << " span(s) across " << proc_labels.size()
              << " process(es)\n\n";
    TextTable t({"start", "duration", "process", "span", "arg"});
    for (const StitchedSpan& s : spans) {
      std::string arg;
      if (!s.arg_name.empty())
        arg = s.arg_name + "=" +
              std::to_string(static_cast<std::uint64_t>(s.arg));
      t.add_row({"+" + TextTable::num((s.wall_ns - base) / 1e6, 3) + "ms",
                 s.instant
                     ? std::string("!")
                     : TextTable::num(s.dur_ns / 1e6, 3) + "ms",
                 proc_labels[s.proc], std::string(s.cat) + "/" + s.name,
                 arg});
    }
    t.print(std::cout);
  }

  std::string out = args.get_string("out", "");
  if (!out.empty()) {
    // Chrome trace_event JSON: one pid per process (with process_name
    // metadata), timestamps rebased to the earliest span.
    std::ofstream os(out, std::ios::trunc);
    OCPS_CHECK(os.good(), "cannot open " << out << " for writing");
    const double base = spans.empty() ? 0.0 : spans.front().wall_ns;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t pi = 0; pi < proc_labels.size(); ++pi) {
      if (!first) os << ',';
      first = false;
      os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pi + 1
         << ",\"tid\":0,\"args\":{\"name\":\"" << proc_labels[pi]
         << "\"}}";
    }
    for (const StitchedSpan& s : spans) {
      os << ",{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
         << "\",\"ph\":\"" << (s.instant ? 'i' : 'X')
         << "\",\"pid\":" << s.proc + 1 << ",\"tid\":" << s.tid
         << ",\"ts\":" << (s.wall_ns - base) / 1000.0;
      if (s.instant)
        os << ",\"s\":\"t\"";
      else
        os << ",\"dur\":" << s.dur_ns / 1000.0;
      os << ",\"args\":{\"trace_id\":" << trace_id;
      if (!s.arg_name.empty())
        os << ",\"" << s.arg_name
           << "\":" << static_cast<std::uint64_t>(s.arg);
      os << "}}";
    }
    os << "]}";
    OCPS_CHECK(os.good(), "write failed for " << out);
    std::cout << "\nwrote stitched Chrome trace (" << spans.size()
              << " spans, " << proc_labels.size() << " procs) to " << out
              << "\n";
  }
  return 0;
}

// `ocps slo`: one-shot view of an endpoint's SLO burn rates.
int cmd_slo(const ArgParser& args) {
  serve::Request req;
  req.id = 1;
  req.op = serve::Op::kSlo;
  Result<serve::Response> resp = one_shot_request(args, "slo", req);
  if (!resp.ok()) {
    std::cerr << "error: " << resp.error().to_string() << "\n";
    return 1;
  }
  if (!resp.value().ok) {
    std::cerr << "error: endpoint replied " << resp.value().code << ": "
              << resp.value().error << "\n";
    return 1;
  }
  const json::Value& body = resp.value().body;
  if (!body.get_bool("configured", false)) {
    std::cout << "no SLOs configured (start the endpoint with "
                 "--slo-p99-ms and/or --slo-availability)\n";
    return 0;
  }
  TextTable t({"objective", "target", "budget", "burn 5m", "burn 1h",
               "breaching"});
  if (const json::Value* objectives = body.find("objectives"))
    if (objectives->is_array())
      for (const json::Value& o : objectives->as_array())
        t.add_row({o.get_string("name", "?"),
                   TextTable::num(o.get_number("target", 0.0), 4),
                   TextTable::num(o.get_number("budget", 0.0), 4),
                   TextTable::num(o.get_number("burn_5m", 0.0), 3),
                   TextTable::num(o.get_number("burn_1h", 0.0), 3),
                   o.get_bool("breaching", false) ? "YES" : "no"});
  t.print(std::cout);
  double alerts_total = body.get_number("alerts_total", 0.0);
  std::cout << "breach alerts: " << alerts_total << " total\n";
  if (const json::Value* alerts = body.find("alerts"))
    if (alerts->is_array())
      for (const json::Value& a : alerts->as_array())
        std::cout << "  #" << a.get_number("seq", 0.0) << " "
                  << a.get_string("objective", "?") << " at +"
                  << TextTable::num(a.get_number("at_ns", 0.0) / 1e9, 1)
                  << "s: burn 5m "
                  << TextTable::num(a.get_number("burn_5m", 0.0), 3)
                  << ", 1h "
                  << TextTable::num(a.get_number("burn_1h", 0.0), 3)
                  << "\n";
  return 0;
}

// Helpers shared by `ocps decisions` and `ocps why`: render wire-shape
// decision records (serve/protocol.hpp decision_json) as tables.

std::string alloc_summary(const json::Value& rec, const char* key) {
  std::string out;
  if (const json::Value* a = rec.find(key))
    if (a->is_array())
      for (const json::Value& u : a->as_array()) {
        if (!out.empty()) out += "/";
        out += std::to_string(static_cast<long long>(
            u.is_number() ? u.as_number() : 0.0));
      }
  return out;
}

// Mean of the finite entries of a number-or-null array ("error",
// "predicted_mr", ...); NaN when none.
double finite_mean(const json::Value& rec, const char* key, bool absolute) {
  double sum = 0.0;
  std::size_t n = 0;
  if (const json::Value* arr = rec.find(key))
    if (arr->is_array())
      for (const json::Value& v : arr->as_array())
        if (v.is_number() && std::isfinite(v.as_number())) {
          sum += absolute ? std::fabs(v.as_number()) : v.as_number();
          ++n;
        }
  return n > 0 ? sum / static_cast<double>(n) : std::nan("");
}

void print_drift_json(const json::Value& body) {
  const json::Value* drift = body.find("drift");
  if (!drift) return;
  std::cout << "drift: EWMA |error| "
            << TextTable::num(drift->get_number("ewma_abs_error", 0.0), 5)
            << ", bias " << TextTable::num(drift->get_number("bias", 0.0), 5)
            << " over " << drift->get_number("samples", 0.0) << " samples";
  if (drift->get_bool("configured", false))
    std::cout << " (threshold "
              << TextTable::num(drift->get_number("threshold", 0.0), 5)
              << (drift->get_bool("breaching", false) ? ", BREACHING" : "")
              << ")";
  else
    std::cout << " (alerting off; set --drift-threshold)";
  std::cout << "\n";
  if (const json::Value* alerts = drift->find("alerts"))
    if (alerts->is_array())
      for (const json::Value& a : alerts->as_array())
        std::cout << "  drift alert #" << a.get_number("seq", 0.0)
                  << " at decision " << a.get_number("decision_id", 0.0)
                  << ": EWMA |error| "
                  << TextTable::num(a.get_number("ewma_abs_error", 0.0), 5)
                  << " > " << TextTable::num(a.get_number("threshold", 0.0), 5)
                  << ", worst tenant " << a.get_string("tenant", "?") << "\n";
}

// One endpoint's audit view (the daemon body shape: "decisions" +
// "accuracy" + "drift").
void print_decision_body(const json::Value& body) {
  TextTable t({"id", "epoch", "trigger", "alloc", "reconciled", "mean |err|",
               "note"});
  if (const json::Value* rows = body.find("decisions"))
    if (rows->is_array())
      for (const json::Value& d : rows->as_array()) {
        const bool reconciled = d.get_bool("reconciled", false);
        double mean_err = finite_mean(d, "error", /*absolute=*/true);
        t.add_row(
            {std::to_string(
                 static_cast<long long>(d.get_number("decision_id", 0.0))),
             std::to_string(
                 static_cast<long long>(d.get_number("epoch", 0.0))),
             d.get_string("trigger", "?"), alloc_summary(d, "alloc"),
             !reconciled ? "no"
                         : (d.get_bool("partial", false) ? "partial" : "yes"),
             std::isfinite(mean_err) ? TextTable::num(mean_err, 5) : "-",
             d.get_string("note", "")});
      }
  t.print(std::cout);
  if (const json::Value* acc = body.find("accuracy"))
    std::cout << "accuracy: " << acc->get_number("decisions_total", 0.0)
              << " decisions, " << acc->get_number("reconciled", 0.0)
              << " reconciled, mean |error| "
              << TextTable::num(acc->get_number("mean_abs_error", 0.0), 5)
              << ", max "
              << TextTable::num(acc->get_number("max_abs_error", 0.0), 5)
              << ", bias "
              << TextTable::num(acc->get_number("bias", 0.0), 5) << "\n";
  print_drift_json(body);
}

// `ocps decisions`: one-shot audit-trail view. A router body carries a
// "backends" array (one audit view per daemon); a daemon body is the
// view itself.
int cmd_decisions(const ArgParser& args) {
  serve::Request req;
  req.id = 1;
  req.op = serve::Op::kDecisions;
  std::int64_t limit = args.get_int("limit", 0);
  OCPS_CHECK(limit >= 0, "limit must be >= 0");
  req.limit = static_cast<std::size_t>(limit);
  Result<serve::Response> resp = one_shot_request(args, "decisions", req);
  if (!resp.ok()) {
    std::cerr << "error: " << resp.error().to_string() << "\n";
    return 1;
  }
  if (!resp.value().ok) {
    std::cerr << "error: endpoint replied " << resp.value().code << ": "
              << resp.value().error << "\n";
    return 1;
  }
  const json::Value& body = resp.value().body;
  const json::Value* backends = body.find("backends");
  if (backends && backends->is_array()) {
    for (const json::Value& b : backends->as_array()) {
      std::cout << "backend " << b.get_number("backend", 0.0) << " ("
                << b.get_string("endpoint", "?") << "):\n";
      print_decision_body(b);
      std::cout << "\n";
    }
    return 0;
  }
  print_decision_body(body);
  return 0;
}

// `ocps why <decision-id>`: the audit-trail drill-down — what this
// decision changed relative to the previous one, and how its predictions
// held up.
int cmd_why(const ArgParser& args) {
  OCPS_CHECK(args.positionals().size() == 2,
             "why needs one id: ocps why <decision-id> --socket PATH");
  std::uint64_t decision_id = 0;
  try {
    decision_id = std::stoull(args.positionals()[1]);
  } catch (...) {
  }
  OCPS_CHECK(decision_id != 0, "decision id must be a positive integer");

  serve::Request req;
  req.id = 1;
  req.op = serve::Op::kDecisions;
  req.decision_id = decision_id;
  Result<serve::Response> resp = one_shot_request(args, "why", req);
  if (!resp.ok()) {
    std::cerr << "error: " << resp.error().to_string() << "\n";
    return 1;
  }
  if (!resp.value().ok) {
    std::cerr << "error: endpoint replied " << resp.value().code << ": "
              << resp.value().error << "\n";
    return 1;
  }
  // Through a router the record arrives inside the first "backends"
  // entry (ids are per-daemon; the router already 404s when nobody knows
  // the id).
  const json::Value* view = &resp.value().body;
  if (const json::Value* backends = view->find("backends"))
    if (backends->is_array() && !backends->as_array().empty()) {
      const json::Value& b = backends->as_array().front();
      std::cout << "answered by backend " << b.get_number("backend", 0.0)
                << " (" << b.get_string("endpoint", "?") << ")\n";
      view = &b;
    }
  const json::Value* d = view->find("decision");
  if (!d) {
    std::cerr << "error: endpoint answered without a decision record\n";
    return 1;
  }

  std::cout << "decision #" << d->get_number("decision_id", 0.0)
            << " — trigger " << d->get_string("trigger", "?") << " — epoch "
            << d->get_number("epoch", 0.0) << " — solve "
            << TextTable::num(d->get_number("solve_ns", 0.0) / 1e6, 3)
            << " ms"
            << (d->get_bool("incremental", false) ? " (incremental)" : "")
            << "\n";
  std::string note = d->get_string("note", "");
  if (!note.empty()) std::cout << "note: " << note << "\n";

  // Previous allocation by tenant name (consecutive controller decisions
  // share the tenant list; serve decisions may not).
  std::map<std::string, double> prev_alloc;
  if (const json::Value* prev = view->find("previous"))
    if (const json::Value* names = prev->find("tenants"))
      if (const json::Value* units = prev->find("alloc"))
        if (names->is_array() && units->is_array() &&
            names->as_array().size() == units->as_array().size())
          for (std::size_t i = 0; i < names->as_array().size(); ++i)
            if (names->as_array()[i].is_string() &&
                units->as_array()[i].is_number())
              prev_alloc[names->as_array()[i].as_string()] =
                  units->as_array()[i].as_number();

  auto cell = [](const json::Value* arr, std::size_t i,
                 int digits) -> std::string {
    if (!arr || !arr->is_array() || i >= arr->as_array().size())
      return "-";
    const json::Value& v = arr->as_array()[i];
    if (!v.is_number() || !std::isfinite(v.as_number())) return "-";
    return TextTable::num(v.as_number(), digits);
  };

  const json::Value* tenants = d->find("tenants");
  const json::Value* alloc = d->find("alloc");
  const json::Value* predicted = d->find("predicted_mr");
  const json::Value* realized = d->find("realized_mr");
  const json::Value* error = d->find("error");
  const json::Value* degraded = d->find("tenant_degraded");
  const std::size_t n =
      tenants && tenants->is_array() ? tenants->as_array().size() : 0;
  TextTable t({"tenant", "prev", "blocks", "delta", "predicted", "realized",
               "error", "degraded"});
  for (std::size_t i = 0; i < n; ++i) {
    const json::Value& name_v = tenants->as_array()[i];
    std::string name = name_v.is_string() ? name_v.as_string() : "?";
    double units = alloc && alloc->is_array() && i < alloc->as_array().size() &&
                           alloc->as_array()[i].is_number()
                       ? alloc->as_array()[i].as_number()
                       : 0.0;
    auto prev_it = prev_alloc.find(name);
    std::string prev_cell = "-", delta_cell = "-";
    if (prev_it != prev_alloc.end()) {
      prev_cell = std::to_string(static_cast<long long>(prev_it->second));
      long long delta = static_cast<long long>(units - prev_it->second);
      delta_cell = (delta >= 0 ? "+" : "") + std::to_string(delta);
    }
    bool is_degraded = degraded && degraded->is_array() &&
                       i < degraded->as_array().size() &&
                       degraded->as_array()[i].is_bool() &&
                       degraded->as_array()[i].as_bool();
    t.add_row({name, prev_cell,
               std::to_string(static_cast<long long>(units)), delta_cell,
               cell(predicted, i, 5), cell(realized, i, 5), cell(error, i, 5),
               is_degraded ? "YES" : ""});
  }
  t.print(std::cout);

  if (!d->get_bool("reconciled", false))
    std::cout << "not reconciled yet — realized ratios arrive one epoch "
                 "later (or via the reconcile op)\n";
  else if (d->get_bool("partial", false))
    std::cout << "reconciled against a truncated trailing epoch\n";

  // Drift alerts that point at this decision.
  if (const json::Value* drift = view->find("drift"))
    if (const json::Value* alerts = drift->find("alerts"))
      if (alerts->is_array())
        for (const json::Value& a : alerts->as_array())
          if (static_cast<std::uint64_t>(
                  a.get_number("decision_id", 0.0)) == decision_id)
            std::cout << "drift alert #" << a.get_number("seq", 0.0)
                      << " fired on this decision: EWMA |error| "
                      << TextTable::num(
                             a.get_number("ewma_abs_error", 0.0), 5)
                      << " > "
                      << TextTable::num(a.get_number("threshold", 0.0), 5)
                      << ", worst tenant " << a.get_string("tenant", "?")
                      << "\n";
  return 0;
}

// `ocps top`: poll the daemon's metrics + health ops and redraw a compact
// dashboard. Rates are first differences between consecutive polls.
int cmd_top(const ArgParser& args) {
  std::string socket = args.get_string("socket", "");
  OCPS_CHECK(!socket.empty(), "top needs --socket PATH");
  std::int64_t interval_ms = args.get_int("interval-ms", 1000);
  OCPS_CHECK(interval_ms > 0, "interval-ms must be positive");
  std::int64_t iterations = args.get_int("iterations", 0);
  bool ansi = !args.has("no-ansi");
  auto timeout = std::chrono::milliseconds(args.get_int("timeout-ms", 5000));

  Result<serve::Client> client = serve::Client::connect(socket);
  if (!client.ok()) {
    std::cerr << "error: " << client.error().to_string() << "\n";
    return 1;
  }

  double prev_answered = 0.0, prev_shed = 0.0, prev_expired = 0.0;
  auto prev_time = std::chrono::steady_clock::now();
  bool have_prev = false;

  for (std::int64_t frame = 0; iterations == 0 || frame < iterations;
       ++frame) {
    if (frame > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));

    serve::Request mreq;
    mreq.id = 2 * frame + 1;
    mreq.op = serve::Op::kMetrics;
    Result<serve::Response> metrics_resp =
        client.value().call(serve::encode_request(mreq), timeout);
    serve::Request hreq;
    hreq.id = 2 * frame + 2;
    hreq.op = serve::Op::kHealth;
    Result<serve::Response> health_resp =
        client.value().call(serve::encode_request(hreq), timeout);
    if (!metrics_resp.ok() || !health_resp.ok()) {
      const Error& err = metrics_resp.ok() ? health_resp.error()
                                           : metrics_resp.error();
      std::cerr << "error: " << err.to_string() << "\n";
      return 1;
    }
    if (!metrics_resp.value().ok) {
      std::cerr << "error: daemon replied " << metrics_resp.value().code
                << ": " << metrics_resp.value().error << "\n";
      return 1;
    }

    const json::Value& health = health_resp.value().body;
    const json::Value* metrics = metrics_resp.value().body.find("metrics");
    auto num = [&](const char* section, const std::string& name) {
      const json::Value* s = metrics ? metrics->find(section) : nullptr;
      return s ? s->get_number(name, 0.0) : 0.0;
    };

    double answered = num("counters", "serve.answered");
    double shed = num("counters", "serve.shed");
    double expired = num("counters", "serve.deadline_exceeded");
    double batches = num("counters", "serve.batches");
    double queue = num("gauges", "serve.queue_depth");
    double window_s = num("gauges", "serve.latency_window_s");
    double batch_count = 0.0, batch_sum = 0.0;
    if (metrics)
      if (const json::Value* hs = metrics->find("histograms"))
        if (const json::Value* h = hs->find("serve.batch_size")) {
          batch_count = h->get_number("count", 0.0);
          batch_sum = h->get_number("sum", 0.0);
        }

    auto now = std::chrono::steady_clock::now();
    double dt = std::chrono::duration<double>(now - prev_time).count();
    double rps = 0.0, shed_ps = 0.0, exp_ps = 0.0;
    if (have_prev && dt > 0.0) {
      rps = (answered - prev_answered) / dt;
      shed_ps = (shed - prev_shed) / dt;
      exp_ps = (expired - prev_expired) / dt;
    }
    prev_answered = answered;
    prev_shed = shed;
    prev_expired = expired;
    prev_time = now;
    have_prev = true;

    std::ostringstream frame_out;
    if (ansi) frame_out << "\x1b[H\x1b[2J";
    frame_out << "ocps top — " << socket << " — profile set v"
              << static_cast<std::uint64_t>(health.get_number("version", 0.0))
              << " — up "
              << TextTable::num(health.get_number("uptime_ms", 0.0) / 1000.0,
                                1)
              << "s"
              << (health.get_bool("draining", false) ? " — DRAINING" : "")
              << "\n";
    if (const json::Value* bi =
            metrics ? metrics->find("build_info") : nullptr)
      frame_out << "build " << bi->get_string("git_sha", "?") << " — "
                << bi->get_string("compiler", "?") << " — simd "
                << bi->get_string("simd_kernel", "?") << "\n";
    frame_out << "\n";
    frame_out << "  throughput  " << TextTable::num(rps, 1)
              << " req/s    answered " << answered << "    shed " << shed
              << " (" << TextTable::num(shed_ps, 1) << "/s)    504 "
              << expired << " (" << TextTable::num(exp_ps, 1) << "/s)\n";
    frame_out << "  queue depth " << queue << "    batches " << batches
              << "    avg batch "
              << TextTable::num(batch_count > 0.0 ? batch_sum / batch_count
                                                  : 0.0,
                                2)
              << "\n";
    frame_out << "  latency ms  p50 "
              << TextTable::num(num("gauges", "serve.request_latency.p50"), 3)
              << "   p95 "
              << TextTable::num(num("gauges", "serve.request_latency.p95"), 3)
              << "   p99 "
              << TextTable::num(num("gauges", "serve.request_latency.p99"), 3)
              << "   (lifetime)\n";
    frame_out << "  window      p50 "
              << TextTable::num(
                     num("gauges", "serve.request_latency.window.p50"), 3)
              << "   p95 "
              << TextTable::num(
                     num("gauges", "serve.request_latency.window.p95"), 3)
              << "   p99 "
              << TextTable::num(
                     num("gauges", "serve.request_latency.window.p99"), 3)
              << "   (last " << window_s << "s)\n";
    frame_out << "  stage p99   ";
    static const char* kStages[] = {"queue_wait", "solve", "serialize",
                                    "network"};
    for (const char* stage : kStages)
      frame_out << stage << " "
                << TextTable::num(
                       num("gauges", std::string("serve.stage.") + stage +
                                         ".window.p99"),
                       3)
                << "   ";
    frame_out << "(ms)\n";
    // Decision-quality plane: predicted-vs-realized accounting + drift.
    frame_out << "  decisions   total " << num("gauges", "dp.decision.total")
              << "    reconciled "
              << num("gauges", "dp.decision.reconciled") << "    mean |err| "
              << TextTable::num(
                     num("gauges", "dp.decision.mean_abs_error"), 5)
              << "    bias "
              << TextTable::num(num("gauges", "dp.decision.bias"), 5)
              << "\n";
    frame_out << "  drift       EWMA |err| "
              << TextTable::num(num("gauges", "dp.drift.ewma_abs_error"), 5)
              << "    err p99 "
              << TextTable::num(
                     num("gauges", "dp.prediction_error.window.p99"), 5)
              << "    alerts "
              << num("gauges", "dp.drift.alerts_total")
              << (num("gauges", "dp.drift.breaching") > 0.0 ? "    BREACHING"
                                                            : "")
              << "\n";
    std::cout << frame_out.str() << std::flush;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  ArgParser args(argc, argv, /*flags=*/{"binary", "no-ansi"});

  // Every subcommand declares its flags; anything else is rejected with a
  // nearest-match suggestion instead of being silently ignored.
  const std::map<std::string, std::vector<std::string>> known_flags = {
      {"profile", {"block-bytes", "binary", "rate", "name", "o"}},
      {"mrc", {"capacity"}},
      {"predict", {"capacity"}},
      {"optimize", {"capacity", "baseline", "objective"}},
      {"simulate", {"capacity", "block-bytes", "warmup"}},
      {"sweep", {"capacity", "group-size", "threads"}},
      {"phases", {"block-bytes", "binary", "window", "threshold"}},
      {"controller",
       {"capacity", "block-bytes", "binary", "epoch", "sampling-rate",
        "min-units", "max-delta", "policy", "drift-alpha", "drift-threshold",
        "decisions-out", "fault-rate", "fault-nan", "fault-spike",
        "fault-truncate", "fault-drop", "fault-dp-fail", "fault-seed",
        "trace-out", "metrics-out"}},
      {"stats",
       {"capacity", "block-bytes", "binary", "epoch", "length", "trace-out",
        "metrics-out", "socket", "timeout-ms"}},
      {"serve",
       {"socket", "listen", "max-conns", "io-timeout-ms", "capacity",
        "max-batch", "queue-cap", "threads", "deadline-ms", "metrics-port",
        "slowlog-cap", "window-s", "slo-p99-ms", "slo-availability",
        "decision-log-cap", "drift-alpha", "drift-threshold", "trace-out",
        "metrics-out", "chaos-accept-fail", "chaos-reset", "chaos-trickle",
        "chaos-stall", "chaos-stall-ms", "chaos-seed"}},
      {"router",
       {"socket", "listen", "backends", "vnodes", "breaker-threshold",
        "breaker-cooldown-ms", "breaker-probes", "connect-timeout-ms",
        "io-timeout-ms", "health-interval-ms", "deadline-ms", "max-conns",
        "metrics-port", "slo-p99-ms", "slo-availability",
        "chaos-accept-fail", "chaos-reset", "chaos-trickle", "chaos-stall",
        "chaos-stall-ms", "chaos-seed"}},
      {"query",
       {"socket", "addr", "op", "programs", "paths", "capacity", "objective",
        "group-size", "deadline-ms", "trace-id", "decision-id", "limit",
        "realized", "timeout-ms", "retries", "retry-base-ms", "retry-max-ms",
        "retry-seed"}},
      {"trace", {"socket", "addr", "out", "timeout-ms"}},
      {"slo", {"socket", "addr", "timeout-ms"}},
      {"decisions", {"socket", "addr", "limit", "timeout-ms"}},
      {"why", {"socket", "addr", "timeout-ms"}},
      {"top",
       {"socket", "interval-ms", "iterations", "no-ansi", "timeout-ms"}},
  };

  try {
    auto known = known_flags.find(command);
    if (known != known_flags.end()) {
      // Flags that other subcommands accept get routed ("--threads is
      // valid for: serve, sweep") instead of a nearest-typo guess.
      std::map<std::string, std::string> known_elsewhere;
      for (const auto& [other, flags] : known_flags) {
        if (other == command) continue;
        for (const std::string& flag : flags) {
          if (std::find(known->second.begin(), known->second.end(), flag) !=
              known->second.end())
            continue;
          std::string& commands = known_elsewhere[flag];
          if (!commands.empty()) commands += ", ";
          commands += other;
        }
      }
      args.reject_unknown(known->second, known_elsewhere);
    }
    if (command == "profile") return cmd_profile(args);
    if (command == "mrc") return cmd_mrc(args);
    if (command == "predict") return cmd_predict(args);
    if (command == "optimize") return cmd_optimize(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "phases") return cmd_phases(args);
    if (command == "controller") return cmd_controller(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "router") return cmd_router(args);
    if (command == "query") return cmd_query(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "slo") return cmd_slo(args);
    if (command == "decisions") return cmd_decisions(args);
    if (command == "why") return cmd_why(args);
    if (command == "top") return cmd_top(args);
    return usage();
  } catch (const CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
