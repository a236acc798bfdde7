// The controller path of the traced ledger: the online repartitioning
// controller over eight suite tenants interleaved by access rate, at
// C = 1024. It is the only path through the co-run simulator and SHARDS
// sampling, next to a DP solve in every epoch. The tenants and the mix
// are fixed so the realized miss ratio and the allocation history can be
// checked against committed references bit for bit.
//
// It is not a timed workload: on a shared host its memory-bound wall time
// moved by a third between minutes (see README.md), more than any bound
// the benchmark may set.
#include <cstring>
#include <string>

#include "cachesim/corun.hpp"
#include "core/baselines.hpp"
#include "obs/obs.hpp"
#include "reference.hpp"
#include "runtime/controller.hpp"
#include "trace/interleave.hpp"
#include "workloads.hpp"
#include "workloads/spec_like.hpp"

namespace perfbench {

using namespace ocps;

namespace {

// A mix of small-footprint programs that lose from sharing and large or
// cliffed ones that gain from it, so the controller has real decisions
// to make.
const char* const kTenants[] = {"perlbench", "dealII", "h264ref", "sphinx3",
                                "namd",      "sjeng",  "wrf",     "zeusmp"};
constexpr std::size_t kNumTenants = sizeof(kTenants) / sizeof(kTenants[0]);
constexpr std::size_t kMixLength = 16'000'000;
constexpr std::size_t kEpochLength = 50'000;

struct Mix {
  InterleavedTrace trace;
  double generate_s = 0.0;
  double interleave_s = 0.0;
};

Mix make_mix(SpanLog* spans, std::uint64_t parent) {
  Mix mix;
  std::vector<Trace> traces;
  std::vector<double> rates;
  const double t0 = wall_s();
  for (const char* name : kTenants) {
    Scope s(spans, "WorkloadSpec::generate", parent);
    const WorkloadSpec& spec = find_workload(name);
    traces.push_back(spec.generate(kTraceLength));
    rates.push_back(spec.access_rate);
  }
  const double t1 = wall_s();
  {
    Scope s(spans, "interleave_proportional", parent);
    mix.trace = interleave_proportional(traces, rates, kMixLength);
  }
  mix.generate_s = t1 - t0;
  mix.interleave_s = wall_s() - t1;
  return mix;
}

ControllerConfig controller_config() {
  ControllerConfig config;
  config.capacity = kCapacity;
  config.epoch_length = kEpochLength;
  return config;
}

/// FNV-1a 64 over the allocation history, row lengths included.
std::uint64_t fnv1a(const std::vector<std::vector<std::size_t>>& rows) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix_in = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& row : rows) {
    mix_in(row.size());
    for (std::size_t v : row) mix_in(v);
  }
  return h;
}

/// The realized miss ratio and the allocation history must equal the
/// committed references; a run that misses either is one failed operation.
bool check_result(const ControllerResult& result, const char* what, Report& report) {
  std::string why;
  const double mr = result.sim.group_miss_ratio();
  if (std::memcmp(&mr, &reference::kControllerRealizedMr, sizeof mr) != 0)
    why += " realized_mr " + hex_float(mr) + " != reference " +
           hex_float(reference::kControllerRealizedMr) + ";";
  const std::uint64_t hash = fnv1a(result.alloc_history);
  if (hash != reference::kControllerAllocHash)
    why += " alloc_history hash " + std::to_string(hash) + " != reference " +
           std::to_string(reference::kControllerAllocHash) + ";";
  if (!why.empty()) report.fail(std::string(what) + ":" + why);
  return why.empty();
}

}  // namespace

void ledger_controller(const Options&, Report& report, SpanLog& spans,
                       std::uint64_t root) {
  Mix mix;
  {
    Scope s(&spans, "controller.setup", root);
    mix = make_mix(&spans, s.id());
  }
  report.add("trace.interleave_s", mix.interleave_s, "s");
  const ControllerConfig config = controller_config();

  std::vector<double> off_s, on_s;
  ControllerResult traced;
  for (int i = 0; i < 2; ++i) {
    obs::set_enabled(false);
    {
      Scope s(&spans, "controller.untraced", root);
      const double t = wall_s();
      ControllerResult r = run_online_controller(mix.trace, kNumTenants, config);
      off_s.push_back(wall_s() - t);
      check_result(r, "controller ledger (untraced)", report);
    }
    obs::set_enabled(true);
    obs::reset_metrics();
    Scope s(&spans, "controller.traced", root);
    const double t = wall_s();
    {
      Scope call(&spans, "run_online_controller", s.id());
      traced = run_online_controller(mix.trace, kNumTenants, config);
    }
    on_s.push_back(wall_s() - t);
    check_result(traced, "controller ledger (traced)", report);
  }
  report.count_attempt(4);
  report.add("runtime.run_s", median(off_s), "s");
  report.add("obs.overhead_frac.controller", median(on_s) / median(off_s) - 1.0, "ratio");
  report.add("runtime.epoch_ms", histogram_mean("controller.epoch_ns") * 1e-6, "ms");
  report.add("core.dp_solve_ms", histogram_mean("dp.solve_ns") * 1e-6, "ms");
  report.add("runtime.epochs", static_cast<double>(traced.epochs), "count");
  report.add("runtime.fallbacks", static_cast<double>(traced.fallbacks), "count");
  report.add("runtime.pred_abs_err", traced.decisions->accuracy().mean_abs_error, "ratio");
  report.add("runtime.sampled_frac", traced.sampled_fraction, "ratio");
  report.add("runtime.realized_mr", traced.sim.group_miss_ratio(), "ratio");

  {
    Scope s(&spans, "simulate_partitioned", root);
    const double t = wall_s();
    CoRunResult sim =
        simulate_partitioned(mix.trace, equal_partition(kNumTenants, kCapacity));
    const double elapsed = wall_s() - t;
    report.count_attempt();
    if (sim.accesses.size() != kNumTenants) report.fail("simulator: wrong tenant count");
    report.add("cachesim.ns_per_access",
               elapsed * 1e9 / static_cast<double>(mix.trace.length()), "ns");
  }
}

}  // namespace perfbench
