// table1-cold: the paper's Table I from nothing (§VII-A). Profile the 16
// programs at 400 k accesses each with no footprint cache, then sweep all
// 1820 four-program groups × 6 methods at C = 1024 on the full-width
// pool. It is the only workload where trace generation and profiling do
// real work. Nothing is read from or written to ocps_cache/ on the timed
// path: the suite options carry no cache directory.
#include <cstring>
#include <string>

#include "combinatorics/enumerate.hpp"
#include "core/baselines.hpp"
#include "core/batch_engine.hpp"
#include "core/composition.hpp"
#include "core/dp_partition.hpp"
#include "core/group_sweep.hpp"
#include "core/program_model.hpp"
#include "core/sttw.hpp"
#include "locality/footprint.hpp"
#include "locality/footprint_io.hpp"
#include "locality/reuse_time.hpp"
#include "obs/obs.hpp"
#include "reference.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using namespace ocps;

namespace {

constexpr std::size_t kGroupSize = 4;

SuiteOptions cold_suite_options() {
  SuiteOptions options;
  options.trace_length = kTraceLength;
  options.capacity = kCapacity;
  options.cache_dir.clear();  // cold: never touch ocps_cache/
  return options;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

const char* method_key(std::size_t m) {
  static const char* kKeys[kNumMethods] = {
      "equal", "natural", "equal_baseline", "natural_baseline", "optimal", "sttw"};
  return kKeys[m];
}

/// Each method's Σ group_mr must equal the committed reference bit for
/// bit; a sweep that misses any of them is one failed operation.
bool check_sums(const std::vector<GroupEvaluation>& sweep, const char* what,
                Report& report) {
  std::string why;
  for (std::size_t m = 0; m < kNumMethods; ++m) {
    double sum = 0.0;
    for (const GroupEvaluation& g : sweep) sum += g.methods[m].group_mr;
    if (!same_bits(sum, reference::kTable1GroupMrSum[m]))
      why += std::string(" ") + method_key(m) + " sum of group_mr " + hex_float(sum) +
             " != reference " + hex_float(reference::kTable1GroupMrSum[m]) + ";";
  }
  if (!why.empty()) report.fail(std::string(what) + ":" + why);
  return why.empty();
}

struct Regeneration {
  Suite suite;
  std::vector<GroupEvaluation> sweep;
  double wall_s = 0.0, cpu_s = 0.0;              ///< whole regeneration
  double profile_wall_s = 0.0, profile_cpu_s = 0.0;  ///< build_suite
  double sweep_wall_s = 0.0, sweep_cpu_s = 0.0;      ///< sweep_groups
};

Regeneration regenerate(const std::vector<std::vector<std::uint32_t>>& groups,
                        SpanLog* spans, std::uint64_t parent) {
  Regeneration r;
  const double w0 = wall_s(), c0 = cpu_s();
  {
    Scope s(spans, "build_spec2006_suite", parent);
    r.suite = build_spec2006_suite(cold_suite_options());
  }
  const double w1 = wall_s(), c1 = cpu_s();
  {
    Scope s(spans, "sweep_groups", parent);
    SweepOptions options;
    options.capacity = kCapacity;
    r.sweep = sweep_groups(r.suite.models, groups, options);
  }
  const double w2 = wall_s(), c2 = cpu_s();
  r.wall_s = w2 - w0;
  r.cpu_s = c2 - c0;
  r.profile_wall_s = w1 - w0;
  r.profile_cpu_s = c1 - c0;
  r.sweep_wall_s = w2 - w1;
  r.sweep_cpu_s = c2 - c1;
  return r;
}

std::uint64_t counter_value(const char* name) {
  return obs::counter(name).value();
}

/// Cells of the DP table that can lie on a complete allocation, for one
/// group solved with lower bounds `lo` and upper bounds C — the layout
/// optimize_partition and PrefixDpSolver use: layer 0 in closed form, the
/// middle layers over every state, the last layer at state C only. With
/// slack S = C − Σlo, the first and last layers hold S + 1 such cells and
/// each middle layer (S + 1)(S + 2) / 2.
double feasible_cells(const std::vector<std::size_t>& lo) {
  std::size_t sum = 0;
  for (std::size_t v : lo) sum += v;
  if (sum > kCapacity || lo.size() < 2) return 0.0;
  const double s = static_cast<double>(kCapacity - sum);
  const double middle = static_cast<double>(lo.size() - 2);
  return 2.0 * (s + 1.0) + middle * (s + 1.0) * (s + 2.0) / 2.0;
}

}  // namespace

EndToEnd run_table1_cold(const Options& options, Report& report) {
  EndToEnd e2e;
  // Set-up, once per process: the pool's threads start, the group list
  // is built, and one checked regeneration runs untimed so the allocator
  // arenas, page mappings and lazily initialised state (DP kernel
  // dispatch, workload tables) exist before timing starts.
  const double s0 = wall_s();
  parallel_for(0, parallel_thread_count(), [](std::size_t) {});
  const auto groups = all_subsets(16, kGroupSize);
  report.count_attempt();
  check_sums(regenerate(groups, nullptr, 0).sweep, "table1-cold warm-up", report);
  e2e.setup_s.push_back(wall_s() - s0);

  const double start = wall_s();
  while (e2e.latency_ms.size() < 3 || wall_s() - start < options.seconds) {
    report.count_attempt();
    Regeneration r = regenerate(groups, nullptr, 0);
    e2e.latency_ms.push_back(r.wall_s * 1e3);
    e2e.cpu_ms.push_back(r.cpu_s * 1e3);
    if (!check_sums(r.sweep, "table1-cold", report)) break;
  }
  return e2e;
}

void ledger_table1(const Options&, Report& report, SpanLog& spans,
                   std::uint64_t root) {
  const auto groups = all_subsets(16, kGroupSize);
  const double threads = static_cast<double>(parallel_thread_count());

  // Tracing cost: untraced and traced regenerations, alternating.
  std::vector<double> off_s, on_s, profile_util, sweep_util, sweep_s;
  Regeneration traced;
  for (int i = 0; i < 2; ++i) {
    obs::set_enabled(false);
    {
      Scope s(&spans, "table1.untraced", root);
      Regeneration r = regenerate(groups, &spans, s.id());
      off_s.push_back(r.wall_s);
      check_sums(r.sweep, "table1 ledger (untraced)", report);
    }
    obs::set_enabled(true);
    obs::reset_metrics();
    Scope s(&spans, "table1.traced", root);
    traced = regenerate(groups, &spans, s.id());
    on_s.push_back(traced.wall_s);
    profile_util.push_back(traced.profile_cpu_s / (threads * traced.profile_wall_s));
    sweep_util.push_back(traced.sweep_cpu_s / (threads * traced.sweep_wall_s));
    sweep_s.push_back(traced.sweep_wall_s);
    check_sums(traced.sweep, "table1 ledger (traced)", report);
  }
  report.count_attempt(4);
  report.add("obs.overhead_frac.table1", median(on_s) / median(off_s) - 1.0, "ratio");
  report.add("pool.profile_util", median(profile_util), "ratio");
  report.add("pool.sweep_util", median(sweep_util), "ratio");
  report.add("core.sweep_s", median(sweep_s), "s");
  report.add("core.dp_layers_computed",
             static_cast<double>(counter_value("sweep.dp_layers_computed")), "count");
  report.add("core.dp_layers_reused",
             static_cast<double>(counter_value("sweep.dp_layers_reused")), "count");
  const std::vector<ProgramModel>& models = traced.suite.models;
  const std::vector<GroupEvaluation>& sweep = traced.sweep;

  // Trace generation and the three locality stages, one program at a
  // time; the models must come out exactly as build_suite made them.
  {
    Scope layer(&spans, "locality", root);
    double generate = 0, reuse = 0, footprint = 0, hotl = 0;
    const auto& specs = traced.suite.specs;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      double t = wall_s();
      Trace trace;
      {
        Scope s(&spans, "WorkloadSpec::generate", layer.id());
        trace = specs[i].generate(kTraceLength);
      }
      double t1 = wall_s();
      generate += t1 - t;
      ReuseProfile profile;
      {
        Scope s(&spans, "profile_reuse", layer.id());
        profile = profile_reuse(trace);
      }
      double t2 = wall_s();
      reuse += t2 - t1;
      FootprintCurve fp;
      {
        Scope s(&spans, "footprint_from_profile", layer.id());
        fp = footprint_from_profile(profile);
      }
      double t3 = wall_s();
      footprint += t3 - t2;
      ProgramModel model;
      {
        Scope s(&spans, "make_program_model", layer.id());
        model = make_program_model(specs[i].name, specs[i].access_rate, fp,
                                   kCapacity, SuiteOptions{}.footprint_knots);
      }
      hotl += wall_s() - t3;
      const ProgramModel& want = models[i];
      bool same = model.name == want.name && model.trace_length == want.trace_length &&
                  model.distinct == want.distinct;
      for (std::size_t c = 0; same && c <= kCapacity; ++c)
        same = same_bits(model.mrc.ratio(c), want.mrc.ratio(c));
      report.count_attempt();
      if (!same) report.fail("locality pass: model of " + want.name + " differs from build_suite's");
    }
    report.add("trace.generate_s", generate, "s");
    report.add("locality.reuse_s", reuse, "s");
    report.add("locality.footprint_s", footprint, "s");
    report.add("locality.hotl_s", hotl, "s");
  }

  // Loading the committed footprint files (what a serving daemon does on
  // start and on reload). Read-only.
  {
    Scope layer(&spans, "locality.fp_load", root);
    double load = 0;
    for (const ProgramModel& want : models) {
      const double t = wall_s();
      FootprintFile file =
          load_footprint_file("ocps_cache/" + want.name + "_n400000.fp");
      ProgramModel model = model_from_footprint_file(file, kCapacity);
      load += wall_s() - t;
      report.count_attempt();
      if (model.name != want.name) report.fail("fp load: wrong program " + model.name);
    }
    report.add("locality.fp_load_s", load, "s");
  }

  // Cost matrix, then the single-thread sweep (the ROADMAP's target).
  {
    std::vector<double> times;
    for (int i = 0; i < 9; ++i) {
      Scope s(&spans, "precompute_unit_cost_matrix", root);
      const double t = wall_s();
      CostMatrix m = precompute_unit_cost_matrix(models, kCapacity);
      times.push_back(wall_s() - t);
    }
    report.add("core.cost_matrix_s", median(times), "s");
  }
  {
    Scope s(&spans, "sweep_groups.threads1", root);
    SweepOptions options;
    options.capacity = kCapacity;
    options.threads = 1;
    const double t = wall_s();
    auto serial = sweep_groups(models, groups, options);
    report.add("core.sweep_1t_s", wall_s() - t, "s");
    report.count_attempt();
    check_sums(serial, "single-thread sweep", report);
  }

  // Each method alone, single thread, through its public entry, in the
  // sweep's group order; every allocation must match the sweep's.
  const CostMatrix unit = precompute_unit_cost_matrix(models, kCapacity);
  std::vector<CoRunGroup> corun;
  std::vector<std::vector<const double*>> rows(groups.size());
  std::vector<CostMatrixView> views;
  corun.reserve(groups.size());
  views.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<const ProgramModel*> members;
    for (std::uint32_t idx : groups[g]) members.push_back(&models[idx]);
    corun.emplace_back(std::move(members));
    views.push_back(unit.gather(groups[g].data(), groups[g].size(), rows[g]));
  }
  auto check_method = [&](const char* pass, Method m, std::size_t g,
                          const std::vector<double>& alloc, double group_mr) {
    const MethodOutcome& want = sweep[g].of(m);
    if (alloc != want.alloc || !same_bits(group_mr, want.group_mr)) {
      report.fail(std::string(pass) + ": " + method_key(static_cast<std::size_t>(m)) +
                  " differs from the sweep on group " + std::to_string(g));
      return false;
    }
    return true;
  };
  auto mr_of = [&](std::size_t g, const std::vector<std::size_t>& alloc) {
    std::vector<double> mr(alloc.size());
    for (std::size_t i = 0; i < alloc.size(); ++i) mr[i] = corun[g][i].mrc.ratio(alloc[i]);
    return group_miss_ratio(corun[g], mr);
  };
  auto as_double = [](const std::vector<std::size_t>& v) {
    return std::vector<double>(v.begin(), v.end());
  };
  // Runs one method over every group, timing only the method's calls,
  // then checks each answer against the sweep.
  auto time_method = [&](Method m, auto&& solve) {
    Scope s(&spans, std::string("method.") + method_key(static_cast<std::size_t>(m)), root);
    std::vector<std::vector<std::size_t>> allocs(groups.size());
    const double t = wall_s();
    for (std::size_t g = 0; g < groups.size(); ++g) allocs[g] = solve(g);
    const double elapsed = wall_s() - t;
    for (std::size_t g = 0; g < groups.size(); ++g)
      if (!check_method("method pass", m, g, as_double(allocs[g]), mr_of(g, allocs[g]))) break;
    report.count_attempt();
    report.add(std::string("core.method.") + method_key(static_cast<std::size_t>(m)) + "_s",
               elapsed, "s");
  };

  time_method(Method::kEqual, [&](std::size_t g) {
    return equal_partition(groups[g].size(), kCapacity);
  });
  {
    Scope s(&spans, "method.natural", root);
    std::vector<std::vector<double>> allocs(groups.size()), mrs(groups.size());
    const double t = wall_s();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      allocs[g] = natural_partition(corun[g], static_cast<double>(kCapacity));
      mrs[g] = predict_shared_miss_ratios(corun[g], static_cast<double>(kCapacity));
    }
    const double elapsed = wall_s() - t;
    for (std::size_t g = 0; g < groups.size(); ++g)
      if (!check_method("method pass", Method::kNatural, g, allocs[g],
                        group_miss_ratio(corun[g], mrs[g])))
        break;
    report.count_attempt();
    report.add("core.method.natural_s", elapsed, "s");
  }
  PrefixDpSolver equal_baseline, optimal;
  equal_baseline.configure(unit.view(), kCapacity, DpObjective::kSumCost);
  optimal.configure(unit.view(), kCapacity, DpObjective::kSumCost);
  DpResult dp;
  time_method(Method::kEqualBaseline, [&](std::size_t g) {
    const auto lo = baseline_min_allocs(
        corun[g], as_double(equal_partition(groups[g].size(), kCapacity)));
    equal_baseline.solve(groups[g].data(), groups[g].size(), lo.data(), dp);
    return dp.alloc;
  });
  DpScratch scratch;
  const std::uint64_t nb_cells_before = counter_value("dp.cells");
  time_method(Method::kNaturalBaseline, [&](std::size_t g) {
    return optimize_natural_baseline(corun[g], views[g], kCapacity, &scratch).alloc;
  });
  const std::uint64_t nb_cells = counter_value("dp.cells") - nb_cells_before;
  time_method(Method::kOptimal, [&](std::size_t g) {
    optimal.solve(groups[g].data(), groups[g].size(), nullptr, dp);
    return dp.alloc;
  });
  time_method(Method::kSttw, [&](std::size_t g) {
    return sttw_partition(views[g], kCapacity).alloc;
  });
  const double eb_cells = static_cast<double>(equal_baseline.stats().cells);
  const double opt_cells = static_cast<double>(optimal.stats().cells);
  report.add("core.dp_cells", eb_cells + opt_cells + static_cast<double>(nb_cells), "count");
  report.add("core.dp_cells.equal_baseline", eb_cells, "count");
  report.add("core.dp_cells.natural_baseline", static_cast<double>(nb_cells), "count");
  report.add("core.dp_cells.optimal", opt_cells, "count");

  // DP accounting, per group and before prefix sharing: cells the solver
  // examined (its own dp.cells counter) against cells that could lie on
  // an allocation meeting the baseline_min_allocs bounds.
  {
    Scope layer(&spans, "dp_accounting", root);
    struct Bounds {
      Method method;
      std::vector<std::size_t> (*lo)(const CoRunGroup&);
    };
    const Bounds kinds[] = {
        {Method::kEqualBaseline,
         [](const CoRunGroup& g) {
           auto equal = equal_partition(g.size(), kCapacity);
           return baseline_min_allocs(g, std::vector<double>(equal.begin(), equal.end()));
         }},
        {Method::kNaturalBaseline,
         [](const CoRunGroup& g) {
           auto natural = natural_partition(g, static_cast<double>(kCapacity));
           auto lo = baseline_min_allocs(g, natural);
           std::size_t sum = 0;
           for (std::size_t v : lo) sum += v;
           if (sum <= kCapacity) return lo;
           // Same fallback as optimize_natural_baseline: the integerized
           // natural partition as the baseline.
           auto integral = integerize_partition(natural, kCapacity);
           return baseline_min_allocs(g, std::vector<double>(integral.begin(), integral.end()));
         }},
        {Method::kOptimal,
         [](const CoRunGroup& g) { return std::vector<std::size_t>(g.size(), 0); }},
    };
    for (const Bounds& kind : kinds) {
      double examined = 0, feasible = 0;
      bool same = true;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        DpOptions dp_options;
        dp_options.min_alloc = kind.lo(corun[g]);
        const std::uint64_t before = counter_value("dp.cells");
        DpResult r = optimize_partition(views[g], kCapacity, dp_options, scratch);
        examined += static_cast<double>(counter_value("dp.cells") - before);
        feasible += feasible_cells(dp_options.min_alloc);
        if (same && !check_method("dp accounting", kind.method, g, as_double(r.alloc),
                                  mr_of(g, r.alloc)))
          same = false;
      }
      report.count_attempt();
      report.add(std::string("core.dp_feasible_frac.") +
                     method_key(static_cast<std::size_t>(kind.method)),
                 examined > 0 ? feasible / examined : 0.0, "ratio");
    }
  }
}

}  // namespace perfbench
