// §VII-A cost-of-analysis microbenchmarks: the DP optimizer's O(P·C²)
// scaling (O(P·S²) for slack S = C − Σlo under lower bounds) and the
// per-group optimization cost (the paper reports ~0.14 s per group for
// DP including IO, ~0.11 s for STTW on a 1.7 GHz i5), plus the
// end-to-end C(16,4) six-method sweep, whose groups share DP layers along
// common member prefixes. Measured numbers are recorded in
// BENCH_dp_speed.json and docs/performance.md.
#include <benchmark/benchmark.h>

#include "common.hpp"

#include "combinatorics/enumerate.hpp"
#include "core/batch_engine.hpp"
#include "core/dp_kernel.hpp"
#include "core/dp_partition.hpp"
#include "core/group_sweep.hpp"
#include "core/sttw.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace ocps;

CostMatrix make_costs(std::size_t programs, std::size_t capacity,
                      std::uint64_t seed) {
  Rng rng(seed);
  CostMatrix cost(programs, capacity);
  for (std::size_t i = 0; i < programs; ++i) {
    double* row = cost.row(i);
    double v = 1.0;
    for (std::size_t c = 0; c <= capacity; ++c) {
      row[c] = v;
      double step = rng.uniform() * (2.0 / static_cast<double>(capacity));
      if (rng.chance(0.02)) step += rng.uniform() * 0.2;  // cliffs
      v = std::max(0.0, v - step);
    }
  }
  return cost;
}

void BM_DpPartition(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const std::size_t c = static_cast<std::size_t>(state.range(1));
  CostMatrix cost = make_costs(p, c, 42);
  for (auto _ : state) {
    DpResult r = optimize_partition(cost.view(), c);
    benchmark::DoNotOptimize(r.objective_value);
  }
  state.SetComplexityN(static_cast<std::int64_t>(c));
  state.counters["PC^2"] =
      static_cast<double>(p) * static_cast<double>(c) *
      static_cast<double>(c);
}

// Same solve through a warm scratch arena: steady-state allocation-free.
void BM_DpPartitionWarmScratch(benchmark::State& state) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const std::size_t c = static_cast<std::size_t>(state.range(1));
  CostMatrix cost = make_costs(p, c, 42);
  DpScratch scratch;
  optimize_partition(cost.view(), c, {}, scratch);  // warm the arena
  for (auto _ : state) {
    DpResult r = optimize_partition(cost.view(), c, {}, scratch);
    benchmark::DoNotOptimize(r.objective_value);
  }
  state.counters["scratch_grows"] =
      static_cast<double>(scratch.grow_events);
}

void BM_DpWithBounds(benchmark::State& state) {
  const std::size_t c = static_cast<std::size_t>(state.range(0));
  CostMatrix cost = make_costs(4, c, 43);
  DpOptions opt;
  opt.min_alloc = {c / 16, c / 8, 0, c / 10};
  for (auto _ : state) {
    DpResult r = optimize_partition(cost.view(), c, opt);
    benchmark::DoNotOptimize(r.objective_value);
  }
}

// A baseline-bounded solve in the Natural-baseline shape: 4 programs
// whose lower bounds sum to 0.92·C, the suite's mean Σlo/C. The DP scans
// only the feasible window (slack S = 0.08·C), so this costs O(P·S²)
// against BM_DpPartition's O(P·C²); tools/check_bench_regression.py
// gates their in-run ratio, so losing the window fails CI anywhere.
void BM_DpBaselineBounds(benchmark::State& state) {
  const std::size_t c = static_cast<std::size_t>(state.range(0));
  CostMatrix cost = make_costs(4, c, 48);
  DpOptions opt;
  opt.min_alloc = {c * 30 / 100, c * 25 / 100, c * 22 / 100, c * 15 / 100};
  DpScratch scratch;
  for (auto _ : state) {
    DpResult r = optimize_partition(cost.view(), c, opt, scratch);
    benchmark::DoNotOptimize(r.objective_value);
  }
}

void BM_DpMinimax(benchmark::State& state) {
  const std::size_t c = static_cast<std::size_t>(state.range(0));
  CostMatrix cost = make_costs(4, c, 44);
  DpOptions opt;
  opt.objective = DpObjective::kMaxCost;
  for (auto _ : state) {
    DpResult r = optimize_partition(cost.view(), c, opt);
    benchmark::DoNotOptimize(r.objective_value);
  }
}

void BM_Sttw(benchmark::State& state) {
  const std::size_t c = static_cast<std::size_t>(state.range(0));
  CostMatrix cost = make_costs(4, c, 45);
  for (auto _ : state) {
    SttwResult r = sttw_partition(cost.view(), c);
    benchmark::DoNotOptimize(r.objective_value);
  }
}

// One full non-base forward layer (the DP's O(C²) inner recurrence,
// values only) on a fixed kernel — the apples-to-apples scalar vs AVX2
// comparison the kernel speedup in BENCH_dp_speed.json is measured on.
// The prev layer is a realistic base-layer output, not a synthetic ramp.
void run_forward_layer_bench(benchmark::State& state, bool avx2) {
  if (avx2 && !dp_detail::cpu_supports_avx2()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const std::size_t c = static_cast<std::size_t>(state.range(0));
  CostMatrix cost = make_costs(2, c, 46);
  std::vector<double> prev(c + 1), next(c + 1);
  dp_detail::forward_layer_scalar(DpObjective::kSumCost, cost.row(0), 0, c,
                                  0, c, /*prev_is_base=*/true, nullptr,
                                  prev.data());
  auto* kernel = avx2 ? dp_detail::forward_layer_avx2
                      : dp_detail::forward_layer_scalar;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    cells = kernel(DpObjective::kSumCost, cost.row(1), 0, c, 0, c,
                   /*prev_is_base=*/false, prev.data(), next.data());
    benchmark::DoNotOptimize(next.data());
    benchmark::ClobberMemory();
  }
  state.counters["cells"] = static_cast<double>(cells);
}

void BM_ForwardLayerScalar(benchmark::State& state) {
  run_forward_layer_bench(state, false);
}

void BM_ForwardLayerAvx2(benchmark::State& state) {
  run_forward_layer_bench(state, true);
}

// Incremental re-solve cost as a function of where in a 16-program chain
// the profile change lands. Each iteration flips the changed program's
// row between two variants (so its fingerprint really changes), diffs,
// and re-solves: a change at position 15 rebuilds one layer, a change at
// position 1 rebuilds the whole suffix — O(suffix), not O(P).
void BM_IncrementalResolve(benchmark::State& state) {
  const std::size_t pos = static_cast<std::size_t>(state.range(0));
  const std::size_t p = 16, c = 256;
  CostMatrix cost = make_costs(p, c, 47);
  PrefixDpSolver solver;
  solver.configure(cost.view(), c, DpObjective::kSumCost);
  std::vector<std::uint32_t> members(p);
  for (std::size_t i = 0; i < p; ++i)
    members[i] = static_cast<std::uint32_t>(i);
  DpResult out;
  solver.solve(members.data(), p, nullptr, out);  // warm the layer stack

  const std::uint64_t layers0 = solver.stats().layers_computed;
  bool flip = false;
  for (auto _ : state) {
    cost.row(pos)[c / 2] = flip ? 0.123 : 0.456;
    flip = !flip;
    solver.resolve_incremental(cost.view());
    solver.solve(members.data(), p, nullptr, out);
    benchmark::DoNotOptimize(out.objective_value);
  }
  state.counters["layers_rebuilt_per_iter"] =
      static_cast<double>(solver.stats().layers_computed - layers0) /
      static_cast<double>(state.iterations());
}

// The pre-incremental baseline: a full configure() + solve per profile
// change, rebuilding every layer no matter where the change landed.
void BM_IncrementalResolveFullRebuild(benchmark::State& state) {
  const std::size_t p = 16, c = 256;
  CostMatrix cost = make_costs(p, c, 47);
  PrefixDpSolver solver;
  std::vector<std::uint32_t> members(p);
  for (std::size_t i = 0; i < p; ++i)
    members[i] = static_cast<std::uint32_t>(i);
  DpResult out;
  bool flip = false;
  for (auto _ : state) {
    cost.row(15)[c / 2] = flip ? 0.123 : 0.456;
    flip = !flip;
    solver.configure(cost.view(), c, DpObjective::kSumCost);
    solver.solve(members.data(), p, nullptr, out);
    benchmark::DoNotOptimize(out.objective_value);
  }
}

// Synthetic 16-program suite mirroring the Table I setup (C(16,4) = 1820
// four-program groups); traces are short so model building stays cheap.
std::vector<ProgramModel> make_sweep_suite(std::size_t capacity) {
  std::vector<ProgramModel> models;
  const std::size_t n = 30000;
  for (int i = 0; i < 16; ++i) {
    Trace t;
    std::string name = "p" + std::to_string(i);
    switch (i % 4) {
      case 0: t = make_zipf(n, 40 + 11 * i, 0.8 + 0.05 * i, 100 + i); break;
      case 1: t = make_cyclic(n, 24 + 9 * i); break;
      case 2: t = make_hot_cold(n, 6 + i, 60 + 13 * i, 0.8, 200 + i); break;
      default: t = make_sawtooth(n, 30 + 7 * i); break;
    }
    models.push_back(make_program_model(name, 0.5 + 0.1 * i,
                                        compute_footprint(t), capacity + 16));
  }
  return models;
}

// End-to-end sweep, prefix-shared DP layers across groups. One thread,
// whatever the runner's core count, like the one-core record in
// BENCH_dp_speed.json: losing the layer sharing then shows as a larger
// ratio to BM_DpPartition/4/1024, which tools/check_bench_regression.py
// gates.
void BM_GroupSweepBatched(benchmark::State& state) {
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  auto models = make_sweep_suite(capacity);
  auto groups = all_subsets(16, 4);
  SweepOptions opt;
  opt.capacity = capacity;
  opt.threads = 1;
  double check = 0.0;
  for (auto _ : state) {
    auto sweep = sweep_groups(models, groups, opt);
    check = 0.0;
    for (const auto& g : sweep) check += g.of(Method::kOptimal).group_mr;
    benchmark::DoNotOptimize(check);
  }
  state.counters["groups"] = static_cast<double>(groups.size());
  state.counters["checksum"] = check;
}

}  // namespace

// The paper's configuration is P=4, C=1024; the sweep shows the quadratic
// growth in C and linear growth in P.
BENCHMARK(BM_DpPartition)
    ->Args({4, 128})
    ->Args({4, 256})
    ->Args({4, 512})
    ->Args({4, 1024})
    ->Args({2, 1024})
    ->Args({8, 1024})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DpPartitionWarmScratch)
    ->Args({4, 1024})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DpWithBounds)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DpBaselineBounds)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DpMinimax)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Sttw)->Arg(1024)->Arg(131072)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ForwardLayerScalar)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ForwardLayerAvx2)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalResolve)
    ->Arg(1)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalResolveFullRebuild)
    ->Unit(benchmark::kMillisecond);
// Eight sweeps per repetition, so that one lasts 0.35-0.55 s: single
// ~50 ms sweeps vary by more than the 10 % repetition spread past which
// tools/check_bench_regression.py turns every timing failure into a
// warning.
BENCHMARK(BM_GroupSweepBatched)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(8);

// Custom main (instead of BENCHMARK_MAIN) so the observability snapshot
// is emitted like every other bench binary when OCPS_OBS is on.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  ocps::bench::emit_metrics_snapshot_if_enabled();
  return 0;
}
