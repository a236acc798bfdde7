#include "core/group_sweep.hpp"

#include <map>

#include "core/baselines.hpp"
#include "core/batch_engine.hpp"
#include "core/dp_partition.hpp"
#include "core/sttw.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace ocps {

const char* method_name(Method m) {
  switch (m) {
    case Method::kEqual: return "Equal";
    case Method::kNatural: return "Natural";
    case Method::kEqualBaseline: return "Equal baseline";
    case Method::kNaturalBaseline: return "Natural baseline";
    case Method::kOptimal: return "Optimal";
    case Method::kSttw: return "STTW";
  }
  return "?";
}

CostMatrix precompute_unit_cost_matrix(
    const std::vector<ProgramModel>& programs, std::size_t capacity) {
  CostMatrix cost(programs.size(), capacity);
  for (std::size_t i = 0; i < programs.size(); ++i) {
    double* row = cost.row(i);
    for (std::size_t c = 0; c <= capacity; ++c)
      row[c] = programs[i].access_rate * programs[i].mrc.ratio(c);
  }
  return cost;
}

namespace {

// Fills a MethodOutcome from an integer allocation using the solo MRCs.
MethodOutcome outcome_from_alloc(const CoRunGroup& group,
                                 const std::vector<std::size_t>& alloc) {
  MethodOutcome out;
  out.alloc.assign(alloc.begin(), alloc.end());
  out.per_program_mr.resize(group.size());
  for (std::size_t i = 0; i < group.size(); ++i)
    out.per_program_mr[i] = group[i].mrc.ratio(alloc[i]);
  out.group_mr = group_miss_ratio(group, out.per_program_mr);
  return out;
}

// Per-thread sweep state: the prefix-sharing DP solvers, the
// natural-baseline scratch, and every reusable buffer, so steady-state
// group evaluation performs no DP-table allocation. Destroyed at loop
// end; the destructor flushes the layer-sharing counters to obs.
struct BatchContext {
  const std::vector<ProgramModel>& programs;
  const CostMatrix& unit_costs;
  std::size_t capacity;

  PrefixDpSolver optimal;
  PrefixDpSolver equal_baseline;
  DpScratch nb_scratch;
  DpResult dp_buf;
  std::vector<const double*> row_ptrs;
  std::vector<std::size_t> lo_buf;
  // Equal-baseline lower bounds depend only on (program, position) for a
  // given group size, so the whole table is computed once per size seen.
  // Keyed by group size; value is a flat programs × size table.
  std::map<std::size_t, std::vector<std::size_t>> equal_lo;

  BatchContext(const std::vector<ProgramModel>& programs_,
               const CostMatrix& unit_costs_, std::size_t capacity_)
      : programs(programs_), unit_costs(unit_costs_), capacity(capacity_) {
    optimal.configure(unit_costs.view(), capacity, DpObjective::kSumCost);
    equal_baseline.configure(unit_costs.view(), capacity,
                             DpObjective::kSumCost);
  }

  ~BatchContext() {
    std::uint64_t computed = optimal.stats().layers_computed +
                             equal_baseline.stats().layers_computed;
    std::uint64_t reused =
        optimal.stats().layers_reused + equal_baseline.stats().layers_reused;
    if (computed > 0) OCPS_OBS_COUNT("sweep.dp_layers_computed", computed);
    if (reused > 0) OCPS_OBS_COUNT("sweep.dp_layers_reused", reused);
  }

  // Lower bounds implied by the equal-partition baseline, position by
  // position: the equal share of position j depends only on the group
  // size, so the bound is a pure (program, position) function —
  // shareable across every group of that size, unlike the natural
  // baseline whose shares depend on the whole group.
  const std::vector<std::size_t>& equal_lo_table(std::size_t group_size) {
    auto it = equal_lo.find(group_size);
    if (it != equal_lo.end()) return it->second;
    auto shares = equal_partition(group_size, capacity);
    std::vector<std::size_t> table(programs.size() * group_size);
    for (std::size_t m = 0; m < programs.size(); ++m)
      for (std::size_t j = 0; j < group_size; ++j)
        table[m * group_size + j] = baseline_min_alloc(
            programs[m].mrc, static_cast<double>(shares[j]));
    return equal_lo.emplace(group_size, std::move(table)).first->second;
  }
};

// The six-method evaluation of one group. Optimal and Equal-baseline go
// through the prefix-sharing solvers, and every view is gathered from the
// flat table instead of copied.
GroupEvaluation evaluate(BatchContext& ctx,
                         const std::vector<std::uint32_t>& members) {
  OCPS_CHECK(!members.empty(), "empty group");
  obs::ScopedSpan span("sweep.evaluate_group", "core");
  span.set_arg("members", members.size());
  const std::size_t capacity = ctx.capacity;
  const std::size_t p = members.size();

  std::vector<const ProgramModel*> models;
  models.reserve(p);
  for (std::uint32_t idx : members) {
    OCPS_CHECK(idx < ctx.programs.size(),
               "program index out of range: " << idx);
    models.push_back(&ctx.programs[idx]);
  }
  CoRunGroup group(std::move(models));
  CostMatrixView cost =
      ctx.unit_costs.gather(members.data(), p, ctx.row_ptrs);

  GroupEvaluation eval;
  eval.members = members;

  // Equal.
  auto equal = equal_partition(group.size(), capacity);
  eval.methods[static_cast<std::size_t>(Method::kEqual)] =
      outcome_from_alloc(group, equal);

  // Natural (free-for-all sharing): fractional occupancies.
  {
    MethodOutcome out;
    out.alloc = natural_partition(group, static_cast<double>(capacity));
    out.per_program_mr =
        predict_shared_miss_ratios(group, static_cast<double>(capacity));
    out.group_mr = group_miss_ratio(group, out.per_program_mr);
    eval.methods[static_cast<std::size_t>(Method::kNatural)] = std::move(out);
  }

  // Equal baseline: lower bounds from the per-(program, position) table,
  // prefix-shared DP.
  {
    const auto& lo_table = ctx.equal_lo_table(p);
    ctx.lo_buf.resize(p);
    for (std::size_t j = 0; j < p; ++j)
      ctx.lo_buf[j] = lo_table[members[j] * p + j];
    ctx.equal_baseline.solve(members.data(), p, ctx.lo_buf.data(),
                             ctx.dp_buf);
    OCPS_CHECK(ctx.dp_buf.feasible,
               "baseline-constrained DP infeasible; baseline sums beyond C?");
    eval.methods[static_cast<std::size_t>(Method::kEqualBaseline)] =
        outcome_from_alloc(group, ctx.dp_buf.alloc);
  }

  // Natural baseline: bounds depend on the whole group, so no prefix
  // sharing — but the DP table comes from the per-thread scratch.
  {
    DpResult dp =
        optimize_natural_baseline(group, cost, capacity, &ctx.nb_scratch);
    eval.methods[static_cast<std::size_t>(Method::kNaturalBaseline)] =
        outcome_from_alloc(group, dp.alloc);
  }

  // Optimal (unconstrained DP), prefix-shared.
  {
    ctx.optimal.solve(members.data(), p, nullptr, ctx.dp_buf);
    OCPS_CHECK(ctx.dp_buf.feasible, "unconstrained DP must be feasible");
    eval.methods[static_cast<std::size_t>(Method::kOptimal)] =
        outcome_from_alloc(group, ctx.dp_buf.alloc);
  }

  // STTW.
  {
    SttwResult sttw = sttw_partition(cost, capacity);
    eval.methods[static_cast<std::size_t>(Method::kSttw)] =
        outcome_from_alloc(group, sttw.alloc);
  }

  OCPS_OBS_COUNT("sweep.groups_evaluated", 1);
  OCPS_OBS_HIST("sweep.group_eval_ns", span.elapsed_ns());
  return eval;
}

}  // namespace

std::vector<GroupEvaluation> sweep_groups(
    const std::vector<ProgramModel>& programs,
    const std::vector<std::vector<std::uint32_t>>& groups,
    const SweepOptions& options) {
  obs::ScopedSpan span("sweep.sweep_groups", "core");
  span.set_arg("groups", groups.size());
  CostMatrix unit_costs =
      precompute_unit_cost_matrix(programs, options.capacity);
  const bool has_deadline =
      options.deadline != std::chrono::steady_clock::time_point::max();
  std::vector<GroupEvaluation> out(groups.size());
  parallel_for_with(
      0, groups.size(),
      [&] { return BatchContext(programs, unit_costs, options.capacity); },
      [&](BatchContext& ctx, std::size_t g) {
        if (has_deadline &&
            std::chrono::steady_clock::now() > options.deadline) {
          OCPS_OBS_COUNT("sweep.deadline_exceeded", 1);
          throw SweepDeadlineExceeded("sweep deadline exceeded with group " +
                                      std::to_string(g) + " of " +
                                      std::to_string(groups.size()) +
                                      " pending");
        }
        out[g] = evaluate(ctx, groups[g]);
      },
      options.threads);
  return out;
}

ImprovementStats improvement_over(const std::vector<GroupEvaluation>& sweep,
                                  Method baseline) {
  std::vector<double> improvements;
  improvements.reserve(sweep.size());
  for (const auto& g : sweep) {
    double opt = g.of(Method::kOptimal).group_mr;
    double base = g.of(baseline).group_mr;
    // Degenerate all-hit groups contribute zero improvement.
    double imp = (opt > 0.0) ? (base - opt) / opt : 0.0;
    improvements.push_back(imp);
  }
  Summary s = summarize(improvements);
  ImprovementStats stats;
  stats.max = s.max;
  stats.avg = s.mean;
  stats.median = s.median;
  stats.frac_ge_10 = fraction_at_least(improvements, 0.10);
  stats.frac_ge_20 = fraction_at_least(improvements, 0.20);
  return stats;
}

}  // namespace ocps
