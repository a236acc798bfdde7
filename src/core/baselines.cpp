#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace ocps {

std::vector<std::size_t> equal_partition(std::size_t programs,
                                         std::size_t capacity) {
  OCPS_CHECK(programs >= 1, "need at least one program");
  std::vector<std::size_t> alloc(programs, capacity / programs);
  for (std::size_t i = 0; i < capacity % programs; ++i) ++alloc[i];
  return alloc;
}

std::size_t baseline_min_alloc(const MissRatioCurve& mrc, double baseline) {
  // Smallest integer size at least as good as the (possibly fractional)
  // baseline. LRU inclusion (monotone MRC) makes this a threshold query;
  // the tolerance absorbs interpolation noise at fractional baselines.
  const std::size_t min_alloc =
      mrc.min_size_for_ratio(mrc.ratio_at(baseline), 1e-12);
  // A fractional baseline between c and c+1 may have a (slightly) lower
  // ratio than floor(c); never demand more than the ceiling of the
  // baseline itself, or feasibility (Σ min <= C) could break.
  return std::min(min_alloc,
                  static_cast<std::size_t>(std::ceil(baseline - 1e-9)));
}

std::vector<std::size_t> baseline_min_allocs(
    const CoRunGroup& group, const std::vector<double>& baseline_alloc) {
  OCPS_CHECK(baseline_alloc.size() == group.size(),
             "baseline must cover every member");
  std::vector<std::size_t> min_alloc(group.size());
  for (std::size_t i = 0; i < group.size(); ++i)
    min_alloc[i] = baseline_min_alloc(group[i].mrc, baseline_alloc[i]);
  return min_alloc;
}

namespace {

DpResult solve(CostMatrixView cost, std::size_t capacity,
               const DpOptions& options, DpScratch* scratch) {
  return scratch ? optimize_partition(cost, capacity, options, *scratch)
                 : optimize_partition(cost, capacity, options);
}

DpResult optimize_with_baseline(const CoRunGroup& group, CostMatrixView cost,
                                std::size_t capacity,
                                const std::vector<double>& baseline_alloc,
                                DpScratch* scratch) {
  DpOptions options;
  options.objective = DpObjective::kSumCost;
  options.min_alloc = baseline_min_allocs(group, baseline_alloc);
  DpResult result = solve(cost, capacity, options, scratch);
  OCPS_CHECK(result.feasible,
             "baseline-constrained DP infeasible; baseline sums beyond C?");
  return result;
}

}  // namespace

DpResult optimize_equal_baseline(const CoRunGroup& group, CostMatrixView cost,
                                 std::size_t capacity, DpScratch* scratch) {
  auto equal = equal_partition(group.size(), capacity);
  std::vector<double> baseline(equal.begin(), equal.end());
  return optimize_with_baseline(group, cost, capacity, baseline, scratch);
}

DpResult optimize_natural_baseline(const CoRunGroup& group,
                                   CostMatrixView cost, std::size_t capacity,
                                   DpScratch* scratch) {
  auto natural = natural_partition(group, static_cast<double>(capacity));
  // Constrain against the *fractional* shared-cache performance (the
  // paper's "no worse than free-for-all sharing"). The bounds can round up
  // across cliffs, so in rare cases they sum past C; fall back to the
  // integerized natural partition as the baseline then — a realizable
  // partition whose bounds are feasible by construction.
  DpOptions options;
  options.objective = DpObjective::kSumCost;
  options.min_alloc = baseline_min_allocs(group, natural);
  DpResult result = solve(cost, capacity, options, scratch);
  if (result.feasible) return result;
  auto integral = integerize_partition(natural, capacity);
  std::vector<double> baseline(integral.begin(), integral.end());
  return optimize_with_baseline(group, cost, capacity, baseline, scratch);
}

}  // namespace ocps
