#include "core/dp_partition.hpp"

#include <algorithm>
#include <limits>

#include "combinatorics/enumerate.hpp"
#include "core/batch_engine.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void validate(CostMatrixView cost, std::size_t capacity,
              const DpOptions& options) {
  const std::size_t p = cost.rows();
  OCPS_CHECK(p >= 1, "need at least one program");
  dp_detail::check_costs(cost, capacity);
  // Infeasible bounds (lo > hi, or Σlo > capacity) are reported by the
  // optimizers via feasible == false rather than rejected here.
  OCPS_CHECK(options.min_alloc.empty() || options.min_alloc.size() == p,
             "min_alloc size mismatch");
  OCPS_CHECK(options.max_alloc.empty() || options.max_alloc.size() == p,
             "max_alloc size mismatch");
}

}  // namespace

void DpScratch::reserve(std::size_t programs, std::size_t capacity) {
  const std::size_t cells = programs * (capacity + 1);
  if (best.size() >= cells) return;
  ++grow_events;
  OCPS_OBS_COUNT("dp.scratch_grow", 1);
  best.resize(cells);
}

DpResult optimize_partition(CostMatrixView cost, std::size_t capacity,
                            const DpOptions& options, DpScratch& scratch) {
  validate(cost, capacity, options);
  scratch.reserve(cost.rows(), capacity);
  dp_detail::LayerLoop loop;
  loop.objective = options.objective;
  loop.cost = cost;
  loop.count = cost.rows();
  loop.capacity = capacity;
  if (!options.min_alloc.empty()) loop.lo = options.min_alloc.data();
  if (!options.max_alloc.empty()) loop.hi = options.max_alloc.data();
  loop.best = scratch.best.data();
  DpResult result;
  dp_detail::solve_layers(loop, result);
  return result;
}

DpResult optimize_partition(CostMatrixView cost, std::size_t capacity,
                            const DpOptions& options) {
  DpScratch scratch;
  return optimize_partition(cost, capacity, options, scratch);
}

DpResult optimize_partition_exhaustive(CostMatrixView cost,
                                       std::size_t capacity,
                                       const DpOptions& options) {
  validate(cost, capacity, options);
  const std::size_t p = cost.rows();
  DpResult best;
  best.objective_value = kInf;
  for_each_composition(
      static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(capacity), 0,
      [&](const std::vector<std::uint32_t>& alloc) {
        double value = (options.objective == DpObjective::kSumCost) ? 0.0
                                                                    : -kInf;
        bool ok = true;
        for (std::size_t i = 0; i < p; ++i) {
          std::size_t c = alloc[i];
          if ((!options.min_alloc.empty() && c < options.min_alloc[i]) ||
              (!options.max_alloc.empty() && c > options.max_alloc[i])) {
            ok = false;
            break;
          }
          value = (options.objective == DpObjective::kSumCost)
                      ? value + cost(i, c)
                      : std::max(value, cost(i, c));
        }
        if (ok && value < best.objective_value) {
          best.feasible = true;
          best.objective_value = value;
          best.alloc.assign(alloc.begin(), alloc.end());
        }
        return true;
      });
  if (!best.feasible) best.objective_value = 0.0;
  return best;
}

}  // namespace ocps
