#include "core/batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// FNV-1a 64 over the 64-bit words of a cost row: a bit-identity check,
// not a numeric one — any representational change (including -0.0 vs
// 0.0) counts as a profile change, and since each step is a bijection of
// the running hash, any single-word edit changes the result. One
// multiply per double, O(C) per row vs the layer rebuild it saves.
std::uint64_t row_fingerprint(const double* row, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &row[i], sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

// Emits one solve's DP accounting on every exit path: the solve and cell
// counters, which kernel ran, and the solve's latency. Inert (one branch)
// when observability is off.
struct SolveRecorder {
  const dp_detail::LayerLoop& loop;
  const bool active = obs::enabled();
  const std::uint64_t start_ns = active ? obs::now_ns() : 0;

  ~SolveRecorder() {
    if (!active) return;
    OCPS_OBS_COUNT("dp.solves", 1);
    OCPS_OBS_COUNT("dp.cells", loop.cells);
    if (dp_detail::active_kernel() == dp_detail::KernelKind::kAvx2)
      OCPS_OBS_COUNT("dp.kernel.avx2", 1);
    else
      OCPS_OBS_COUNT("dp.kernel.scalar", 1);
    OCPS_OBS_HIST("dp.solve_ns", obs::now_ns() - start_ns);
  }
};

}  // namespace

void dp_detail::check_costs(CostMatrixView cost, std::size_t capacity) {
  OCPS_CHECK(cost.cols() >= capacity + 1,
             "cost curves shorter than capacity+1");
  for (std::size_t i = 0; i < cost.rows(); ++i) {
    const double* row = cost.row(i);
    for (std::size_t c = 0; c <= capacity; ++c)
      OCPS_CHECK(std::isfinite(row[c]),
                 "non-finite cost at program " << i << ", c=" << c);
  }
}

void dp_detail::solve_layers(LayerLoop& loop, DpResult& out) {
  SolveRecorder recorder{loop};
  const std::size_t p = loop.count, cap = loop.capacity, stride = cap + 1;
  auto lo_of = [&](std::size_t j) { return loop.lo ? loop.lo[j] : 0; };
  auto hi_of = [&](std::size_t j) {
    return loop.hi ? std::min(loop.hi[j], cap) : cap;
  };
  auto row_of = [&](std::size_t j) {
    return loop.cost.row(loop.members ? loop.members[j] : j);
  };
  out.feasible = false;
  out.objective_value = 0.0;
  out.alloc.clear();  // keeps capacity; refilled on success
  loop.built = 0;
  loop.cells = 0;

  std::size_t lo_sum = 0;
  for (std::size_t j = 0; j < p; ++j) {
    if (lo_of(j) > hi_of(j)) return;
    lo_sum += lo_of(j);
  }
  if (lo_sum > cap) return;

  // below = L_{j−1}: the kernel sees layer j through pointers offset by
  // it, so its state range [lo_j, C − R_j − L_{j−1}] and candidate bound
  // c <= k are the feasible window in absolute terms. Every layer but
  // the last is built here; the last one is needed only at state C.
  std::size_t below = 0;
  for (std::size_t j = 0; j + 1 < p; ++j) {
    const std::size_t lo = lo_of(j);
    const std::size_t top = cap - (lo_sum - below - lo);  // C − R_j
    if (j < loop.reuse && loop.top[j] >= top) {
      below += lo;
      continue;
    }
    loop.reuse = std::min(loop.reuse, j);
    double* next = loop.best + j * stride + below;
    const std::size_t k_end = top - below;
    // The base layer writes only states up to hi; the rest stay +inf.
    if (j == 0) std::fill(next + lo, next + k_end + 1, kInf);
    loop.cells += forward_layer(loop.objective, row_of(j), lo, hi_of(j), lo,
                                k_end, /*prev_is_base=*/j == 0,
                                j == 0 ? nullptr
                                       : loop.best + (j - 1) * stride + below,
                                next);
    if (loop.top) loop.top[j] = top;
    ++loop.built;
    below += lo;
  }

  // Layer j's minimum at absolute state k and its smallest argmin c,
  // over the forward pass's candidate range [lo_j, min(hi_j, k − L_{j−1})]
  // with the same IEEE operations: the value the forward pass computed
  // there, and the c it took it from. `offset` is L_{j−1}. Layer 0 has
  // the one candidate c = k.
  auto argmin_at = [&](std::size_t j, std::size_t k, std::size_t offset) {
    const double* row = row_of(j);
    const std::size_t lo = lo_of(j), c_max = std::min(hi_of(j), k - offset);
    if (j > 0)
      return best_candidate(loop.objective, row, lo, c_max, k - offset,
                            loop.best + (j - 1) * stride + offset);
    if (k < lo || c_max < k) return Argmin{kInf, 0};
    return Argmin{combine(loop.objective, 0.0, row[k]), k};
  };

  // The final layer is needed only at state C: one scan, counted as the
  // forward cells it examines (a base layer has the one candidate c = C).
  Argmin at = argmin_at(p - 1, cap, below);
  if (p == 1) {
    loop.cells += at.value != kInf;
  } else {
    const std::size_t lo = lo_of(p - 1);
    const std::size_t c_max = std::min(hi_of(p - 1), cap - below);
    if (c_max >= lo) loop.cells += c_max - lo + 1;
  }
  ++loop.built;
  if (at.value == kInf) return;
  out.feasible = true;
  out.objective_value = at.value;
  out.alloc.assign(p, 0);

  // Backtrack: re-scan the one state each earlier layer is visited at,
  // O(C) per layer.
  std::size_t k = cap;
  for (std::size_t j = p - 1;; --j) {
    out.alloc[j] = at.c;
    k -= at.c;
    if (j == 0) break;
    below -= lo_of(j - 1);
    at = argmin_at(j - 1, k, below);
    OCPS_CHECK(at.value == loop.best[(j - 1) * stride + k],
               "backtrack re-scan disagrees with stored layer " << j - 1);
  }
  OCPS_CHECK(k == 0, "allocation does not sum to capacity");
}

void PrefixDpSolver::configure(CostMatrixView all_costs, std::size_t capacity,
                               DpObjective objective) {
  dp_detail::check_costs(all_costs, capacity);
  costs_ = all_costs;
  capacity_ = capacity;
  objective_ = objective;
  valid_layers_ = 0;
}

void PrefixDpSolver::solve(const std::uint32_t* members, std::size_t count,
                           const std::size_t* lo, DpResult& out) {
  OCPS_CHECK(count >= 1, "need at least one program");
  for (std::size_t j = 0; j < count; ++j)
    OCPS_CHECK(members[j] < costs_.rows(),
               "program index out of range: " << members[j]);
  ++stats_.solves;
  const std::size_t stride = capacity_ + 1;
  if (layers_.size() < count) {
    layers_.resize(count);
    tops_.resize(count);
  }
  if (best_.size() < count * stride) best_.resize(count * stride);

  // Longest cached prefix whose (member, lo) pairs match this group. Only
  // non-final layers (positions 0..count-2) are ever cached; solve_layers
  // also checks that each one's top reaches this group's window.
  std::size_t reuse = 0;
  while (reuse < valid_layers_ && reuse + 1 < count &&
         layers_[reuse].member == members[reuse] &&
         layers_[reuse].lo == (lo ? lo[reuse] : 0)) {
    ++reuse;
  }
  valid_layers_ = reuse;

  dp_detail::LayerLoop loop;
  loop.objective = objective_;
  loop.cost = costs_;
  loop.members = members;
  loop.count = count;
  loop.capacity = capacity_;
  loop.lo = lo;
  loop.best = best_.data();
  loop.top = tops_.data();
  loop.reuse = reuse;
  dp_detail::solve_layers(loop, out);
  stats_.cells += loop.cells;
  if (loop.built == 0) return;  // infeasible bounds: nothing was built

  stats_.layers_reused += loop.reuse;
  stats_.layers_computed += loop.built;
  for (std::size_t j = loop.reuse; j + 1 < count; ++j) {
    layers_[j].member = members[j];
    layers_[j].lo = lo ? lo[j] : 0;
    layers_[j].fingerprint = row_fingerprint(costs_.row(members[j]), stride);
  }
  valid_layers_ = count - 1;
}

std::size_t PrefixDpSolver::truncate_layers(std::size_t keep) {
  const std::size_t invalidated = valid_layers_ - keep;
  valid_layers_ = keep;
  stats_.layers_invalidated += invalidated;
  ++stats_.incremental_refreshes;
  if (invalidated > 0) OCPS_OBS_COUNT("dp.layers_invalidated", invalidated);
  return invalidated;
}

std::size_t PrefixDpSolver::resolve_incremental(
    std::uint32_t changed_program) {
  std::size_t keep = 0;
  while (keep < valid_layers_ && layers_[keep].member != changed_program)
    ++keep;
  return truncate_layers(keep);
}

std::size_t PrefixDpSolver::resolve_incremental(CostMatrixView new_costs) {
  OCPS_CHECK(new_costs.rows() == costs_.rows() &&
                 new_costs.cols() == costs_.cols(),
             "resolve_incremental: table shape changed ("
                 << new_costs.rows() << "x" << new_costs.cols() << " vs "
                 << costs_.rows() << "x" << costs_.cols()
                 << "); use configure()");
  dp_detail::check_costs(new_costs, capacity_);
  costs_ = new_costs;
  std::size_t keep = 0;
  while (keep < valid_layers_ &&
         layers_[keep].fingerprint ==
             row_fingerprint(new_costs.row(layers_[keep].member),
                             capacity_ + 1))
    ++keep;
  return truncate_layers(keep);
}

}  // namespace ocps
