// Optimal cache partitioning by dynamic programming (§V-B, Eq. 15-16).
//
// Given per-program cost curves cost_i(c) over integer allocations
// c = 0..C, find the allocation (c_1..c_P) with Σ c_i = C minimizing the
// objective. Unlike STTW, no convexity is assumed: the DP examines the
// entire solution space in O(P·C²) time and O(P·C) space. The table holds
// values only; the backtrack re-scans the one state it visits per layer
// (O(P·C)) to recover the argmin each minimum came from
// (core/batch_engine.hpp). With lower bounds it scans only each layer's
// feasible window, so a bounded solve costs O(P·S²) for slack
// S = C − Σ min_alloc.
//
// Two objectives are built in, both associative-monotone so the same table
// recurrence applies:
//   * kSumCost     — Σ_i cost_i(c_i)      (throughput: total miss count)
//   * kMaxCost     — max_i cost_i(c_i)    (QoS: worst member)
//
// Per-program allocation bounds [min_alloc_i, max_alloc_i] express the
// baseline-fairness constraints of §VI (see baselines.hpp) and any QoS
// floor a caller wants.
//
// Cost curves are passed as a CostMatrixView (core/cost_matrix.hpp);
// build one with CostMatrix::from_rows when starting from nested
// vectors. Repeated solvers (the
// group sweep, the online controller) pass a DpScratch so the DP table
// never reallocates between solves; core/batch_engine.hpp additionally
// shares DP layers between solves whose program prefixes match.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cost_matrix.hpp"
#include "core/dp_kernel.hpp"
#include "locality/mrc.hpp"

namespace ocps {

/// Optimizer knobs. Empty bound vectors mean 0 / C for every program.
struct DpOptions {
  DpObjective objective = DpObjective::kSumCost;
  std::vector<std::size_t> min_alloc;  ///< per-program lower bounds
  std::vector<std::size_t> max_alloc;  ///< per-program upper bounds
};

/// Result of an optimization.
struct DpResult {
  bool feasible = false;
  std::vector<std::size_t> alloc;  ///< c_i per program, Σ = capacity
  double objective_value = 0.0;
};

/// Reusable solver arena: the DP value table, grown on demand and never
/// shrunk, so back-to-back solves of the same shape do zero heap
/// allocation in the hot loop. grow_events counts reallocation episodes
/// (mirrored in obs counter `dp.scratch_grow`): in a steady-state sweep
/// it stops increasing after the first solve per thread.
struct DpScratch {
  std::vector<double> best;  ///< flat programs × (capacity+1) values
  std::uint64_t grow_events = 0;

  /// Ensures capacity for a (programs, capacity) solve.
  void reserve(std::size_t programs, std::size_t capacity);
};

/// Runs the DP. cost must have rows >= 1 and cols >= capacity+1;
/// cost(i, c) is the cost of giving program i exactly c units. Throws
/// CheckError on malformed input; returns feasible == false when the
/// bounds admit no allocation.
DpResult optimize_partition(CostMatrixView cost, std::size_t capacity,
                            const DpOptions& options = {});

/// Same, with caller-owned scratch (no table allocation once warm).
DpResult optimize_partition(CostMatrixView cost, std::size_t capacity,
                            const DpOptions& options, DpScratch& scratch);

/// Exhaustive reference optimizer (enumerates every composition); used as
/// the test oracle for the DP. Exponential — small instances only.
DpResult optimize_partition_exhaustive(CostMatrixView cost,
                                       std::size_t capacity,
                                       const DpOptions& options = {});

// The windowed layer loop shared by optimize_partition and the
// prefix-memoized PrefixDpSolver is dp_detail::solve_layers
// (core/batch_engine.hpp); its forward-layer kernel and the one-state
// best_candidate scan live in core/dp_kernel.hpp (included above), which
// dispatches between the pinned scalar reference and the AVX2 kernel at
// runtime, and every kernel produces bit-identical values and argmins.

}  // namespace ocps
