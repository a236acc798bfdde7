// The DP layer loop behind every partitioning solve, and the
// prefix-memoized solver the batched group sweep runs on.
//
// Feasible windows. With per-position lower bounds lo_j, let
// L_j = Σ_{i<=j} lo_i and R_j = Σ_{i>j} lo_i. A state k of layer j (units
// given to positions 0..j) can lie on a complete allocation only if
// L_j <= k <= C − R_j, and a candidate c for position j only if the
// previous state k − c >= L_{j−1}. dp_detail::solve_layers computes
// exactly those cells, by offsetting the kernel's prev/next pointers by
// L_{j−1}: every dropped cell has prev = +inf or a state that cannot
// reach C, so the values the backtrack reads are bit-for-bit those of the
// full 0..C scan. Bounded solves cost O(P·S²) for slack S = C − Σlo;
// unbounded ones keep O(P·C²). optimize_partition calls it uncached;
// PrefixDpSolver adds prefix reuse on top.
//
// Values only. A layer stores next[k] and no argmin. The backtrack walks
// from state C of the last layer and, at each layer, re-scans the one
// state it visits with dp_detail::best_candidate over the forward pass's
// candidate range [lo_j, min(hi_j, k − L_{j−1})]. Same candidates, same
// IEEE operations, same smallest-c tie-break: the c it finds is the one
// the forward pass took its minimum from, for O(P·C) extra work per
// solve. Each re-scanned minimum must equal the stored value
// (OCPS_CHECK), so a stale cached layer fails loudly.
//
// Prefix reuse. The Table I sweep solves the same DP for every co-run
// group drawn from one program table, and a layer depends only on the
// member prefix before it — so two groups that share a prefix share those
// layers. Enumerated in lexicographic order, the C(13,4) = 715
// four-member groups of a 13-program table touch only 13 + 78 + 286 = 377
// distinct non-final layers instead of 715 × 3 = 2,145. The last layer is
// never cached or stored: the backtrack needs just its capacity state,
// so only that state is scanned (O(C) instead of O(C²/2)).
//
// PrefixDpSolver keeps the layer stack from the previous solve and reuses
// the longest prefix whose (member, lower-bound) pairs match and whose
// recorded top state reaches this solve's C − R_j (the top depends on
// the suffix bounds of the group that built the layer; unbounded solves
// always build to C). Everything is arena-allocated and reused, so
// steady-state solves do zero heap allocation, and results are
// bit-for-bit those of optimize_partition.
//
// Incremental re-solve: each cached layer remembers a fingerprint of the
// cost row it was built from. When a profile changes between controller
// epochs or serve hot reloads, resolve_incremental() invalidates only the
// layers whose prefix includes the changed program — either named
// explicitly (resolve_incremental(changed_program)) or detected by
// fingerprint diff against a replacement cost table
// (resolve_incremental(new_costs)). The next solve() then rebuilds just
// the invalidated suffix: a one-program change costs O(suffix) layers,
// not a full reconfigure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cost_matrix.hpp"
#include "core/dp_partition.hpp"

namespace ocps {

namespace dp_detail {

/// One call of the windowed layer loop: inputs, caller-owned tables, and
/// what the call did.
struct LayerLoop {
  DpObjective objective = DpObjective::kSumCost;
  CostMatrixView cost;
  const std::uint32_t* members = nullptr;  ///< position j -> cost row
                                           ///  members[j]; null: row j
  std::size_t count = 0;                   ///< positions (>= 1)
  std::size_t capacity = 0;
  const std::size_t* lo = nullptr;  ///< per-position lower bounds; null: 0
  const std::size_t* hi = nullptr;  ///< per-position upper bounds; null: C
  double* best = nullptr;      ///< count rows of capacity+1 values; row
                               ///  j = layer j (the last row is unused)
  std::size_t* top = nullptr;  ///< per layer: highest state built
  std::size_t reuse = 0;  ///< in: leading rows already holding this
                          ///  (row, lo) prefix; out: rows reused
  std::size_t built = 0;  ///< out: layers computed (0 = infeasible bounds)
  std::uint64_t cells = 0;  ///< out: (state, candidate) cells examined
};

/// Throws CheckError unless every row of `cost` covers c = 0..capacity
/// with finite values: a NaN or inf would silently corrupt the
/// min-reduction. Every solver validates its table through this.
void check_costs(CostMatrixView cost, std::size_t capacity);

/// Runs the windowed DP over loop.count positions and backtracks into
/// `out` (feasible == false when the bounds admit no allocation). Rows
/// [0, loop.reuse) are kept while top[j] reaches this solve's C − R_j;
/// the first one that does not, and every later non-final row, is
/// rebuilt and its top recorded. The final layer is scanned at state C
/// only, and the backtrack re-scans one state per earlier layer, checking
/// each minimum against the stored row. Bounds with some
/// lo_j > min(hi_j, C), or Σlo > C, exit in O(P) without touching the
/// tables. Emits dp.solves, dp.cells, dp.kernel.* and dp.solve_ns once
/// per call.
void solve_layers(LayerLoop& loop, DpResult& out);

}  // namespace dp_detail

/// Batched DP solver over groups drawn from one cost table. Not
/// thread-safe: use one per sweep thread (see parallel_for_with).
class PrefixDpSolver {
 public:
  /// Cumulative work counters (also mirrored to obs by the sweep).
  struct Stats {
    std::uint64_t solves = 0;
    std::uint64_t layers_computed = 0;  ///< forward layers actually built
    std::uint64_t layers_reused = 0;    ///< layers served from the stack
    std::uint64_t cells = 0;            ///< DP cells examined
    std::uint64_t layers_invalidated = 0;  ///< dropped by resolve_incremental
    std::uint64_t incremental_refreshes = 0;  ///< resolve_incremental calls
  };

  /// Binds the solver to a cost table (cost(i, c) for every program i in
  /// the table, c = 0..capacity) and an objective. Validates the table
  /// once (dp_detail::check_costs) so per-solve validation is free.
  /// Invalidates any cached layers.
  void configure(CostMatrixView all_costs, std::size_t capacity,
                 DpObjective objective);

  /// Solves the partitioning DP for the group `members[0..count)` (indices
  /// into the configured table) with optional per-position lower bounds
  /// `lo` (nullptr = all zero; upper bounds are the full capacity), each
  /// layer over its feasible window only. Reuses `out.alloc` storage.
  /// Infeasible bounds yield out.feasible == false.
  void solve(const std::uint32_t* members, std::size_t count,
             const std::size_t* lo, DpResult& out);

  /// Notes that `changed_program`'s cost row changed in place (the view
  /// still points at the same table): drops every cached layer whose
  /// prefix includes that program — layers before its first appearance
  /// are unaffected, so the next solve() rebuilds only the suffix.
  /// Returns the number of layers invalidated (obs counter
  /// `dp.layers_invalidated`).
  std::size_t resolve_incremental(std::uint32_t changed_program);

  /// Rebinds the solver to a replacement cost table of the same shape
  /// (rows, cols) — a serve hot reload or a controller epoch's refreshed
  /// estimates — keeping every cached layer whose cost row is
  /// bit-identical to the one it was built from (per-layer fingerprint
  /// diff; in-place mutation of the old table is safe because the
  /// fingerprint was taken at build time). Layers from the first changed
  /// row onward are invalidated. Validates the new table like
  /// configure(). Returns the number of layers invalidated. Use
  /// configure() when capacity, objective, or table shape change.
  std::size_t resolve_incremental(CostMatrixView new_costs);

  const Stats& stats() const { return stats_; }

 private:
  // One cached DP layer: the table row after including `member` with lower
  // bound `lo` at this position. Its values are row j of best_, and its
  // top state is tops_[j].
  struct Layer {
    std::uint32_t member = 0;
    std::size_t lo = 0;
    std::uint64_t fingerprint = 0;  ///< hash of the cost row at build time
  };

  // Invalidation helper shared by the resolve_incremental overloads.
  std::size_t truncate_layers(std::size_t keep);

  CostMatrixView costs_;
  std::size_t capacity_ = 0;
  DpObjective objective_ = DpObjective::kSumCost;
  std::vector<Layer> layers_;
  std::vector<std::size_t> tops_;
  std::vector<double> best_;
  std::size_t valid_layers_ = 0;  ///< prefix of layers_ that is current
  Stats stats_;
};

}  // namespace ocps
