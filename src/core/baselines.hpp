// Baseline-constrained ("fair") optimization (§VI).
//
// Baseline optimization minimizes the group miss ratio subject to: no
// member program may end up with a higher miss ratio than it has under a
// baseline partition. Two baselines are studied:
//   * Equal   — every program gets C/P units (Xie & Loh's "socialist"),
//   * Natural — the free-for-all sharing occupancies (the "capitalist").
//
// Because LRU miss ratios are non-increasing in cache size (inclusion
// property), "no worse than baseline" is equivalent to a per-program
// minimum allocation — the smallest size whose miss ratio is at or below
// the baseline's. The constrained problem is then the same DP with lower
// bounds, and it is always feasible: each program's bound is at most its
// baseline share, and the baseline shares sum to C.
#pragma once

#include <vector>

#include "core/composition.hpp"
#include "core/dp_partition.hpp"

namespace ocps {

/// Equal partition of `capacity` units among `programs` programs (units
/// are integers; the first `capacity % programs` programs get the extra
/// unit, matching a 2MB-per-program split when divisible).
std::vector<std::size_t> equal_partition(std::size_t programs,
                                         std::size_t capacity);

/// The minimum allocation one program's baseline share implies: the
/// smallest integer c with mr(c) <= mr(baseline), capped at
/// ceil(baseline). Fractional baselines (natural occupancies) are
/// supported.
std::size_t baseline_min_alloc(const MissRatioCurve& mrc, double baseline);

/// baseline_min_alloc for every member of a group.
std::vector<std::size_t> baseline_min_allocs(
    const CoRunGroup& group, const std::vector<double>& baseline_alloc);

/// Equal-baseline optimization: group-optimal subject to no program being
/// worse than under the equal partition. Pass a DpScratch to reuse the DP
/// table across calls (see dp_partition.hpp).
DpResult optimize_equal_baseline(const CoRunGroup& group, CostMatrixView cost,
                                 std::size_t capacity,
                                 DpScratch* scratch = nullptr);

/// Natural-baseline optimization: group-optimal subject to no program being
/// worse than under free-for-all sharing (the natural partition).
DpResult optimize_natural_baseline(const CoRunGroup& group,
                                   CostMatrixView cost, std::size_t capacity,
                                   DpScratch* scratch = nullptr);

}  // namespace ocps
