// The forward-layer min-plus kernel behind the partitioning DP, with
// runtime SIMD dispatch.
//
// Every DP in the repo — optimize_partition, the prefix-memoized
// PrefixDpSolver, and everything layered on them — funnels through one
// inner recurrence:
//
//   next[k] = min over c in [lo, min(hi, k)] of
//             combine(prev[k - c], cost_row[c])
//
// a min-plus (or min-max) scan over contiguous CostMatrix rows. A layer
// computes values only: the backtrack recovers each allocation by
// re-scanning the one state it visits with best_candidate(), which
// returns the minimum and its smallest argmin c. Two implementations of
// each routine exist:
//
//   * scalar — one candidate scan per state (best_candidate's scalar
//     body); the pinned reference every other kernel must match exactly.
//   * avx2   — the layer in blocks of 16 states held in four 256-bit
//     min accumulators, with masked tail blocks; best_candidate
//     vectorized along c. Compiled in its own -mavx2 translation unit
//     and only ever called after a CPUID check.
//
// Both kernels evaluate the same candidates with the same IEEE
// operations and keep the first minimum in ascending c, so their values,
// argmins and cell counts are bit-for-bit identical — enforced by
// tests/test_dp_kernel.cpp and the CI dispatch-parity leg, not assumed.
//
// Dispatch resolves once per process from the OCPS_SIMD environment
// variable (`scalar`, `avx2`, or `auto`; unset = auto = best supported)
// and CPUID. `OCPS_SIMD=avx2` on a machine without AVX2 warns once on
// stderr and falls back to scalar rather than faulting. Tests can force
// a kernel in-process via set_kernel_for_testing().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace ocps {

/// Objective combined across programs (mirrored in dp_partition.hpp's
/// include of this header; defined here so the kernel TUs need nothing
/// above them).
enum class DpObjective {
  kSumCost,  ///< minimize Σ cost_i(c_i)
  kMaxCost,  ///< minimize max_i cost_i(c_i)
};

namespace dp_detail {

/// The objective's combine step, the one IEEE operation every kernel
/// applies per candidate: prev + cost, or std::max(prev, cost).
inline double combine(DpObjective objective, double prev, double cost) {
  return objective == DpObjective::kSumCost ? prev + cost
                                            : std::max(prev, cost);
}

/// Which forward-layer implementation a solve runs on.
enum class KernelKind {
  kScalar,  ///< portable reference loop (the pinned fallback)
  kAvx2,    ///< AVX2, 16 DP states per block with masked tails
};

/// Short stable name ("scalar" / "avx2") for logs, obs, and benches.
const char* kernel_name(KernelKind kind);

/// True when the running CPU reports AVX2 (always false off x86-64).
bool cpu_supports_avx2();

/// The kernel forward_layer() and best_candidate() dispatch to: resolved
/// once from OCPS_SIMD + CPUID, cached for the process, overridable for
/// tests.
KernelKind active_kernel();

/// Forces the dispatch for this process (tests and benches only; not a
/// production knob — production uses OCPS_SIMD). A forced kAvx2 on a
/// CPU without AVX2 is ignored and scalar stays active.
void set_kernel_for_testing(KernelKind kind);

/// Clears a set_kernel_for_testing() override; the next dispatch
/// re-resolves from OCPS_SIMD + CPUID.
void reset_kernel_for_testing();

/// Computes next[k] for k in [k_begin, k_end] (inclusive) from the
/// previous layer: next[k] = min over c in [lo, min(hi, k)] of
/// combine(prev[k-c], cost_row[c]), +inf when no candidate is finite.
/// Entries outside [k_begin, k_end] are left untouched (callers pre-fill
/// with +inf where later layers will read them). When prev_is_base the
/// previous layer is the DP base (prev[0] = 0, +inf elsewhere) and the
/// layer collapses to the closed form next[k] = combine(0, cost_row[k])
/// for k in [lo, hi] — same arithmetic, O(C) instead of O(C²).
/// Returns the number of (k, c) cells examined (for obs).
///
/// Dispatches to active_kernel(); every kernel returns bit-identical
/// values and cell counts.
std::uint64_t forward_layer(DpObjective objective, const double* cost_row,
                            std::size_t lo, std::size_t hi,
                            std::size_t k_begin, std::size_t k_end,
                            bool prev_is_base, const double* prev,
                            double* next);

/// The pinned portable reference kernel: best_candidate_scalar() for
/// each state. Callable directly by parity tests.
std::uint64_t forward_layer_scalar(DpObjective objective,
                                   const double* cost_row, std::size_t lo,
                                   std::size_t hi, std::size_t k_begin,
                                   std::size_t k_end, bool prev_is_base,
                                   const double* prev, double* next);

/// The AVX2 kernel. Must only be called when cpu_supports_avx2() is
/// true (the dispatcher guarantees this); on builds without AVX2
/// codegen support it compiles to a scalar passthrough.
std::uint64_t forward_layer_avx2(DpObjective objective,
                                 const double* cost_row, std::size_t lo,
                                 std::size_t hi, std::size_t k_begin,
                                 std::size_t k_end, bool prev_is_base,
                                 const double* prev, double* next);

/// A state's minimum over its candidates and the smallest c attaining
/// it. {+inf, 0} when no candidate is finite.
struct Argmin {
  double value;
  std::size_t c;
};

/// One state of a non-base layer: the minimum over c in [lo, c_max] of
/// combine(prev[k-c], cost_row[c]) and its smallest argmin — the same
/// candidates, order and IEEE operations as forward_layer, so `value`
/// is bitwise the next[k] of a layer whose bound min(hi, k) is c_max.
/// Requires c_max <= k; an empty range (c_max < lo) yields {+inf, 0}.
/// Dispatches to active_kernel().
Argmin best_candidate(DpObjective objective, const double* cost_row,
                      std::size_t lo, std::size_t c_max, std::size_t k,
                      const double* prev);

/// best_candidate on the scalar reference scan.
Argmin best_candidate_scalar(DpObjective objective, const double* cost_row,
                             std::size_t lo, std::size_t c_max,
                             std::size_t k, const double* prev);

/// best_candidate vectorized along c (same precondition as
/// forward_layer_avx2).
Argmin best_candidate_avx2(DpObjective objective, const double* cost_row,
                           std::size_t lo, std::size_t c_max,
                           std::size_t k, const double* prev);

}  // namespace dp_detail

}  // namespace ocps
