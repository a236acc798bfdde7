// AVX2 forward-layer kernel. This translation unit is compiled with
// -mavx2 (see src/core/CMakeLists.txt) and must contain nothing that
// runs before the dispatcher's CPUID check; when the toolchain cannot
// target AVX2 at all, it degrades to a scalar passthrough.
//
// Bit-for-bit contract with the scalar kernel (the pinned reference):
// every DP state k examines the same candidates c, each candidate value
// is computed with the same IEEE operation (one add for kSumCost; for
// kMaxCost, _mm256_max_pd(cost, prev) which returns its second operand
// on ties exactly like std::max(prev, cost)), and the running minimum
// keeps the earlier candidate on ties. The layer folds candidates in
// ascending c with _mm256_min_pd(candidate, best), which returns `best`
// unless candidate < best — the scalar strict-less update, so a live
// minimum never changes sign or payload. A candidate fed by prev = +inf
// is +inf and never replaces anything, which is the scalar skip.
// best_candidate finds the minimum first and then the smallest c whose
// candidate equals it, which is the scalar first-minimum scan's c. The
// only differences are memory access shape (16 states per block, masked
// tail blocks) and the order in which the minimum is reduced.
#include "core/dp_kernel.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <limits>

namespace ocps::dp_detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// States per block of the general layer: four 4-wide accumulators.
constexpr std::size_t kBlock = 16;

// Maskload masks for partial blocks: lane l of a block of n is active
// iff l < n, which is table[kBlock - n + l] here.
alignas(32) constexpr long long kLaneMask[2 * kBlock] = {
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0};

// Reverses the four doubles of v (lane 0 <-> lane 3, lane 1 <-> lane 2).
inline __m256d reverse4(__m256d v) {
  return _mm256_permute4x64_pd(v, 0x1B);
}

template <DpObjective Obj>
inline __m256d combine4(__m256d prev, __m256d cost) {
  // kSumCost: prev + cost, same add as the scalar kernel. kMaxCost:
  // max(cost, prev) returns prev on ties — the bit pattern std::max(prev,
  // cost) produces, including the (+0, -0) corner.
  return Obj == DpObjective::kSumCost ? _mm256_add_pd(prev, cost)
                                      : _mm256_max_pd(cost, prev);
}

// min over c in [lo, c_max] of combine(prev[k - c], cost_row[c]) for one
// state k and its smallest argmin, in two passes along c: a values-only
// _mm256_min_pd pass finds the minimum, then a compare scan returns the
// first candidate equal to it with that candidate's own value (so of a
// -0.0/+0.0 tie the first one's bits, as the scalar scan keeps). A
// candidate fed by prev = +inf is +inf, so it is never the minimum of a
// state that has a finite one. Requires c_max <= k.
template <DpObjective Obj>
Argmin single_state(const double* cost_row, std::size_t lo,
                    std::size_t c_max, std::size_t k, const double* prev) {
  // Candidates c..c+3: lane l wants prev[k - (c + l)], descending
  // addresses, so load the 4 doubles ending at k - c and reverse.
  auto four = [&](std::size_t c) {
    return combine4<Obj>(reverse4(_mm256_loadu_pd(prev + (k - c - 3))),
                         _mm256_loadu_pd(cost_row + c));
  };
  auto one = [&](std::size_t c) {
    return combine(Obj, prev[k - c], cost_row[c]);
  };
  std::size_t c = lo;
  __m256d m0 = _mm256_set1_pd(kInf), m1 = m0;
  for (; c + 7 <= c_max; c += 8) {
    m0 = _mm256_min_pd(four(c), m0);
    m1 = _mm256_min_pd(four(c + 4), m1);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_min_pd(m0, m1));
  double min = std::min(std::min(lanes[0], lanes[1]),
                        std::min(lanes[2], lanes[3]));
  for (; c <= c_max; ++c) min = std::min(min, one(c));
  if (min == kInf) return {kInf, 0};

  const __m256d target = _mm256_set1_pd(min);
  for (c = lo; c + 3 <= c_max; c += 4) {
    const int hits =
        _mm256_movemask_pd(_mm256_cmp_pd(four(c), target, _CMP_EQ_OQ));
    if (hits != 0) {
      c += static_cast<std::size_t>(__builtin_ctz(hits));
      return {one(c), c};
    }
  }
  while (one(c) != min) ++c;
  return {one(c), c};
}

// Folds candidates [lo, c_end] into a block of 16 states starting at kb,
// held in four accumulators. Load(p, i) reads the 4 doubles of vector i
// at p + 4i (a plain or a masked load).
template <DpObjective Obj, typename Load>
inline void fold_block(const double* cost_row, std::size_t lo,
                       std::size_t c_end, std::size_t kb,
                       const double* prev, __m256d (&b)[4], Load load) {
  for (std::size_t c = lo; c <= c_end; ++c) {
    const __m256d cost = _mm256_broadcast_sd(cost_row + c);
    const double* p = prev + (kb - c);
    b[0] = _mm256_min_pd(combine4<Obj>(load(p, 0), cost), b[0]);
    b[1] = _mm256_min_pd(combine4<Obj>(load(p, 1), cost), b[1]);
    b[2] = _mm256_min_pd(combine4<Obj>(load(p, 2), cost), b[2]);
    b[3] = _mm256_min_pd(combine4<Obj>(load(p, 3), cost), b[3]);
  }
}

template <DpObjective Obj>
std::uint64_t forward_layer_avx2_impl(const double* cost_row,
                                      std::size_t lo, std::size_t hi,
                                      std::size_t k_begin,
                                      std::size_t k_end,
                                      const double* prev, double* next) {
  // Cell accounting replicates the scalar kernel exactly.
  std::uint64_t cells = 0;
  for (std::size_t k = k_begin; k <= k_end; ++k) {
    const std::size_t c_max = std::min(hi, k);
    if (c_max >= lo) cells += c_max - lo + 1;
  }

  // 16 states kb..kb+15 per block, vectorized along k. For c <= kb every
  // lane has k >= c, so prev[k - c] is a plain ascending load; the up-to-
  // 15 candidates with c > kb (the ragged corner where only the higher
  // lanes admit them) run scalar on the spilled lanes.
  for (std::size_t kb = k_begin; kb <= k_end; kb += kBlock) {
    const std::size_t n = std::min(kBlock, k_end - kb + 1);
    __m256d b[4];
    for (__m256d& v : b) v = _mm256_set1_pd(kInf);
    const std::size_t c_vec_end = std::min(hi, kb);  // inclusive
    if (lo <= c_vec_end) {
      if (n == kBlock) {
        fold_block<Obj>(cost_row, lo, c_vec_end, kb, prev, b,
                        [](const double* p, int i) {
                          return _mm256_loadu_pd(p + 4 * i);
                        });
      } else {
        // Masked tail block: lanes >= n would read prev beyond k_end;
        // maskload guarantees those lanes touch no memory, and their
        // (garbage-fed) results are never stored.
        __m256i mask[4];
        for (int i = 0; i < 4; ++i)
          mask[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              kLaneMask + (kBlock - n) + 4 * i));
        fold_block<Obj>(cost_row, lo, c_vec_end, kb, prev, b,
                        [&mask](const double* p, int i) {
                          return _mm256_maskload_pd(p + 4 * i, mask[i]);
                        });
      }
    }
    alignas(32) double bb[kBlock];
    for (int i = 0; i < 4; ++i) _mm256_store_pd(bb + 4 * i, b[i]);

    // Ragged corner: candidates with kb < c <= min(hi, kb + n - 1),
    // admitted only by lanes l >= c - kb (i.e. states k >= c). These
    // come after every vector candidate in c order, so the strict-less
    // update keeps the first minimum per lane.
    const std::size_t rag_lo = std::max(lo, kb + 1);
    const std::size_t rag_hi = std::min(hi, kb + n - 1);
    for (std::size_t c = rag_lo; c <= rag_hi; ++c) {
      const double cost_c = cost_row[c];
      for (std::size_t l = c - kb; l < n; ++l) {
        const double prev_v = prev[kb + l - c];
        if (prev_v == kInf) continue;
        const double val = combine(Obj, prev_v, cost_c);
        if (val < bb[l]) bb[l] = val;
      }
    }

    std::copy(bb, bb + n, next + kb);
  }
  return cells;
}

}  // namespace

std::uint64_t forward_layer_avx2(DpObjective objective,
                                 const double* cost_row, std::size_t lo,
                                 std::size_t hi, std::size_t k_begin,
                                 std::size_t k_end, bool prev_is_base,
                                 const double* prev, double* next) {
  // The closed-form base layer is O(C) and shared with the scalar
  // kernel; dispatching it here keeps forward_layer_avx2 callable
  // directly by parity tests on any layer shape.
  if (prev_is_base)
    return forward_layer_scalar(objective, cost_row, lo, hi, k_begin,
                                k_end, prev_is_base, prev, next);
  return objective == DpObjective::kSumCost
             ? forward_layer_avx2_impl<DpObjective::kSumCost>(
                   cost_row, lo, hi, k_begin, k_end, prev, next)
             : forward_layer_avx2_impl<DpObjective::kMaxCost>(
                   cost_row, lo, hi, k_begin, k_end, prev, next);
}

Argmin best_candidate_avx2(DpObjective objective, const double* cost_row,
                           std::size_t lo, std::size_t c_max,
                           std::size_t k, const double* prev) {
  return objective == DpObjective::kSumCost
             ? single_state<DpObjective::kSumCost>(cost_row, lo, c_max, k,
                                                   prev)
             : single_state<DpObjective::kMaxCost>(cost_row, lo, c_max, k,
                                                   prev);
}

}  // namespace ocps::dp_detail

#else  // !defined(__AVX2__)

namespace ocps::dp_detail {

// Toolchain cannot emit AVX2 (non-x86 target or the -mavx2 probe
// failed): the dispatcher never selects kAvx2 because
// cpu_supports_avx2() is false there, but keep the symbols defined and
// correct for direct callers.
std::uint64_t forward_layer_avx2(DpObjective objective,
                                 const double* cost_row, std::size_t lo,
                                 std::size_t hi, std::size_t k_begin,
                                 std::size_t k_end, bool prev_is_base,
                                 const double* prev, double* next) {
  return forward_layer_scalar(objective, cost_row, lo, hi, k_begin,
                              k_end, prev_is_base, prev, next);
}

Argmin best_candidate_avx2(DpObjective objective, const double* cost_row,
                           std::size_t lo, std::size_t c_max,
                           std::size_t k, const double* prev) {
  return best_candidate_scalar(objective, cost_row, lo, c_max, k, prev);
}

}  // namespace ocps::dp_detail

#endif
