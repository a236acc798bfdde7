#include "core/dp_kernel.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/obs.hpp"

namespace ocps::dp_detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The reference candidate scan for one state: ascending c, strict
// less-than, so the first minimum (the smallest c) wins.
template <DpObjective Obj>
inline Argmin best_candidate_impl(const double* cost_row, std::size_t lo,
                                  std::size_t c_max, std::size_t k,
                                  const double* prev) {
  Argmin best{kInf, 0};
  const double* prev_at_k = prev + k;
  for (std::size_t c = lo; c <= c_max; ++c) {
    double prev_v = prev_at_k[-static_cast<std::ptrdiff_t>(c)];
    if (prev_v == kInf) continue;
    double val = combine(Obj, prev_v, cost_row[c]);
    if (val < best.value) best = {val, c};
  }
  return best;
}

template <DpObjective Obj>
std::uint64_t forward_layer_impl(const double* cost_row, std::size_t lo,
                                 std::size_t hi, std::size_t k_begin,
                                 std::size_t k_end, bool prev_is_base,
                                 const double* prev, double* next) {
  std::uint64_t cells = 0;
  if (prev_is_base) {
    // Base layer: prev[j] is finite only at j = 0, so the only candidate
    // for state k is c = k. Same arithmetic as the general loop (the
    // combine with prev[0] = 0.0 is kept), O(C) instead of O(C²).
    for (std::size_t k = std::max(lo, k_begin); k <= k_end && k <= hi;
         ++k) {
      next[k] = combine(Obj, 0.0, cost_row[k]);
      ++cells;
    }
    return cells;
  }
  for (std::size_t k = k_begin; k <= k_end; ++k) {
    const std::size_t c_max = std::min(hi, k);
    if (c_max >= lo) cells += c_max - lo + 1;
    next[k] = best_candidate_impl<Obj>(cost_row, lo, c_max, k, prev).value;
  }
  return cells;
}

// Dispatch cache: -1 = unresolved, otherwise a KernelKind. An explicit
// test override wins; otherwise the first dispatch resolves OCPS_SIMD +
// CPUID and the result sticks for the process (relaxed ordering is fine:
// every thread resolving concurrently computes the same value).
std::atomic<int> g_kernel{-1};

KernelKind resolve_kernel() {
  const char* env = std::getenv("OCPS_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0)
    return KernelKind::kScalar;
  if (env != nullptr && std::strcmp(env, "avx2") == 0) {
    if (cpu_supports_avx2()) return KernelKind::kAvx2;
    std::fprintf(stderr,
                 "ocps: OCPS_SIMD=avx2 but this CPU lacks AVX2; "
                 "falling back to the scalar DP kernel\n");
    return KernelKind::kScalar;
  }
  if (env != nullptr && std::strcmp(env, "auto") != 0 && env[0] != '\0')
    std::fprintf(stderr,
                 "ocps: unknown OCPS_SIMD value \"%s\" "
                 "(expected scalar|avx2|auto); using auto\n",
                 env);
  return cpu_supports_avx2() ? KernelKind::kAvx2 : KernelKind::kScalar;
}

}  // namespace

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar: return "scalar";
    case KernelKind::kAvx2: return "avx2";
  }
  return "?";
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

KernelKind active_kernel() {
  int cached = g_kernel.load(std::memory_order_relaxed);
  if (cached < 0) {
    cached = static_cast<int>(resolve_kernel());
    g_kernel.store(cached, std::memory_order_relaxed);
  }
  return static_cast<KernelKind>(cached);
}

void set_kernel_for_testing(KernelKind kind) {
  if (kind == KernelKind::kAvx2 && !cpu_supports_avx2())
    kind = KernelKind::kScalar;
  g_kernel.store(static_cast<int>(kind), std::memory_order_relaxed);
}

void reset_kernel_for_testing() {
  g_kernel.store(-1, std::memory_order_relaxed);
}

std::uint64_t forward_layer_scalar(DpObjective objective,
                                   const double* cost_row, std::size_t lo,
                                   std::size_t hi, std::size_t k_begin,
                                   std::size_t k_end, bool prev_is_base,
                                   const double* prev, double* next) {
  return objective == DpObjective::kSumCost
             ? forward_layer_impl<DpObjective::kSumCost>(
                   cost_row, lo, hi, k_begin, k_end, prev_is_base, prev,
                   next)
             : forward_layer_impl<DpObjective::kMaxCost>(
                   cost_row, lo, hi, k_begin, k_end, prev_is_base, prev,
                   next);
}

Argmin best_candidate_scalar(DpObjective objective, const double* cost_row,
                             std::size_t lo, std::size_t c_max,
                             std::size_t k, const double* prev) {
  return objective == DpObjective::kSumCost
             ? best_candidate_impl<DpObjective::kSumCost>(cost_row, lo,
                                                          c_max, k, prev)
             : best_candidate_impl<DpObjective::kMaxCost>(cost_row, lo,
                                                          c_max, k, prev);
}

namespace {

// Feeds the dispatched kernel's name into obs::build_info(). Lazy: the
// provider runs at scrape time, after dispatch has resolved, so the
// reported kernel is the one solves actually use.
const bool g_build_info_registrar = [] {
  obs::set_simd_kernel_provider(
      +[]() -> const char* { return kernel_name(active_kernel()); });
  return true;
}();

}  // namespace

std::uint64_t forward_layer(DpObjective objective, const double* cost_row,
                            std::size_t lo, std::size_t hi,
                            std::size_t k_begin, std::size_t k_end,
                            bool prev_is_base, const double* prev,
                            double* next) {
  // The base layer is O(C) with no inner reduction — the scalar closed
  // form is the kernel, so both dispatch targets share it.
  if (prev_is_base || active_kernel() == KernelKind::kScalar)
    return forward_layer_scalar(objective, cost_row, lo, hi, k_begin,
                                k_end, prev_is_base, prev, next);
  return forward_layer_avx2(objective, cost_row, lo, hi, k_begin, k_end,
                            prev_is_base, prev, next);
}

Argmin best_candidate(DpObjective objective, const double* cost_row,
                      std::size_t lo, std::size_t c_max, std::size_t k,
                      const double* prev) {
  if (active_kernel() == KernelKind::kScalar)
    return best_candidate_scalar(objective, cost_row, lo, c_max, k, prev);
  return best_candidate_avx2(objective, cost_row, lo, c_max, k, prev);
}

}  // namespace ocps::dp_detail
