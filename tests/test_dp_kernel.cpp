// Dispatch, parity, and edge-case coverage for the forward-layer DP
// kernels (core/dp_kernel.*), plus the incremental re-solve path of
// PrefixDpSolver.
//
// The contract under test is strict: the AVX2 kernel must be bit-for-bit
// identical to the pinned scalar reference — layer values AND the cell
// count — for every layer shape the solvers can produce (capacity 0,
// all-infinite prev columns, non-zero lower bounds, hi below capacity,
// every masked tail width 1..15 of the 16-state block, and the single
// final-layer state). At every state of every layer, best_candidate's
// (value, c) must also agree across the kernels, and its value must be
// the layer's next[k]: that is the argmin the backtrack re-derives in
// place of a stored choice table. Comparisons are memcmp, not ==, so a
// -0.0/0.0 or NaN divergence cannot hide.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/dp_kernel.hpp"
#include "core/dp_partition.hpp"
#include "util/check.hpp"

namespace ocps {
namespace {

using dp_detail::Argmin;
using dp_detail::KernelKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Restores automatic kernel dispatch even when a test fails mid-body.
struct KernelGuard {
  ~KernelGuard() { dp_detail::reset_kernel_for_testing(); }
};

// One forward-layer invocation's full output, with a sentinel-filled
// next so "left untouched outside [k_begin, k_end]" is checked bitwise
// too.
struct LayerRun {
  std::vector<double> next;
  std::uint64_t cells = 0;
};

LayerRun run_layer(bool avx2, DpObjective objective,
                   const std::vector<double>& cost_row, std::size_t lo,
                   std::size_t hi, std::size_t k_begin, std::size_t k_end,
                   bool prev_is_base, const std::vector<double>& prev) {
  LayerRun out;
  out.next.assign(cost_row.size(), -12345.5);
  const double* prev_ptr = prev_is_base ? nullptr : prev.data();
  out.cells = (avx2 ? dp_detail::forward_layer_avx2
                    : dp_detail::forward_layer_scalar)(
      objective, cost_row.data(), lo, hi, k_begin, k_end, prev_is_base,
      prev_ptr, out.next.data());
  return out;
}

// best_candidate at state k of a layer with bounds [lo, hi], on one
// kernel. A base layer is scanned over its explicit prev: 0 at state 0,
// +inf elsewhere.
Argmin argmin_at(bool avx2, DpObjective objective,
                 const std::vector<double>& cost_row, std::size_t lo,
                 std::size_t hi, std::size_t k, bool prev_is_base,
                 const std::vector<double>& prev) {
  std::vector<double> base;
  if (prev_is_base) {
    base.assign(cost_row.size(), kInf);
    base[0] = 0.0;
  }
  return (avx2 ? dp_detail::best_candidate_avx2
               : dp_detail::best_candidate_scalar)(
      objective, cost_row.data(), lo, std::min(hi, k), k,
      prev_is_base ? base.data() : prev.data());
}

// Runs one layer under both kernels and requires bitwise identity of the
// values and cell counts; then, at every state in [k_begin, k_end],
// requires both kernels' best_candidate to agree and to reproduce the
// layer's value.
void check_parity(DpObjective objective, const std::vector<double>& cost_row,
                  std::size_t lo, std::size_t hi, std::size_t k_begin,
                  std::size_t k_end, bool prev_is_base,
                  const std::vector<double>& prev, const char* what) {
  LayerRun s = run_layer(false, objective, cost_row, lo, hi, k_begin, k_end,
                         prev_is_base, prev);
  LayerRun a = run_layer(true, objective, cost_row, lo, hi, k_begin, k_end,
                         prev_is_base, prev);
  ASSERT_EQ(s.next.size(), a.next.size());
  EXPECT_EQ(s.cells, a.cells) << what << ": cell counts differ";
  EXPECT_EQ(0, std::memcmp(s.next.data(), a.next.data(),
                           s.next.size() * sizeof(double)))
      << what << ": next values differ";
  for (std::size_t k = k_begin; k <= k_end; ++k) {
    const Argmin bs = argmin_at(false, objective, cost_row, lo, hi, k,
                                prev_is_base, prev);
    const Argmin ba = argmin_at(true, objective, cost_row, lo, hi, k,
                                prev_is_base, prev);
    EXPECT_TRUE(same_bits(bs.value, ba.value))
        << what << ": best_candidate values differ at k=" << k;
    EXPECT_EQ(bs.c, ba.c) << what << ": argmins differ at k=" << k;
    // The closed-form base layer writes only states in [lo, hi]; the
    // solver pre-fills the rest with +inf.
    const bool written = !prev_is_base || (lo <= k && k <= hi);
    EXPECT_TRUE(same_bits(bs.value, written ? s.next[k] : kInf))
        << what << ": best_candidate is not the layer value at k=" << k;
  }
}

std::vector<double> random_row(std::mt19937& rng, std::size_t n,
                               double inf_prob = 0.0) {
  std::uniform_real_distribution<double> dist(0.0, 10.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> row(n);
  for (double& v : row) v = coin(rng) < inf_prob ? kInf : dist(rng);
  return row;
}

// ------------------------------------------------------------ dispatch

TEST(DpKernelDispatch, TestOverrideForcesKernelAndResetRestoresAuto) {
  KernelGuard guard;
  dp_detail::set_kernel_for_testing(KernelKind::kScalar);
  EXPECT_EQ(dp_detail::active_kernel(), KernelKind::kScalar);

  dp_detail::set_kernel_for_testing(KernelKind::kAvx2);
  if (dp_detail::cpu_supports_avx2())
    EXPECT_EQ(dp_detail::active_kernel(), KernelKind::kAvx2);
  else
    // A forced AVX2 on a CPU without it degrades to scalar, not a fault.
    EXPECT_EQ(dp_detail::active_kernel(), KernelKind::kScalar);

  dp_detail::reset_kernel_for_testing();
  // Post-reset dispatch re-resolves; whatever it picks must be runnable.
  KernelKind k = dp_detail::active_kernel();
  if (!dp_detail::cpu_supports_avx2()) {
    EXPECT_EQ(k, KernelKind::kScalar);
  }
}

TEST(DpKernelDispatch, KernelNamesAreStable) {
  EXPECT_STREQ(dp_detail::kernel_name(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(dp_detail::kernel_name(KernelKind::kAvx2), "avx2");
}

// ------------------------------------------------------- edge parity
//
// Each test exercises both kernels directly (forward_layer_scalar vs
// forward_layer_avx2). On a machine without AVX2 the avx2 entry point is
// a scalar passthrough, so the comparisons still compile and pass — the
// real cross-ISA check runs wherever AVX2 exists (CI dispatch-parity
// leg).

TEST(DpKernelParity, CapacityZeroSingleState) {
  for (DpObjective obj : {DpObjective::kSumCost, DpObjective::kMaxCost}) {
    std::vector<double> cost_row = {3.25};
    std::vector<double> prev = {1.5};
    check_parity(obj, cost_row, /*lo=*/0, /*hi=*/0, /*k_begin=*/0,
                 /*k_end=*/0, /*prev_is_base=*/false, prev, "capacity 0");

    // Semantics: the only candidate is c = 0.
    LayerRun r = run_layer(true, obj, cost_row, 0, 0, 0, 0, false, prev);
    double want = obj == DpObjective::kSumCost ? 1.5 + 3.25
                                               : std::max(1.5, 3.25);
    EXPECT_TRUE(same_bits(r.next[0], want));
    EXPECT_EQ(r.cells, 1u);
    const Argmin b = argmin_at(true, obj, cost_row, 0, 0, 0, false, prev);
    EXPECT_TRUE(same_bits(b.value, want));
    EXPECT_EQ(b.c, 0u);
  }
}

TEST(DpKernelParity, BaseLayerClosedForm) {
  std::mt19937 rng(7);
  for (DpObjective obj : {DpObjective::kSumCost, DpObjective::kMaxCost}) {
    std::vector<double> cost_row = random_row(rng, 33);
    std::vector<double> prev;  // unused when prev_is_base
    check_parity(obj, cost_row, /*lo=*/0, /*hi=*/32, /*k_begin=*/0,
                 /*k_end=*/32, /*prev_is_base=*/true, prev, "base layer");
    check_parity(obj, cost_row, /*lo=*/5, /*hi=*/20, /*k_begin=*/0,
                 /*k_end=*/32, /*prev_is_base=*/true, prev,
                 "base layer with bounds");
  }
}

TEST(DpKernelParity, AllInfinitePrevLeavesStatesInfeasible) {
  std::mt19937 rng(11);
  for (DpObjective obj : {DpObjective::kSumCost, DpObjective::kMaxCost}) {
    std::vector<double> cost_row = random_row(rng, 40);
    std::vector<double> prev(40, kInf);
    check_parity(obj, cost_row, 0, 39, 0, 39, false, prev, "all-inf prev");

    // Semantics: no live candidate anywhere — every state stays +inf,
    // and best_candidate pins c to 0, exactly like the scalar reference.
    LayerRun r = run_layer(true, obj, cost_row, 0, 39, 0, 39, false, prev);
    for (std::size_t k = 0; k <= 39; ++k) {
      EXPECT_TRUE(same_bits(r.next[k], kInf)) << "k=" << k;
      EXPECT_EQ(argmin_at(true, obj, cost_row, 0, 39, k, false, prev).c, 0u)
          << "k=" << k;
    }
  }
}

TEST(DpKernelParity, NonZeroLowerBound) {
  std::mt19937 rng(13);
  for (DpObjective obj : {DpObjective::kSumCost, DpObjective::kMaxCost}) {
    std::vector<double> cost_row = random_row(rng, 50);
    std::vector<double> prev = random_row(rng, 50, 0.15);
    for (std::size_t lo : {1u, 3u, 17u, 49u}) {
      check_parity(obj, cost_row, lo, 49, 0, 49, false, prev,
                   "non-zero lo");
      // States below lo have an empty candidate range: infeasible.
      LayerRun r =
          run_layer(true, obj, cost_row, lo, 49, 0, 49, false, prev);
      for (std::size_t k = 0; k < lo; ++k)
        EXPECT_TRUE(same_bits(r.next[k], kInf)) << "lo=" << lo << " k=" << k;
    }
  }
}

TEST(DpKernelParity, HiBelowCapacityCapsChoices) {
  std::mt19937 rng(17);
  for (DpObjective obj : {DpObjective::kSumCost, DpObjective::kMaxCost}) {
    std::vector<double> cost_row = random_row(rng, 60);
    std::vector<double> prev = random_row(rng, 60, 0.1);
    for (std::size_t hi : {0u, 1u, 7u, 8u, 9u, 31u}) {
      check_parity(obj, cost_row, 0, hi, 0, 59, false, prev,
                   "hi below capacity");
      for (bool avx2 : {false, true})
        for (std::size_t k = 0; k <= 59; ++k)
          EXPECT_LE(argmin_at(avx2, obj, cost_row, 0, hi, k, false, prev).c,
                    hi)
              << "hi=" << hi << " k=" << k;
    }
  }
}

TEST(DpKernelParity, EveryMaskedTailWidth) {
  // k-ranges of width 1..15 (pure tail block), 16 (one full block),
  // 17..31 (full block + tail) and 32..33 — every mask the AVX2 kernel's
  // 16-state block can load.
  std::mt19937 rng(19);
  for (DpObjective obj : {DpObjective::kSumCost, DpObjective::kMaxCost}) {
    std::vector<double> cost_row = random_row(rng, 96);
    std::vector<double> prev = random_row(rng, 96, 0.1);
    for (std::size_t width = 1; width <= 33; ++width) {
      for (std::size_t k_begin : {0u, 5u, 40u}) {
        std::size_t k_end = k_begin + width - 1;
        check_parity(obj, cost_row, 0, 95, k_begin, k_end, false, prev,
                     "masked tail width");
      }
    }
  }
}

TEST(DpKernelParity, SingleStateFinalLayerForm) {
  // The final layer of every solve: only state C, which the solver scans
  // with best_candidate. The AVX2 form vectorizes over c with reversed
  // loads; the cross-lane reduction must keep the smallest-c tie-break.
  // A one-state forward layer (a width-1 tail block) must agree too.
  std::mt19937 rng(23);
  for (DpObjective obj : {DpObjective::kSumCost, DpObjective::kMaxCost}) {
    for (std::size_t cap : {1u, 2u, 7u, 8u, 9u, 16u, 33u, 57u}) {
      std::vector<double> cost_row = random_row(rng, cap + 1);
      std::vector<double> prev = random_row(rng, cap + 1, 0.2);
      for (std::size_t lo : {0u, 1u, 5u}) {
        if (lo > cap) continue;
        check_parity(obj, cost_row, lo, cap, cap, cap, false, prev,
                     "single-state final layer");
      }
    }
  }
}

TEST(DpKernelParity, TieBreaksTowardSmallestChoice) {
  // A constant cost row with constant prev makes every candidate tie;
  // both kernels must pick c = lo at every state.
  for (DpObjective obj : {DpObjective::kSumCost, DpObjective::kMaxCost}) {
    std::vector<double> cost_row(32, 2.0);
    std::vector<double> prev(32, 1.0);
    check_parity(obj, cost_row, 0, 31, 0, 31, false, prev, "all ties");
    check_parity(obj, cost_row, 3, 31, 0, 31, false, prev, "ties, lo 3");
    for (bool avx2 : {false, true})
      for (std::size_t k = 3; k <= 31; ++k)
        EXPECT_EQ(argmin_at(avx2, obj, cost_row, 3, 31, k, false, prev).c,
                  3u)
            << "k=" << k;
  }
}

TEST(DpKernelParity, TieBetweenSignedZerosKeepsTheFirstCandidatesBits) {
  // -0.0 == +0.0, so a tie between them goes to the smaller c, and the
  // minimum's bits must be that candidate's. With cost -1 everywhere the
  // min-max candidate is prev[k - c]: at k = 20, c = 1 reads -0.0 and
  // c = 8 reads +0.0, which the AVX2 scan holds in different lanes.
  std::vector<double> cost_row(21, -1.0);
  std::vector<double> prev(21, 1.0);
  prev[19] = -0.0;
  prev[12] = 0.0;
  check_parity(DpObjective::kMaxCost, cost_row, 0, 20, 0, 20, false, prev,
               "signed-zero tie");
  for (bool avx2 : {false, true}) {
    const Argmin b = argmin_at(avx2, DpObjective::kMaxCost, cost_row, 0, 20,
                               20, false, prev);
    EXPECT_TRUE(same_bits(b.value, -0.0)) << (avx2 ? "avx2" : "scalar");
    EXPECT_EQ(b.c, 1u) << (avx2 ? "avx2" : "scalar");
  }
}

TEST(DpKernelParity, FuzzRandomLayerShapes) {
  std::mt19937 rng(0xC0FFEE);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t cap = rng() % 70;
    const DpObjective obj =
        rng() % 2 ? DpObjective::kMaxCost : DpObjective::kSumCost;
    std::vector<double> cost_row = random_row(rng, cap + 1);
    const double inf_prob = (trial % 5 == 0) ? 1.0 : 0.2;
    std::vector<double> prev = random_row(rng, cap + 1, inf_prob);
    std::size_t lo = rng() % (cap + 1);
    std::size_t hi = lo + rng() % (cap + 1 - lo);
    std::size_t k_begin = rng() % (cap + 1);
    std::size_t k_end = k_begin + rng() % (cap + 1 - k_begin);
    check_parity(obj, cost_row, lo, hi, k_begin, k_end, false, prev,
                 "fuzz layer");
  }
}

// --------------------------------------------------- whole-DP parity

TEST(DpKernelParity, FullSolveIdenticalAcrossKernels) {
  KernelGuard guard;
  std::mt19937 rng(31);
  const std::size_t p = 6, capacity = 48;
  CostMatrix costs(p, capacity);
  for (std::size_t i = 0; i < p; ++i) {
    std::vector<double> row = random_row(rng, capacity + 1);
    std::memcpy(costs.row(i), row.data(), row.size() * sizeof(double));
  }
  DpOptions options;
  options.min_alloc.assign(p, 2);
  options.max_alloc.assign(p, capacity - 4);

  dp_detail::set_kernel_for_testing(KernelKind::kScalar);
  DpResult scalar = optimize_partition(costs.view(), capacity, options);
  dp_detail::set_kernel_for_testing(KernelKind::kAvx2);
  DpResult simd = optimize_partition(costs.view(), capacity, options);

  ASSERT_TRUE(scalar.feasible);
  EXPECT_EQ(scalar.feasible, simd.feasible);
  EXPECT_EQ(scalar.alloc, simd.alloc);
  EXPECT_TRUE(same_bits(scalar.objective_value, simd.objective_value));
}

// ------------------------------------------------ incremental re-solve

class IncrementalResolveTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPrograms = 8;
  static constexpr std::size_t kCapacity = 40;

  void SetUp() override {
    std::mt19937 rng(37);
    costs_ = CostMatrix(kPrograms, kCapacity);
    for (std::size_t i = 0; i < kPrograms; ++i) {
      std::vector<double> row = random_row(rng, kCapacity + 1);
      std::memcpy(costs_.row(i), row.data(), row.size() * sizeof(double));
    }
    members_.resize(kPrograms);
    for (std::size_t i = 0; i < kPrograms; ++i)
      members_[i] = static_cast<std::uint32_t>(i);
  }

  // The ground truth an incremental refresh must match: a cold solver
  // configured directly on the current table.
  DpResult cold_solve() const {
    PrefixDpSolver fresh;
    fresh.configure(costs_.view(), kCapacity, DpObjective::kSumCost);
    DpResult out;
    fresh.solve(members_.data(), kPrograms, nullptr, out);
    return out;
  }

  static void expect_same_result(const DpResult& a, const DpResult& b) {
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_EQ(a.alloc, b.alloc);
    EXPECT_TRUE(same_bits(a.objective_value, b.objective_value));
  }

  CostMatrix costs_;
  std::vector<std::uint32_t> members_;
};

TEST_F(IncrementalResolveTest, FingerprintDiffInvalidatesOnlySuffix) {
  PrefixDpSolver solver;
  solver.configure(costs_.view(), kCapacity, DpObjective::kSumCost);
  DpResult result;
  solver.solve(members_.data(), kPrograms, nullptr, result);
  ASSERT_TRUE(result.feasible);
  // 7 non-final layers cached + the final single-state layer.
  EXPECT_EQ(solver.stats().layers_computed, kPrograms);

  // Mutate program 5's row in place (the controller's EWMA pattern).
  costs_.row(5)[kCapacity / 2] += 0.75;
  std::size_t invalidated = solver.resolve_incremental(costs_.view());
  // Layers 0..4 survive; layers 5 and 6 (prefixes through program 5)
  // are dropped. The final layer was never cached.
  EXPECT_EQ(invalidated, 2u);
  EXPECT_EQ(solver.stats().layers_invalidated, 2u);
  EXPECT_EQ(solver.stats().incremental_refreshes, 1u);

  const std::uint64_t before = solver.stats().layers_computed;
  solver.solve(members_.data(), kPrograms, nullptr, result);
  // Rebuilt: the two invalidated layers + the final layer. O(suffix).
  EXPECT_EQ(solver.stats().layers_computed - before, 3u);
  expect_same_result(result, cold_solve());
}

TEST_F(IncrementalResolveTest, ExplicitProgramIndexInvalidatesSameSuffix) {
  PrefixDpSolver solver;
  solver.configure(costs_.view(), kCapacity, DpObjective::kSumCost);
  DpResult result;
  solver.solve(members_.data(), kPrograms, nullptr, result);

  costs_.row(5)[3] = 9.25;
  // The view still points at the same storage; name the changed program
  // instead of diffing fingerprints.
  EXPECT_EQ(solver.resolve_incremental(std::uint32_t{5}), 2u);
  solver.solve(members_.data(), kPrograms, nullptr, result);
  expect_same_result(result, cold_solve());
}

TEST_F(IncrementalResolveTest, ChangeInLastProgramInvalidatesNoLayers) {
  PrefixDpSolver solver;
  solver.configure(costs_.view(), kCapacity, DpObjective::kSumCost);
  DpResult result;
  solver.solve(members_.data(), kPrograms, nullptr, result);

  // The final program's layer is never cached, so a change there costs
  // zero invalidations — but the next solve must still see the new row.
  costs_.row(kPrograms - 1)[7] += 2.0;
  EXPECT_EQ(solver.resolve_incremental(costs_.view()), 0u);
  const std::uint64_t before = solver.stats().layers_computed;
  solver.solve(members_.data(), kPrograms, nullptr, result);
  EXPECT_EQ(solver.stats().layers_computed - before, 1u);  // final only
  expect_same_result(result, cold_solve());
}

TEST_F(IncrementalResolveTest, UnchangedTableKeepsEveryLayer) {
  PrefixDpSolver solver;
  solver.configure(costs_.view(), kCapacity, DpObjective::kSumCost);
  DpResult result;
  solver.solve(members_.data(), kPrograms, nullptr, result);

  EXPECT_EQ(solver.resolve_incremental(costs_.view()), 0u);
  EXPECT_EQ(solver.stats().layers_invalidated, 0u);
  const std::uint64_t before = solver.stats().layers_computed;
  solver.solve(members_.data(), kPrograms, nullptr, result);
  EXPECT_EQ(solver.stats().layers_computed - before, 1u);
  expect_same_result(result, cold_solve());
}

TEST_F(IncrementalResolveTest, EveryChangePositionMatchesColdSolve) {
  // Sweep the change position across the whole chain: invalidation must
  // always be (cached layers from the first occurrence on) and results
  // must always match a cold solver.
  for (std::size_t changed = 0; changed < kPrograms; ++changed) {
    SetUp();  // fresh table
    PrefixDpSolver solver;
    solver.configure(costs_.view(), kCapacity, DpObjective::kSumCost);
    DpResult result;
    solver.solve(members_.data(), kPrograms, nullptr, result);

    costs_.row(changed)[1] += 0.5;
    std::size_t expect_invalidated =
        changed + 1 < kPrograms ? kPrograms - 1 - changed : 0;
    EXPECT_EQ(solver.resolve_incremental(costs_.view()), expect_invalidated)
        << "changed=" << changed;
    solver.solve(members_.data(), kPrograms, nullptr, result);
    expect_same_result(result, cold_solve());
  }
}

TEST_F(IncrementalResolveTest, StaleCachedLayerFailsTheBacktrackCheck) {
  // A row changed in place without resolve_incremental leaves cached
  // layers built from the old row. The backtrack re-scans each layer
  // with the row it reads now, so its minimum cannot match the stored
  // one: the solve must throw, not return an allocation of a table that
  // no longer exists.
  PrefixDpSolver solver;
  solver.configure(costs_.view(), kCapacity, DpObjective::kSumCost);
  DpResult result;
  solver.solve(members_.data(), kPrograms, nullptr, result);
  for (std::size_t c = 0; c <= kCapacity; ++c) costs_.row(1)[c] += 1.0;
  EXPECT_THROW(solver.solve(members_.data(), kPrograms, nullptr, result),
               CheckError);
}

TEST_F(IncrementalResolveTest, RejectsShapeChangeAndNonFiniteRows) {
  PrefixDpSolver solver;
  solver.configure(costs_.view(), kCapacity, DpObjective::kSumCost);

  CostMatrix wrong_shape(kPrograms + 1, kCapacity);
  EXPECT_THROW(solver.resolve_incremental(wrong_shape.view()), CheckError);

  costs_.row(2)[4] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solver.resolve_incremental(costs_.view()), CheckError);
}

}  // namespace
}  // namespace ocps
