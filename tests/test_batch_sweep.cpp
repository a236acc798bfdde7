// Pins for the group sweep: every C(16,4) = 1820 group of the Table
// I-style synthetic suite (at reduced capacity so the test stays fast),
// all six methods, must reproduce recorded bits under every kernel and
// agree across thread counts, and the prefix-shared solver must share
// the layers it should and scan only the cells it should.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "combinatorics/enumerate.hpp"
#include "core/batch_engine.hpp"
#include "core/group_sweep.hpp"
#include "obs/obs.hpp"
#include "trace/generators.hpp"

namespace ocps {
namespace {

std::vector<ProgramModel> make_suite(std::size_t capacity) {
  std::vector<ProgramModel> models;
  const std::size_t n = 30000;
  for (int i = 0; i < 16; ++i) {
    Trace t;
    std::string name = "p" + std::to_string(i);
    switch (i % 4) {
      case 0: t = make_zipf(n, 40 + 11 * i, 0.8 + 0.05 * i, 100 + i); break;
      case 1: t = make_cyclic(n, 24 + 9 * i); break;
      case 2: t = make_hot_cold(n, 6 + i, 60 + 13 * i, 0.8, 200 + i); break;
      default: t = make_sawtooth(n, 30 + 7 * i); break;
    }
    models.push_back(make_program_model(name, 0.5 + 0.1 * i,
                                        compute_footprint(t), capacity + 16));
  }
  return models;
}

// Bitwise equality: batched evaluation must not perturb even the last ulp
// (NaNs would also compare equal, unlike ==).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_vector_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

void expect_identical(const GroupEvaluation& a, const GroupEvaluation& b) {
  ASSERT_EQ(a.members, b.members);
  for (std::size_t m = 0; m < kNumMethods; ++m) {
    const MethodOutcome& x = a.methods[m];
    const MethodOutcome& y = b.methods[m];
    EXPECT_TRUE(same_vector_bits(x.alloc, y.alloc))
        << method_name(static_cast<Method>(m)) << " alloc differs";
    EXPECT_TRUE(same_vector_bits(x.per_program_mr, y.per_program_mr))
        << method_name(static_cast<Method>(m)) << " per_program_mr differs";
    EXPECT_TRUE(same_bits(x.group_mr, y.group_mr))
        << method_name(static_cast<Method>(m)) << " group_mr differs";
  }
}

TEST(BatchSweep, MethodSumsMatchRecordedBits) {
  // Pins each method's Σ group_mr over the C = 64 suite to bits recorded
  // with the full 0..C layer scan, which the feasible windows must
  // reproduce exactly.
  const std::size_t capacity = 64;
  auto models = make_suite(capacity);
  auto groups = all_subsets(16, 4);
  SweepOptions opt;
  opt.capacity = capacity;
  auto sweep = sweep_groups(models, groups, opt);
  ASSERT_EQ(sweep.size(), 1820u);

  const double want[kNumMethods] = {
      0x1.3288997bd4678p+10,  // Equal
      0x1.38efc99642ef4p+10,  // Natural
      0x1.19ade147f9a44p+10,  // Equal baseline
      0x1.1996fea509fa7p+10,  // Natural baseline
      0x1.0c3bb425501b4p+10,  // Optimal
      0x1.18aef0080f129p+10,  // STTW
  };
  for (std::size_t m = 0; m < kNumMethods; ++m) {
    double sum = 0.0;
    for (const GroupEvaluation& g : sweep) sum += g.methods[m].group_mr;
    std::ostringstream got;
    got << std::hexfloat << sum;
    EXPECT_TRUE(same_bits(sum, want[m]))
        << method_name(static_cast<Method>(m)) << ": Σ group_mr = "
        << got.str();
  }
}

TEST(BatchSweep, SerialAndAutoWidthProduceIdenticalResults) {
  const std::size_t capacity = 48;
  auto models = make_suite(capacity);
  auto groups = all_subsets(16, 3);  // 560 groups

  SweepOptions serial, wide;
  serial.capacity = wide.capacity = capacity;
  serial.threads = 1;
  wide.threads = 4;  // capped by the pool; exercises chunked scheduling
  auto a = sweep_groups(models, groups, serial);
  auto b = sweep_groups(models, groups, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) expect_identical(a[g], b[g]);
}

TEST(BatchSweep, FullSweepBitForBitIdenticalAcrossKernels) {
  // The dispatch-parity gate: the entire C(16,4) = 1820-group sweep run
  // on the scalar kernel must memcmp-equal the same sweep on the AVX2
  // kernel — every allocation, per-program miss ratio, and group miss
  // ratio, for all methods. On a machine without AVX2 the forced-AVX2
  // dispatch degrades to scalar and the test is a tautology; CI runs it
  // on AVX2 hardware.
  const std::size_t capacity = 64;
  auto models = make_suite(capacity);
  auto groups = all_subsets(16, 4);
  SweepOptions opt;
  opt.capacity = capacity;

  dp_detail::set_kernel_for_testing(dp_detail::KernelKind::kScalar);
  auto scalar = sweep_groups(models, groups, opt);
  dp_detail::set_kernel_for_testing(dp_detail::KernelKind::kAvx2);
  auto simd = sweep_groups(models, groups, opt);
  dp_detail::reset_kernel_for_testing();

  ASSERT_EQ(scalar.size(), simd.size());
  for (std::size_t g = 0; g < scalar.size(); ++g) {
    expect_identical(scalar[g], simd[g]);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first kernel divergence at group " << g;
    }
  }
}

// FNV-1a 64 over the bytes of every field of every method's outcome
// (allocation, per-program miss ratios, group miss ratio), group by group
// in sweep order.
std::uint64_t outcome_hash(const std::vector<GroupEvaluation>& sweep) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const GroupEvaluation& g : sweep) {
    for (const MethodOutcome& m : g.methods) {
      for (double units : m.alloc) mix(units);
      for (double mr : m.per_program_mr) mix(mr);
      mix(m.group_mr);
    }
  }
  return h;
}

TEST(BatchSweep, AllocationsMatchRecordedHash) {
  // MethodSumsMatchRecordedBits cannot see a tie-break that swaps two
  // allocations of equal cost. This pins every field of every method's
  // outcome, group by group, over the same C = 64 suite under each
  // kernel forced in-process.
  constexpr std::uint64_t kWant = 0xdc02cd55a1c9fd08ULL;
  const std::size_t capacity = 64;
  auto models = make_suite(capacity);
  auto groups = all_subsets(16, 4);
  SweepOptions opt;
  opt.capacity = capacity;
  for (dp_detail::KernelKind kind :
       {dp_detail::KernelKind::kScalar, dp_detail::KernelKind::kAvx2}) {
    dp_detail::set_kernel_for_testing(kind);
    auto sweep = sweep_groups(models, groups, opt);
    EXPECT_EQ(sweep.size(), 1820u);
    EXPECT_EQ(outcome_hash(sweep), kWant)
        << dp_detail::kernel_name(kind) << ": 0x" << std::hex
        << outcome_hash(sweep);
  }
  dp_detail::reset_kernel_for_testing();
}

TEST(BatchSweep, PrefixSolverSharesLayersAcrossLexOrderedGroups) {
  const std::size_t capacity = 32;
  auto models = make_suite(capacity);
  CostMatrix unit_costs = precompute_unit_cost_matrix(models, capacity);

  PrefixDpSolver solver;
  solver.configure(unit_costs.view(), capacity, DpObjective::kSumCost);
  auto groups = all_subsets(16, 4);
  std::vector<std::size_t> lo(4, 0);
  DpResult out;
  for (const auto& members : groups) {
    solver.solve(members.data(), members.size(), lo.data(), out);
    ASSERT_TRUE(out.feasible);
  }
  const PrefixDpSolver::Stats& stats = solver.stats();
  EXPECT_EQ(stats.solves, groups.size());
  // Lexicographic enumeration shares the first three of four layers
  // whenever consecutive groups agree on a member prefix. The distinct
  // prefixes of ascending 4-subsets of 16: 13 of length 1 (m0 <= 12),
  // C(14,2) = 91 of length 2, C(15,3) = 455 of length 3 — plus one
  // uncached final layer per group.
  const std::size_t expected_layers = 13 + 91 + 455 + 1820;
  EXPECT_EQ(stats.layers_computed, expected_layers);
  EXPECT_EQ(stats.layers_reused,
            groups.size() * 4 - expected_layers);
}

TEST(BatchSweep, SweepWorkMatchesRecordedCounts) {
  // DP work is exact and host-independent, unlike the bench gate's
  // timings: a sweep that stops sharing layers between groups, or whose
  // layers scan past the feasible window, changes these counts on any
  // host and under either kernel. One thread, because chunked
  // scheduling splits the prefix runs and so changes what is shared.
  const std::size_t capacity = 64;
  auto models = make_suite(capacity);
  auto groups = all_subsets(16, 4);
  SweepOptions opt;
  opt.capacity = capacity;
  opt.threads = 1;

  struct ObsOn {
    ObsOn() {
      obs::set_enabled(true);
      obs::reset_metrics();
    }
    ~ObsOn() { obs::set_enabled(false); }
  } obs_on;
  auto sweep = sweep_groups(models, groups, opt);
  ASSERT_EQ(sweep.size(), 1820u);

  EXPECT_EQ(obs::counter("sweep.dp_layers_computed").value(), 5030u);
  EXPECT_EQ(obs::counter("sweep.dp_layers_reused").value(), 9530u);
  EXPECT_EQ(obs::counter("dp.cells").value(), 2672418u);
}

}  // namespace
}  // namespace ocps
