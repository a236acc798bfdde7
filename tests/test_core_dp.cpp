// Tests for the DP optimal partitioner and the STTW comparator.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "combinatorics/enumerate.hpp"
#include "core/batch_engine.hpp"
#include "core/dp_partition.hpp"
#include "core/sttw.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ocps {
namespace {

// Random non-increasing cost curve in [0, 1] with occasional cliffs.
std::vector<double> random_cost_curve(Rng& rng, std::size_t capacity,
                                      bool with_cliffs) {
  std::vector<double> cost(capacity + 1);
  double v = 1.0;
  for (std::size_t c = 0; c <= capacity; ++c) {
    cost[c] = v;
    double step = rng.uniform() * 0.1;
    if (with_cliffs && rng.chance(0.15)) step += rng.uniform() * 0.4;
    v = std::max(0.0, v - step);
  }
  return cost;
}

CostMatrix random_cost_matrix(Rng& rng, std::size_t programs,
                              std::size_t capacity, bool with_cliffs) {
  CostMatrix cost(programs, capacity);
  for (std::size_t i = 0; i < programs; ++i) {
    auto row = random_cost_curve(rng, capacity, with_cliffs);
    std::copy(row.begin(), row.end(), cost.row(i));
  }
  return cost;
}

CostMatrix make_cost(const std::vector<std::vector<double>>& rows) {
  return CostMatrix::from_rows(rows, rows.front().size() - 1);
}

double sum_cost(CostMatrixView cost, const std::vector<std::size_t>& alloc) {
  double s = 0.0;
  for (std::size_t i = 0; i < cost.rows(); ++i) s += cost(i, alloc[i]);
  return s;
}

TEST(Dp, TrivialSingleProgramTakesWholeCache) {
  CostMatrix cost = make_cost({{1.0, 0.5, 0.2, 0.1}});
  DpResult r = optimize_partition(cost.view(), 3);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.alloc, (std::vector<std::size_t>{3}));
  EXPECT_DOUBLE_EQ(r.objective_value, 0.1);
}

TEST(Dp, PicksTheCliffOverTheSlope) {
  // Program 0: no benefit from cache. Program 1: cliff at 3.
  CostMatrix cost = make_cost({
      {1.0, 0.99, 0.98, 0.97},
      {1.0, 1.0, 1.0, 0.0},
  });
  DpResult r = optimize_partition(cost.view(), 3);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.alloc, (std::vector<std::size_t>{0, 3}));
  EXPECT_DOUBLE_EQ(r.objective_value, 1.0);
}

TEST(Dp, AllocationAlwaysSumsToCapacity) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t p = 2 + rng.below(4);
    std::size_t cap = 5 + rng.below(30);
    CostMatrix cost = random_cost_matrix(rng, p, cap, true);
    DpResult r = optimize_partition(cost.view(), cap);
    ASSERT_TRUE(r.feasible);
    std::size_t total = 0;
    for (auto c : r.alloc) total += c;
    EXPECT_EQ(total, cap);
    EXPECT_NEAR(r.objective_value, sum_cost(cost.view(), r.alloc), 1e-12);
  }
}

// Property: DP equals the exhaustive optimum across random instances, with
// and without cliffs, sum and max objectives.
class DpOracleProperty
    : public ::testing::TestWithParam<std::tuple<int, bool, DpObjective>> {};

TEST_P(DpOracleProperty, MatchesExhaustiveSearch) {
  auto [seed, cliffs, objective] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  std::size_t p = 2 + rng.below(3);   // 2..4 programs
  std::size_t cap = 4 + rng.below(9); // 4..12 units
  CostMatrix cost = random_cost_matrix(rng, p, cap, cliffs);

  DpOptions opt;
  opt.objective = objective;
  DpResult dp = optimize_partition(cost.view(), cap, opt);
  DpResult brute = optimize_partition_exhaustive(cost.view(), cap, opt);
  ASSERT_TRUE(dp.feasible);
  ASSERT_TRUE(brute.feasible);
  EXPECT_NEAR(dp.objective_value, brute.objective_value, 1e-12);
}

// Cost-row shapes for the bounded oracle: convex (shrinking steps),
// cliffed, flat with exact ties (a few quantized levels), and near-zero
// (tiny values and exact zeros).
std::vector<double> shaped_cost_curve(Rng& rng, std::size_t capacity,
                                      int shape) {
  if (shape == 1) return random_cost_curve(rng, capacity, true);
  std::vector<double> cost(capacity + 1);
  double v = 1.0, step = 0.05 + 0.2 * rng.uniform();
  for (std::size_t c = 0; c <= capacity; ++c) {
    switch (shape) {
      case 0:
        cost[c] = v;
        v = std::max(0.0, v - step);
        step *= 0.5 + 0.4 * rng.uniform();
        break;
      case 2:
        cost[c] = 0.25 * static_cast<double>(rng.below(3));
        break;
      default:
        cost[c] = rng.chance(0.3) ? 0.0 : 1e-13 * rng.uniform();
        break;
    }
  }
  return cost;
}

double objective_of(CostMatrixView cost, const std::vector<std::size_t>& alloc,
                    DpObjective objective) {
  double v = cost(0, alloc[0]);
  for (std::size_t i = 1; i < alloc.size(); ++i)
    v = objective == DpObjective::kSumCost ? v + cost(i, alloc[i])
                                           : std::max(v, cost(i, alloc[i]));
  return v;
}

// Random per-program bounds of one kind: 0 lower bounds only, 1 Σlo = C
// exactly, 2 Σlo > C, 3 some lo > hi, 4 upper bounds below C (with lower
// bounds), 5 upper bounds only.
DpOptions random_bounds(Rng& rng, std::size_t p, std::size_t cap, int kind,
                        DpObjective objective) {
  DpOptions opt;
  opt.objective = objective;
  if (kind != 5) {
    opt.min_alloc.assign(p, 0);
    for (auto& lo : opt.min_alloc) lo = rng.below(cap / p + 2);
  }
  if (kind == 1 || kind == 2) {
    std::size_t sum = 0;
    for (std::size_t i = 0; i + 1 < p; ++i) {
      opt.min_alloc[i] = std::min(opt.min_alloc[i], cap - sum);
      sum += opt.min_alloc[i];
    }
    opt.min_alloc[p - 1] = cap - sum + (kind == 2 ? 1 + rng.below(3) : 0);
  }
  if (kind >= 3) {
    opt.max_alloc.assign(p, cap);
    for (auto& hi : opt.max_alloc) hi = rng.below(cap + 1);
  }
  if (kind == 3) {
    const std::size_t i = rng.below(p);
    opt.min_alloc[i] = opt.max_alloc[i] + 1 + rng.below(2);
  }
  return opt;
}

// Property: with random per-program bounds of every kind, the windowed DP
// agrees with the exhaustive oracle on feasibility and objective, and its
// allocation honours the bounds and sums to C. The bool parameter mixes
// row shapes within one matrix instead of using one shape for all rows.
TEST_P(DpOracleProperty, BoundedRowsOfEveryShapeMatchExhaustiveSearch) {
  auto [seed, mixed, objective] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
  for (int shape = 0; shape < 4; ++shape) {
    for (int kind = 0; kind < 6; ++kind) {
      const std::size_t p = 1 + rng.below(4);  // 1..4 programs
      const std::size_t cap = rng.below(25);   // 0..24 units
      CostMatrix cost(p, cap);
      for (std::size_t i = 0; i < p; ++i) {
        auto row = shaped_cost_curve(
            rng, cap, mixed ? static_cast<int>(rng.below(4)) : shape);
        std::copy(row.begin(), row.end(), cost.row(i));
      }
      DpOptions opt = random_bounds(rng, p, cap, kind, objective);
      SCOPED_TRACE(::testing::Message() << "shape " << shape << " kind "
                                        << kind << " P=" << p << " C=" << cap);
      DpResult dp = optimize_partition(cost.view(), cap, opt);
      DpResult brute = optimize_partition_exhaustive(cost.view(), cap, opt);
      ASSERT_EQ(dp.feasible, brute.feasible);
      if (kind == 2 || kind == 3) {
        EXPECT_FALSE(dp.feasible);
      }
      if (!dp.feasible) continue;
      EXPECT_NEAR(dp.objective_value, brute.objective_value, 1e-12);
      ASSERT_EQ(dp.alloc.size(), p);
      std::size_t total = 0;
      for (std::size_t i = 0; i < p; ++i) {
        if (!opt.min_alloc.empty()) {
          EXPECT_GE(dp.alloc[i], opt.min_alloc[i]);
        }
        if (!opt.max_alloc.empty()) {
          EXPECT_LE(dp.alloc[i], opt.max_alloc[i]);
        }
        total += dp.alloc[i];
      }
      EXPECT_EQ(total, cap);
      EXPECT_NEAR(objective_of(cost.view(), dp.alloc, objective),
                  dp.objective_value, 1e-12);
    }
  }
}

// Solves every lex-ordered group of 2..4 members of an 8-row table with
// one PrefixDpSolver, `passes` times per group, and expects every answer
// to equal a fresh optimize_partition on the gathered view. A solve's
// lower bounds start from prefix bounds that depend only on (member,
// position), so consecutive groups share cached layers, with 0 at the
// last position; edit(pass, cap, lo) changes them for that pass.
template <typename Edit>
void expect_prefix_solver_matches_fresh_solves(Rng& rng, int seed,
                                               bool mixed,
                                               DpObjective objective,
                                               int passes, Edit edit) {
  const std::size_t cap = 8 + rng.below(17);  // 8..24 units
  CostMatrix table(8, cap);
  for (std::size_t i = 0; i < 8; ++i) {
    auto row = shaped_cost_curve(
        rng, cap, mixed ? static_cast<int>(rng.below(4)) : seed % 4);
    std::copy(row.begin(), row.end(), table.row(i));
  }
  std::size_t prefix_lo[8][4];
  for (auto& per_member : prefix_lo)
    for (auto& lo : per_member) lo = rng.below(cap / 8 + 2);

  PrefixDpSolver solver;
  solver.configure(table.view(), cap, objective);
  std::vector<const double*> rows;
  DpResult cached;
  for (std::uint32_t k = 2; k <= 4; ++k) {
    for (const auto& members : all_subsets(8, k)) {
      for (int pass = 0; pass < passes; ++pass) {
        DpOptions opt;
        opt.objective = objective;
        for (std::size_t j = 0; j + 1 < k; ++j)
          opt.min_alloc.push_back(prefix_lo[members[j]][j]);
        opt.min_alloc.push_back(0);
        edit(pass, cap, opt.min_alloc);
        solver.solve(members.data(), k, opt.min_alloc.data(), cached);
        DpResult fresh = optimize_partition(
            table.gather(members.data(), k, rows), cap, opt);
        ASSERT_EQ(cached.feasible, fresh.feasible)
            << "group of " << k << " starting at " << members[0]
            << ", pass " << pass;
        EXPECT_EQ(cached.alloc, fresh.alloc);
        EXPECT_EQ(0, std::memcmp(&cached.objective_value,
                                 &fresh.objective_value, sizeof(double)));
      }
    }
  }
  EXPECT_GT(solver.stats().layers_reused, 0u);
}

// Property: the last position's bound changes from solve to solve. Each
// group is solved with a random last bound and then with none, so a layer
// cached under a tall suffix (a low top state) is offered to a solve that
// needs states above it.
TEST_P(DpOracleProperty, PrefixSolverMatchesFreshSolvesAsSuffixBoundsChange) {
  auto [seed, mixed, objective] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 3);
  expect_prefix_solver_matches_fresh_solves(
      rng, seed, mixed, objective, 2,
      [&rng](int pass, std::size_t cap, std::vector<std::size_t>& lo) {
        if (pass == 0) lo.back() = rng.below(cap + 2);
      });
}

// Property: a cached layer is reused only under the lower bound it was
// built with. Each group is solved with its prefix bounds, then with the
// bound at one cached position raised, then with its prefix bounds again.
// The members and every later bound stay the same, so the layer's top
// state still reaches the window: only the bound tells the layers apart.
TEST_P(DpOracleProperty, PrefixSolverMatchesFreshSolvesAsPrefixBoundsChange) {
  auto [seed, mixed, objective] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7507 + 11);
  std::size_t changed = 0;
  expect_prefix_solver_matches_fresh_solves(
      rng, seed, mixed, objective, 3,
      [&](int pass, std::size_t, std::vector<std::size_t>& lo) {
        if (pass == 0) changed = rng.below(lo.size() - 1);
        if (pass == 1) lo[changed] += 1 + rng.below(3);
      });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpOracleProperty,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Bool(),
                       ::testing::Values(DpObjective::kSumCost,
                                         DpObjective::kMaxCost)));

TEST(Dp, RespectsLowerAndUpperBounds) {
  Rng rng(5);
  CostMatrix cost = random_cost_matrix(rng, 3, 12, true);
  DpOptions opt;
  opt.min_alloc = {2, 0, 3};
  opt.max_alloc = {5, 4, 12};
  DpResult r = optimize_partition(cost.view(), 12, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.alloc[0], 2u);
  EXPECT_LE(r.alloc[0], 5u);
  EXPECT_LE(r.alloc[1], 4u);
  EXPECT_GE(r.alloc[2], 3u);
  DpResult brute = optimize_partition_exhaustive(cost.view(), 12, opt);
  EXPECT_NEAR(r.objective_value, brute.objective_value, 1e-12);
}

TEST(Dp, ReportsInfeasibleBounds) {
  CostMatrix cost = make_cost({{1.0, 0.5}, {1.0, 0.5}});
  DpOptions opt;
  opt.min_alloc = {1, 1};  // needs 2 units, capacity is 1
  DpResult r = optimize_partition(cost.view(), 1, opt);
  EXPECT_FALSE(r.feasible);
  opt.min_alloc = {2, 0};  // lower bound above capacity
  EXPECT_FALSE(optimize_partition(cost.view(), 1, opt).feasible);
}

TEST(Dp, ScratchReuseMatchesFreshSolves) {
  // A shared scratch across back-to-back solves of assorted shapes must
  // not change any result, and must stop growing once warm.
  Rng rng(17);
  DpScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    std::size_t p = 1 + rng.below(4);
    std::size_t cap = 4 + rng.below(12);
    CostMatrix cost = random_cost_matrix(rng, p, cap, true);
    DpResult fresh = optimize_partition(cost.view(), cap);
    DpResult reused = optimize_partition(cost.view(), cap, {}, scratch);
    ASSERT_EQ(fresh.feasible, reused.feasible);
    EXPECT_EQ(fresh.alloc, reused.alloc);
    EXPECT_EQ(fresh.objective_value, reused.objective_value);
  }
  std::uint64_t grown = scratch.grow_events;
  Rng rng2(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::size_t p = 1 + rng2.below(4);
    std::size_t cap = 4 + rng2.below(12);
    CostMatrix cost = random_cost_matrix(rng2, p, cap, true);
    optimize_partition(cost.view(), cap, {}, scratch);
  }
  EXPECT_EQ(scratch.grow_events, grown);  // warm arena: no reallocation
}

TEST(Dp, MaxObjectiveBalancesWorstCase) {
  // Sum objective starves program 0 (its curve is flat); max objective
  // must not.
  CostMatrix cost = make_cost({
      {0.5, 0.45, 0.4, 0.35, 0.3},
      {1.0, 0.1, 0.05, 0.01, 0.0},
  });
  DpOptions max_opt;
  max_opt.objective = DpObjective::kMaxCost;
  DpResult r = optimize_partition(cost.view(), 4, max_opt);
  ASSERT_TRUE(r.feasible);
  // Giving everything to program 1 leaves max = 0.5; optimum gives program
  // 0 most units: alloc {3,1} -> max(0.35, 0.1) = 0.35.
  EXPECT_NEAR(r.objective_value, 0.35, 1e-12);
}

TEST(Dp, WeightedCostMatrix) {
  MissRatioCurve a({1.0, 0.5, 0.25}, 100);
  MissRatioCurve b({1.0, 0.8, 0.6}, 100);
  CostMatrix cost = weighted_cost_matrix({&a, &b}, {2.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(cost(1, 2), 0.6);
  EXPECT_THROW(weighted_cost_matrix({&a}, {1.0, 2.0}, 2), CheckError);
}

TEST(Dp, RejectsShortCostCurves) {
  CostMatrix cost = make_cost({{1.0, 0.5}});
  EXPECT_THROW(optimize_partition(cost.view(), 5), CheckError);
}

TEST(Dp, RejectsNonFiniteCosts) {
  CostMatrix cost = make_cost({{1.0, 0.5, 0.2}, {1.0, 0.9, 0.1}});
  cost.row(1)[2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(optimize_partition(cost.view(), 2), CheckError);
  PrefixDpSolver solver;
  EXPECT_THROW(solver.configure(cost.view(), 2, DpObjective::kSumCost),
               CheckError);
  // The bad entry lies beyond capacity 1, so it is never read.
  EXPECT_NO_THROW(optimize_partition(cost.view(), 1));
}

TEST(Dp, GatheredViewMatchesContiguous) {
  // A gathered view over out-of-order rows of a bigger table must solve
  // exactly like a contiguous copy of those rows.
  Rng rng(71);
  CostMatrix table = random_cost_matrix(rng, 6, 10, true);
  std::vector<std::uint32_t> members = {4, 1, 5};
  std::vector<const double*> ptrs;
  CostMatrixView gathered = table.gather(members.data(), members.size(), ptrs);
  CostMatrix copied(members.size(), 10);
  for (std::size_t i = 0; i < members.size(); ++i)
    std::copy(table.row(members[i]), table.row(members[i]) + 11,
              copied.row(i));
  DpResult a = optimize_partition(gathered, 10);
  DpResult b = optimize_partition(copied.view(), 10);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.alloc, b.alloc);
  EXPECT_EQ(a.objective_value, b.objective_value);
}

// CostMatrix::from_rows is the migration path for nested-vector callers
// (the deprecated shims were removed as announced); pin its semantics.
TEST(Dp, FromRowsMatchesWeightedCostMatrix) {
  MissRatioCurve a({1.0, 0.5, 0.25}, 100);
  MissRatioCurve b({1.0, 0.8, 0.6}, 100);
  CostMatrix matrix = weighted_cost_matrix({&a, &b}, {2.0, 1.0}, 2);
  std::vector<std::vector<double>> nested(2);
  for (std::size_t i = 0; i < 2; ++i) {
    const MissRatioCurve& mrc = i == 0 ? a : b;
    double w = i == 0 ? 2.0 : 1.0;
    for (std::size_t c = 0; c <= 2; ++c)
      nested[i].push_back(w * mrc.ratio(c));
  }
  CostMatrix from_rows = CostMatrix::from_rows(nested, 2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t c = 0; c <= 2; ++c)
      EXPECT_EQ(from_rows(i, c), matrix(i, c));

  // Rows longer than capacity+1 are truncated, shorter ones rejected.
  EXPECT_NO_THROW(CostMatrix::from_rows({{1.0, 0.5, 0.2, 0.1}}, 2));
  EXPECT_THROW(CostMatrix::from_rows({{1.0, 0.5}}, 2), CheckError);
}

TEST(Sttw, EqualsDpOnConvexCurves) {
  // Strictly convex curves: the greedy is provably optimal — in both
  // variants (the hull of a convex curve is itself).
  auto convex = [](double scale, std::size_t cap) {
    std::vector<double> cost(cap + 1);
    for (std::size_t c = 0; c <= cap; ++c)
      cost[c] = scale / (1.0 + static_cast<double>(c));
    return cost;
  };
  for (std::size_t cap : {5u, 10u, 20u}) {
    CostMatrix cost = make_cost(
        {convex(1.0, cap), convex(2.0, cap), convex(0.5, cap)});
    DpResult dp = optimize_partition(cost.view(), cap);
    for (SttwVariant v :
         {SttwVariant::kLocalDerivative, SttwVariant::kConvexHull}) {
      SttwResult sttw = sttw_partition(cost.view(), cap, v);
      EXPECT_NEAR(sttw.objective_value, dp.objective_value, 1e-9)
          << "cap=" << cap;
    }
  }
}

TEST(Sttw, NeverBeatsDp) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t p = 2 + rng.below(3);
    std::size_t cap = 4 + rng.below(12);
    CostMatrix cost = random_cost_matrix(rng, p, cap, true);
    DpResult dp = optimize_partition(cost.view(), cap);
    for (SttwVariant v :
         {SttwVariant::kLocalDerivative, SttwVariant::kConvexHull}) {
      SttwResult sttw = sttw_partition(cost.view(), cap, v);
      EXPECT_GE(sttw.objective_value + 1e-12, dp.objective_value);
    }
  }
}

TEST(Sttw, LocalDerivativeIsBlindToCliffsBehindPlateaus) {
  // The faithful Stone et al. rule: program 1's plateau shows zero local
  // marginal, so the greedy starves it even though the cliff at 4 is the
  // single best investment. The hull variant sees the chord and fills it.
  CostMatrix cost = make_cost({
      {1.0, 0.95, 0.91, 0.88, 0.86},
      {1.0, 1.0, 1.0, 1.0, 0.0},
  });
  SttwResult classic =
      sttw_partition(cost.view(), 4, SttwVariant::kLocalDerivative);
  EXPECT_EQ(classic.alloc[1], 0u);  // cliff never discovered
  SttwResult hull = sttw_partition(cost.view(), 4, SttwVariant::kConvexHull);
  EXPECT_EQ(hull.alloc[1], 4u);  // hull chord slope 0.25 beats 0.05
  DpResult dp = optimize_partition(cost.view(), 4);
  EXPECT_NEAR(hull.objective_value, dp.objective_value, 1e-12);
  EXPECT_GT(classic.objective_value, dp.objective_value + 0.5);
}

TEST(Sttw, LosesOnCliffCurves) {
  // The paper's headline failure: a cliff the hull smooths away. Program 1
  // has a cliff at 4; program 0 has a gentle convex slope that the greedy
  // (looking at hulls) over-feeds.
  CostMatrix cost = make_cost({
      {1.0, 0.70, 0.45, 0.25, 0.10},
      {1.0, 1.0, 1.0, 1.0, 0.0},
  });
  DpResult dp = optimize_partition(cost.view(), 4);
  // DP grabs the cliff: alloc {0,4}, objective 1.0.
  EXPECT_NEAR(dp.objective_value, 1.0, 1e-12);
  // Both variants miss it here: the classic rule sees a zero marginal on
  // the plateau; the hull variant's chord (0.25/unit) ties program 0's
  // early marginals and the budget runs out mid-chord.
  for (SttwVariant v :
       {SttwVariant::kLocalDerivative, SttwVariant::kConvexHull}) {
    SttwResult sttw = sttw_partition(cost.view(), 4, v);
    EXPECT_GT(sttw.objective_value, dp.objective_value + 0.05);
  }
}

TEST(Sttw, AllocSumsToCapacity) {
  Rng rng(99);
  CostMatrix cost = random_cost_matrix(rng, 4, 16, true);
  SttwResult r = sttw_partition(cost.view(), 16);
  std::size_t total = 0;
  for (auto c : r.alloc) total += c;
  EXPECT_EQ(total, 16u);
}

TEST(Sttw, BelievedObjectiveLowerBoundsTrueObjective) {
  Rng rng(123);
  CostMatrix cost = random_cost_matrix(rng, 3, 10, true);
  SttwResult hull = sttw_partition(cost.view(), 10, SttwVariant::kConvexHull);
  EXPECT_LE(hull.believed_objective_value, hull.objective_value + 1e-12);
  // The classic rule believes the raw curve, so belief == truth.
  SttwResult classic =
      sttw_partition(cost.view(), 10, SttwVariant::kLocalDerivative);
  EXPECT_NEAR(classic.believed_objective_value, classic.objective_value,
              1e-12);
}

}  // namespace
}  // namespace ocps
