// The evaluation engine behind §VII: for every co-run group, model all six
// cache-sharing solutions the paper compares —
//
//   Equal            2MB-each partitioning (socialist),
//   Natural          free-for-all sharing == natural partition (capitalist),
//   Equal baseline   group-optimal, no one worse than Equal,
//   Natural baseline group-optimal, no one worse than Natural,
//   Optimal          unconstrained DP optimum,
//   STTW             classic convex greedy,
//
// and summarize improvements in Table I's format. Groups are independent,
// so the sweep parallelizes across groups on the persistent thread pool;
// within each thread, a PrefixDpSolver (core/batch_engine.hpp) shares DP
// layers between groups with a common member prefix. sweep_groups is the
// one evaluation path: a single group is a sweep over one group.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/composition.hpp"
#include "core/cost_matrix.hpp"
#include "util/check.hpp"

namespace ocps {

/// The six solutions compared in §VII-A.
enum class Method : std::size_t {
  kEqual = 0,
  kNatural = 1,
  kEqualBaseline = 2,
  kNaturalBaseline = 3,
  kOptimal = 4,
  kSttw = 5,
};
inline constexpr std::size_t kNumMethods = 6;
const char* method_name(Method m);

/// Outcome of one method on one group.
struct MethodOutcome {
  std::vector<double> alloc;           ///< units per member (occupancies
                                       ///  for Natural; partitions otherwise)
  std::vector<double> per_program_mr;  ///< solo-MRC miss ratio per member
  double group_mr = 0.0;               ///< access-weighted group miss ratio
};

/// All six methods on one group.
struct GroupEvaluation {
  std::vector<std::uint32_t> members;  ///< indices into the program table
  std::array<MethodOutcome, kNumMethods> methods;

  const MethodOutcome& of(Method m) const {
    return methods[static_cast<std::size_t>(m)];
  }
};

/// Sweep knobs.
///
/// Thread-count precedence: `threads` > 0 pins the sweep to exactly that
/// many threads (1 = serial); `threads` == 0 defers to the environment —
/// OCPS_THREADS if set, hardware concurrency otherwise. Either way the
/// width is capped by the persistent pool's size, which is fixed from the
/// environment when the first parallel loop runs.
struct SweepOptions {
  std::size_t capacity = 1024;  ///< shared cache size in units
  std::size_t threads = 0;      ///< sweep width; 0 = auto (see above)

  /// Cooperative deadline. When set (anything other than the default
  /// time_point::max()), sweep_groups checks the clock before each group
  /// and throws SweepDeadlineExceeded once the deadline has passed. The
  /// check is per group, not per DP cell, so overshoot is bounded by one
  /// group evaluation per worker. Callers that need partial results must
  /// split the sweep themselves; a deadline abandons the whole call.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Thrown by sweep_groups when SweepOptions::deadline passes mid-sweep.
/// Derives from CheckError so existing catch sites keep working; callers
/// that care (the serve daemon's 504 path) catch this type first.
class SweepDeadlineExceeded : public CheckError {
 public:
  explicit SweepDeadlineExceeded(const std::string& what) : CheckError(what) {}
};

/// Rate-weighted miss-count cost curves for all programs, flat storage.
CostMatrix precompute_unit_cost_matrix(
    const std::vector<ProgramModel>& programs, std::size_t capacity);

/// Evaluates every method on every listed group: parallel across groups,
/// prefix-shared DP within each thread. Results do not depend on the
/// thread count or the kernel (enumerate groups in lexicographic member
/// order for the best layer reuse).
std::vector<GroupEvaluation> sweep_groups(
    const std::vector<ProgramModel>& programs,
    const std::vector<std::vector<std::uint32_t>>& groups,
    const SweepOptions& options);

/// Table I row: improvement of Optimal over `baseline` across groups.
/// Improvement per group = (mr_baseline - mr_optimal) / mr_optimal.
struct ImprovementStats {
  double max = 0.0;
  double avg = 0.0;
  double median = 0.0;
  double frac_ge_10 = 0.0;  ///< fraction of groups improved >= 10%
  double frac_ge_20 = 0.0;  ///< fraction of groups improved >= 20%
};
ImprovementStats improvement_over(const std::vector<GroupEvaluation>& sweep,
                                  Method baseline);

}  // namespace ocps
