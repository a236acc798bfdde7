// Average footprint fp(w) (§III of the paper; Xiang et al. PACT'11 /
// ASPLOS'13 linear-time algorithm).
//
// fp(w) is the average number of distinct blocks in a window of w
// consecutive accesses (Eq. 5). The linear-time formula counts, for every
// datum k, the windows of length w that contain no access to k: those lie
// entirely inside the leading gap (length f_k - 1), an inter-access gap
// (length rt - 2 for a reuse pair with reuse time rt), or the trailing gap
// (length n - l_k). Hence
//
//   fp(w) = m - 1/(n-w+1) * [ Σ_{rt >= w+2} (rt-1-w) freq(rt)
//                             + Σ_k max(0, f_k - w)
//                             + Σ_k max(0, n - l_k + 1 - w) ],
//
// evaluated for all w in O(n) by one descending pass over w that keeps six
// running sums (count and position-weighted count of each of the three
// terms), then one forward pass that enforces monotonicity. No n-sized
// array besides fp itself is needed. The brute-force definition (averaging
// WSS(i, w) over all windows) is provided as a test oracle.
#pragma once

#include <vector>

#include "locality/reuse_time.hpp"
#include "trace/trace.hpp"
#include "util/curve.hpp"

namespace ocps {

/// Dense average-footprint function: value at index w is fp(w), for
/// w = 0..trace_length, with fp(0) = 0 and fp(n) = m.
struct FootprintCurve {
  std::vector<double> fp;          ///< fp[w], w = 0..n
  std::uint64_t trace_length = 0;  ///< n
  std::uint64_t distinct = 0;      ///< m

  double operator()(double w) const;  ///< linear interpolation, clamped

  /// Smallest (real) window length with fp(w) >= target. fp is
  /// non-decreasing, so this is the fill-time inverse used by HOTL.
  double inverse(double target) const;

  /// Compact piecewise-linear form (for footprint files / composition):
  /// every point when max_knots is 0 or fp already fits, otherwise the
  /// Douglas-Peucker knots of PiecewiseLinear::simplify_to(0.005,
  /// max_knots), computed over fp in place.
  PiecewiseLinear to_curve(std::size_t max_knots = 0) const;
};

/// Linear-time footprint from a reuse profile. Throws CheckError when the
/// profile is malformed: freq not n + 2 long, position lists not m long,
/// or positions not strictly ascending within [1, n].
FootprintCurve footprint_from_profile(const ReuseProfile& profile);

/// Convenience: profile + footprint in one call.
FootprintCurve compute_footprint(const Trace& trace);

/// O(n * w_max) definitional footprint (sliding-window distinct counting);
/// test oracle only.
std::vector<double> footprint_brute_force(const Trace& trace,
                                          std::size_t w_max);

}  // namespace ocps
