#include "locality/footprint.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/check.hpp"

namespace ocps {

double FootprintCurve::operator()(double w) const {
  OCPS_CHECK(!fp.empty(), "empty footprint");
  if (w <= 0.0) return 0.0;
  double n = static_cast<double>(fp.size() - 1);
  if (w >= n) return fp.back();
  std::size_t lo = static_cast<std::size_t>(w);
  double t = w - static_cast<double>(lo);
  return fp[lo] + t * (fp[lo + 1] - fp[lo]);
}

double FootprintCurve::inverse(double target) const {
  OCPS_CHECK(!fp.empty(), "empty footprint");
  if (target <= fp.front()) return 0.0;
  if (target >= fp.back()) return static_cast<double>(fp.size() - 1);
  // fp is non-decreasing; binary search for the first index with
  // fp[i] >= target, then interpolate inside the preceding segment.
  auto it = std::lower_bound(fp.begin(), fp.end(), target);
  std::size_t hi = static_cast<std::size_t>(it - fp.begin());
  OCPS_CHECK(hi > 0, "inverse landed at origin unexpectedly");
  std::size_t lo = hi - 1;
  double dy = fp[hi] - fp[lo];
  if (dy <= 0.0) return static_cast<double>(hi);
  double t = (target - fp[lo]) / dy;
  return static_cast<double>(lo) + t;
}

PiecewiseLinear FootprintCurve::to_curve(std::size_t max_knots) const {
  if (max_knots == 0 || fp.size() <= max_knots)
    return PiecewiseLinear::from_dense(fp);
  // Error-bounded simplification keeps footprint cliffs (phase boundaries)
  // that uniform decimation would smear into the wrong MRC.
  return PiecewiseLinear::simplify_dense_to(fp, 0.005, max_knots);
}

namespace {

// Positions must be strictly ascending within [1, n]: each access position
// holds one datum's first (or last) access at most.
void check_positions(const std::vector<std::uint64_t>& pos, std::uint64_t n,
                     const char* what) {
  for (std::size_t i = 0; i < pos.size(); ++i) {
    OCPS_CHECK(pos[i] >= 1 && pos[i] <= n, "position " << pos[i] << " in "
                                                      << what
                                                      << " is outside [1, "
                                                      << n << "]");
    OCPS_CHECK(i == 0 || pos[i] > pos[i - 1],
               "positions in " << what
                               << " not strictly ascending at index " << i);
  }
}

}  // namespace

FootprintCurve footprint_from_profile(const ReuseProfile& p) {
  const std::uint64_t n = p.trace_length;
  OCPS_CHECK(p.freq.size() >= 2 && p.freq.size() - 2 == n,
             "reuse histogram has " << p.freq.size()
                                    << " entries, want n + 2 for n = " << n);
  OCPS_CHECK(p.first_pos.size() == p.distinct &&
                 p.last_pos.size() == p.distinct,
             "position lists must hold one entry per datum (m = "
                 << p.distinct << ")");
  check_positions(p.first_pos, n, "first_pos");
  check_positions(p.last_pos, n, "last_pos");

  FootprintCurve out;
  out.trace_length = n;
  out.distinct = p.distinct;
  out.fp.assign(n + 1, 0.0);
  if (n == 0) return out;

  const double m = static_cast<double>(p.distinct);

  // One pass over w = n..1 extends six running sums by the terms that
  // enter at w, so that
  //   A(w) = Σ_{rt >= w+2} (rt - 1 - w) freq(rt) = U - (w + 1) * T
  // with T = Σ_{rt >= w+2} freq, U = Σ_{rt >= w+2} rt * freq, and the
  // first/last boundary terms use the same trick over f_k and
  // h_k = n - l_k + 1 with x >= w + 1. Each sum adds its nonzero terms in
  // descending order of x, exactly as a suffix-sum array would.
  double T = 0.0, U = 0.0, F = 0.0, FX = 0.0, L = 0.0, LX = 0.0;
  std::size_t next_first = p.first_pos.size();  // scans first_pos downward
  std::size_t next_last = 0;                    // scans last_pos upward
  for (std::uint64_t w = n; w >= 1; --w) {
    if (w < n && p.freq[w + 2] != 0) {
      const double f = static_cast<double>(p.freq[w + 2]);
      T += f;
      U += f * static_cast<double>(w + 2);
    }
    if (next_first > 0 && p.first_pos[next_first - 1] == w + 1) {
      --next_first;
      F += 1.0;
      FX += static_cast<double>(w + 1);
    }
    if (next_last < p.last_pos.size() && p.last_pos[next_last] == n - w) {
      ++next_last;
      L += 1.0;
      LX += static_cast<double>(w + 1);
    }
    double A = U - static_cast<double>(w + 1) * T;
    // Σ_k max(0, f_k - w) = FX - w * F; same for trailing.
    double B = FX - static_cast<double>(w) * F;
    double Cc = LX - static_cast<double>(w) * L;
    double denom = static_cast<double>(n - w + 1);
    // Numerical safety: fp must stay within [0, m] and non-decreasing.
    out.fp[w] = std::clamp(m - (A + B + Cc) / denom, 0.0, m);
  }
  for (std::uint64_t w = 1; w <= n; ++w)
    out.fp[w] = std::max(out.fp[w], out.fp[w - 1]);
  return out;
}

FootprintCurve compute_footprint(const Trace& trace) {
  return footprint_from_profile(profile_reuse(trace));
}

std::vector<double> footprint_brute_force(const Trace& trace,
                                          std::size_t w_max) {
  const std::size_t n = trace.length();
  OCPS_CHECK(w_max <= n, "window longer than trace");
  std::vector<double> fp(w_max + 1, 0.0);
  for (std::size_t w = 1; w <= w_max; ++w) {
    // Sliding window with occurrence counts: O(n) per window length.
    std::unordered_map<Block, std::size_t> count;
    std::size_t distinct = 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (count[trace.accesses[i]]++ == 0) ++distinct;
      if (i + 1 >= w) {
        sum += static_cast<double>(distinct);
        Block out_block = trace.accesses[i + 1 - w];
        if (--count[out_block] == 0) {
          --distinct;
          count.erase(out_block);
        }
      }
    }
    fp[w] = sum / static_cast<double>(n - w + 1);
  }
  return fp;
}

}  // namespace ocps
