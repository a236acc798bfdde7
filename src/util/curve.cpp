#include "util/curve.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace ocps {

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs,
                                 std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  OCPS_CHECK(xs_.size() == ys_.size(), "knot vectors must be parallel");
  OCPS_CHECK(!xs_.empty(), "curve needs at least one knot");
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    OCPS_CHECK(xs_[i] > xs_[i - 1],
               "knot x must be strictly increasing at index " << i);
  }
}

PiecewiseLinear PiecewiseLinear::from_dense(std::vector<double> ys) {
  std::vector<double> xs(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  return PiecewiseLinear(std::move(xs), std::move(ys));
}

double PiecewiseLinear::operator()(double x) const {
  OCPS_CHECK(!xs_.empty(), "evaluating an empty curve");
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  // First knot strictly greater than x.
  auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  std::size_t hi = static_cast<std::size_t>(it - xs_.begin());
  std::size_t lo = hi - 1;
  double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

double PiecewiseLinear::inverse(double y) const {
  OCPS_CHECK(!xs_.empty(), "inverting an empty curve");
  if (y <= ys_.front()) return xs_.front();
  if (y >= ys_.back()) return xs_.back();
  // Binary search over knots for the first knot with ys_ >= y. The curve is
  // non-decreasing by contract so std::lower_bound on ys_ is valid.
  auto it = std::lower_bound(ys_.begin(), ys_.end(), y);
  std::size_t hi = static_cast<std::size_t>(it - ys_.begin());
  OCPS_CHECK(hi > 0 && hi < ys_.size(), "inverse: search out of range");
  std::size_t lo = hi - 1;
  double dy = ys_[hi] - ys_[lo];
  if (dy <= 0) return xs_[hi];  // flat segment: smallest x attaining y
  double t = (y - ys_[lo]) / dy;
  return xs_[lo] + t * (xs_[hi] - xs_[lo]);
}

double PiecewiseLinear::x_min() const {
  OCPS_CHECK(!xs_.empty(), "empty curve");
  return xs_.front();
}

double PiecewiseLinear::x_max() const {
  OCPS_CHECK(!xs_.empty(), "empty curve");
  return xs_.back();
}

double PiecewiseLinear::y_front() const {
  OCPS_CHECK(!ys_.empty(), "empty curve");
  return ys_.front();
}

double PiecewiseLinear::y_back() const {
  OCPS_CHECK(!ys_.empty(), "empty curve");
  return ys_.back();
}

bool PiecewiseLinear::is_non_decreasing(double eps) const {
  for (std::size_t i = 1; i < ys_.size(); ++i) {
    if (ys_[i] + eps < ys_[i - 1]) return false;
  }
  return true;
}

namespace {

// Iterative Douglas-Peucker over the knots (x(i), ys[i]) with vertical
// deviation (x is monotone, so vertical distance to the chord is the
// interpolation error bound). Which knots survive depends only on each
// segment, not on the visiting order, so segments are visited left first
// and the kept knots come out in ascending order with no per-knot marks.
template <class XAt>
PiecewiseLinear douglas_peucker(XAt x, const std::vector<double>& ys,
                                double epsilon) {
  OCPS_CHECK(epsilon >= 0.0, "negative simplify tolerance");
  const std::size_t n = ys.size();
  if (n == 0) return PiecewiseLinear();
  std::vector<double> out_x{x(0)}, out_y{ys[0]};
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  if (n > 1) stack.push_back({0, n - 1});
  while (!stack.empty()) {
    auto [lo, hi] = stack.back();
    stack.pop_back();
    std::size_t worst_i = 0;
    if (hi > lo + 1) {
      double x0 = x(lo), y0 = ys[lo];
      double slope = (ys[hi] - y0) / (x(hi) - x0);
      double worst = epsilon;
      for (std::size_t i = lo + 1; i < hi; ++i) {
        double d = std::abs(ys[i] - (y0 + slope * (x(i) - x0)));
        if (d > worst) {
          worst = d;
          worst_i = i;
        }
      }
    }
    if (worst_i != 0) {
      stack.push_back({worst_i, hi});
      stack.push_back({lo, worst_i});
    } else {
      out_x.push_back(x(hi));
      out_y.push_back(ys[hi]);
    }
  }
  return PiecewiseLinear(std::move(out_x), std::move(out_y));
}

// douglas_peucker() with epsilon doubled until the result fits max_knots.
template <class XAt>
PiecewiseLinear douglas_peucker_to(XAt x, const std::vector<double>& ys,
                                   double epsilon, std::size_t max_knots) {
  OCPS_CHECK(max_knots >= 2, "need at least two knots");
  PiecewiseLinear out = douglas_peucker(x, ys, epsilon);
  while (out.size() > max_knots) {
    epsilon = std::max(epsilon * 2.0, 1e-9);
    out = douglas_peucker(x, ys, epsilon);
  }
  return out;
}

}  // namespace

PiecewiseLinear PiecewiseLinear::simplify(double epsilon) const {
  return douglas_peucker([this](std::size_t i) { return xs_[i]; }, ys_,
                         epsilon);
}

PiecewiseLinear PiecewiseLinear::simplify_to(double epsilon,
                                             std::size_t max_knots) const {
  return douglas_peucker_to([this](std::size_t i) { return xs_[i]; }, ys_,
                            epsilon, max_knots);
}

PiecewiseLinear PiecewiseLinear::simplify_dense_to(
    const std::vector<double>& ys, double epsilon, std::size_t max_knots) {
  return douglas_peucker_to(
      [](std::size_t i) { return static_cast<double>(i); }, ys, epsilon,
      max_knots);
}

PiecewiseLinear PiecewiseLinear::downsample(std::size_t max_knots) const {
  OCPS_CHECK(max_knots >= 2, "downsample needs at least 2 knots");
  if (xs_.size() <= max_knots) return *this;
  std::vector<double> xs, ys;
  xs.reserve(max_knots);
  ys.reserve(max_knots);
  const std::size_t n = xs_.size();
  for (std::size_t k = 0; k < max_knots; ++k) {
    // Even index spacing; endpoints exact.
    std::size_t i = (k * (n - 1)) / (max_knots - 1);
    if (!xs.empty() && xs_[i] <= xs.back()) continue;
    xs.push_back(xs_[i]);
    ys.push_back(ys_[i]);
  }
  return PiecewiseLinear(std::move(xs), std::move(ys));
}

}  // namespace ocps
