// Piecewise-linear curves over a real domain.
//
// The footprint function fp(w), its inverse the fill time ft(c), and the
// miss-ratio curve mr(c) are all represented as sampled curves that are
// evaluated by linear interpolation. Knots must be strictly increasing in x.
// For monotone curves the inverse can be evaluated as well; this is how the
// HOTL conversion fp → mr locates the window length w with fp(w) = c.
#pragma once

#include <cstddef>
#include <vector>

namespace ocps {

/// Immutable piecewise-linear curve defined by (x, y) knots with strictly
/// increasing x. Evaluation clamps outside the knot range (constant
/// extrapolation), which matches the saturating behaviour of footprints
/// (fp(w) = m for w past the trace) and miss ratios (mr = cold ratio past
/// the total data size).
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;

  /// Builds from parallel knot vectors. Requires xs strictly increasing and
  /// xs.size() == ys.size() >= 1.
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  /// Builds from y sampled at x = 0, 1, 2, ..., ys.size()-1.
  static PiecewiseLinear from_dense(std::vector<double> ys);

  /// Linear interpolation at x, clamped to the knot range.
  double operator()(double x) const;

  /// For a non-decreasing curve: the smallest x with value(x) >= y
  /// (linearly interpolated). Clamps to the knot range. Requires the curve
  /// to be non-decreasing (checked on first use in debug paths).
  double inverse(double y) const;

  bool empty() const { return xs_.empty(); }
  std::size_t size() const { return xs_.size(); }
  double x_min() const;
  double x_max() const;
  double y_front() const;
  double y_back() const;
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

  /// True iff ys is non-decreasing (within tolerance eps).
  bool is_non_decreasing(double eps = 0.0) const;

  /// Downsamples to at most max_knots knots, always keeping the endpoints.
  /// Used to mimic the paper's compact per-program footprint files.
  PiecewiseLinear downsample(std::size_t max_knots) const;

  /// Douglas-Peucker simplification: drops knots whose removal changes the
  /// interpolated value by at most epsilon anywhere. Preserves cliffs that
  /// uniform downsampling would smear, so footprint files keep the
  /// non-convex structure their MRCs depend on.
  PiecewiseLinear simplify(double epsilon) const;

  /// simplify() with epsilon doubled until the result fits max_knots.
  PiecewiseLinear simplify_to(double epsilon, std::size_t max_knots) const;

  /// from_dense(ys).simplify_to(epsilon, max_knots), knot for knot, read
  /// straight from ys without building the dense knot vectors.
  static PiecewiseLinear simplify_dense_to(const std::vector<double>& ys,
                                           double epsilon,
                                           std::size_t max_knots);

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace ocps
