// Cubic spline interpolation on a uniform grid.
//
// Tabulated EAM potentials (setfl files) are evaluated through these
// splines; value and first derivative come from a single segment lookup.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace sdcmd {

class CubicSpline {
 public:
  /// Interpolate `values` sampled at x = x0 + i*dx for i in [0, n).
  /// `n >= 2`. Natural boundary conditions (zero second derivative) by
  /// default; pass explicit end slopes for clamped boundaries.
  CubicSpline(double x0, double dx, std::vector<double> values);
  CubicSpline(double x0, double dx, std::vector<double> values,
              double slope_begin, double slope_end);

  /// Value at x. Out-of-range x clamps to the nearest grid end segment
  /// (linear extrapolation via that segment's polynomial).
  double value(double x) const;

  /// First derivative at x.
  double derivative(double x) const;

  /// Value and derivative in one lookup. Defined here, and always
  /// inlined, so the EAM force rows evaluate TabulatedEam without a call
  /// (see TabulatedEam).
  [[gnu::always_inline]] void evaluate(double x, double& value,
                                       double& derivative) const {
    double t;
    const std::size_t i = segment(x, t);
    value = a_[i] + t * (b_[i] + t * (c_[i] + t * d_[i]));
    derivative = b_[i] + t * (2.0 * c_[i] + 3.0 * t * d_[i]);
  }

  double x_begin() const { return x0_; }
  double x_end() const { return x0_ + dx_ * static_cast<double>(n_ - 1); }
  double dx() const { return dx_; }
  std::size_t size() const { return n_; }

 private:
  void build(const std::vector<double>& values, bool clamped,
             double slope_begin, double slope_end);

  /// Segment holding x (clamped to the table) and x's offset into it.
  [[gnu::always_inline]] std::size_t segment(double x, double& t) const {
    const double rel = (x - x0_) / dx_;
    auto idx = static_cast<long>(std::floor(rel));
    idx = std::clamp(idx, 0L, static_cast<long>(n_) - 2);
    t = x - (x0_ + dx_ * static_cast<double>(idx));
    return static_cast<std::size_t>(idx);
  }

  double x0_;
  double dx_;
  std::size_t n_;
  // Per-segment cubic coefficients: y = a + b t + c t^2 + d t^3 with
  // t = x - x_i (segment-local).
  std::vector<double> a_, b_, c_, d_;
};

}  // namespace sdcmd
