#include "potential/cubic_spline.hpp"

#include "common/error.hpp"

namespace sdcmd {

CubicSpline::CubicSpline(double x0, double dx, std::vector<double> values)
    : x0_(x0), dx_(dx), n_(values.size()) {
  build(values, /*clamped=*/false, 0.0, 0.0);
}

CubicSpline::CubicSpline(double x0, double dx, std::vector<double> values,
                         double slope_begin, double slope_end)
    : x0_(x0), dx_(dx), n_(values.size()) {
  build(values, /*clamped=*/true, slope_begin, slope_end);
}

void CubicSpline::build(const std::vector<double>& y, bool clamped,
                        double slope_begin, double slope_end) {
  SDCMD_REQUIRE(n_ >= 2, "spline needs at least two samples");
  SDCMD_REQUIRE(dx_ > 0.0, "grid spacing must be positive");

  // Solve the tridiagonal system for the second derivatives m_i.
  const std::size_t n = n_;
  std::vector<double> m(n, 0.0);
  std::vector<double> diag(n, 0.0), rhs(n, 0.0), upper(n, 0.0);

  if (clamped) {
    diag[0] = 2.0 * dx_;
    upper[0] = dx_;
    rhs[0] = 6.0 * ((y[1] - y[0]) / dx_ - slope_begin);
    diag[n - 1] = 2.0 * dx_;
    rhs[n - 1] = 6.0 * (slope_end - (y[n - 1] - y[n - 2]) / dx_);
  } else {
    diag[0] = 1.0;
    upper[0] = 0.0;
    rhs[0] = 0.0;
    diag[n - 1] = 1.0;
    rhs[n - 1] = 0.0;
  }
  for (std::size_t i = 1; i + 1 < n; ++i) {
    diag[i] = 4.0 * dx_;
    upper[i] = dx_;
    rhs[i] = 6.0 * ((y[i + 1] - 2.0 * y[i] + y[i - 1]) / dx_);
  }

  // Thomas algorithm. The sub-diagonal mirrors `upper` except at the edges,
  // where natural boundaries have a zero coupling and clamped ones dx.
  std::vector<double> lower(n, dx_);
  lower[n - 1] = clamped ? dx_ : 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const double w = lower[i] / diag[i - 1];
    diag[i] -= w * upper[i - 1];
    rhs[i] -= w * rhs[i - 1];
  }
  m[n - 1] = rhs[n - 1] / diag[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    m[i] = (rhs[i] - upper[i] * m[i + 1]) / diag[i];
  }

  // Segment-local cubic coefficients.
  const std::size_t segs = n - 1;
  a_.resize(segs);
  b_.resize(segs);
  c_.resize(segs);
  d_.resize(segs);
  for (std::size_t i = 0; i < segs; ++i) {
    a_[i] = y[i];
    b_[i] = (y[i + 1] - y[i]) / dx_ - dx_ * (2.0 * m[i] + m[i + 1]) / 6.0;
    c_[i] = m[i] / 2.0;
    d_[i] = (m[i + 1] - m[i]) / (6.0 * dx_);
  }
}

double CubicSpline::value(double x) const {
  double t;
  const std::size_t i = segment(x, t);
  return a_[i] + t * (b_[i] + t * (c_[i] + t * d_[i]));
}

double CubicSpline::derivative(double x) const {
  double t;
  const std::size_t i = segment(x, t);
  return b_[i] + t * (2.0 * c_[i] + 3.0 * t * d_[i]);
}

}  // namespace sdcmd
