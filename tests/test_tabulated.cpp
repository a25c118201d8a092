#include "potential/tabulated.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/johnson.hpp"

namespace sdcmd {
namespace {

TEST(TabulatedEam, FromAnalyticPreservesCutoff) {
  FinnisSinclair fe(FinnisSinclairParams::iron());
  const auto tab = TabulatedEam::from_analytic(fe, 2000, 2000, 60.0);
  EXPECT_DOUBLE_EQ(tab.cutoff(), fe.cutoff());
}

TEST(TabulatedEam, MatchesAnalyticFinnisSinclair) {
  FinnisSinclair fe(FinnisSinclairParams::iron());
  const auto tab = TabulatedEam::from_analytic(fe, 4000, 4000, 60.0);
  for (double r = 1.8; r < fe.cutoff(); r += 0.013) {
    double va, da, vt, dt;
    fe.pair(r, va, da);
    tab.pair(r, vt, dt);
    EXPECT_NEAR(vt, va, 1e-8) << "pair at r=" << r;
    EXPECT_NEAR(dt, da, 1e-5) << "pair' at r=" << r;
    fe.density(r, va, da);
    tab.density(r, vt, dt);
    EXPECT_NEAR(vt, va, 1e-8) << "density at r=" << r;
  }
  for (double rho = 1.0; rho < 55.0; rho += 0.7) {
    double fa, da, ft, dt;
    fe.embed(rho, fa, da);
    tab.embed(rho, ft, dt);
    EXPECT_NEAR(ft, fa, 1e-7) << "embed at rho=" << rho;
    EXPECT_NEAR(dt, da, 1e-5) << "embed' at rho=" << rho;
  }
}

TEST(TabulatedEam, MatchesAnalyticJohnson) {
  JohnsonEam cu(JohnsonParams::copper());
  const auto tab = TabulatedEam::from_analytic(cu, 4000, 4000, 40.0);
  for (double r = 2.0; r < cu.cutoff(); r += 0.017) {
    double va, da, vt, dt;
    cu.pair(r, va, da);
    tab.pair(r, vt, dt);
    EXPECT_NEAR(vt, va, 1e-7) << "pair at r=" << r;
  }
}

TEST(TabulatedEam, BeyondCutoffIsZero) {
  FinnisSinclair fe(FinnisSinclairParams::iron());
  const auto tab = TabulatedEam::from_analytic(fe, 500, 500, 60.0);
  double v, d;
  tab.pair(fe.cutoff() + 0.5, v, d);
  EXPECT_EQ(v, 0.0);
  EXPECT_EQ(d, 0.0);
  tab.density(fe.cutoff() + 0.5, v, d);
  EXPECT_EQ(v, 0.0);
}

TEST(TabulatedEam, NameCarriesProvenance) {
  FinnisSinclair fe(FinnisSinclairParams::iron());
  const auto tab = TabulatedEam::from_analytic(fe, 100, 100, 60.0);
  EXPECT_EQ(tab.name(), "tabulated-finnis-sinclair-fe");
}

TEST(TabulatedEam, ValidatesTables) {
  EamTables t;
  t.dr = 0.0;
  t.drho = 0.1;
  t.cutoff = 3.0;
  t.pair = {0.0, 1.0};
  t.density = {0.0, 1.0};
  t.embed = {0.0, 1.0};
  EXPECT_THROW(TabulatedEam{t}, PreconditionError);
  t.dr = 0.1;
  t.embed = {0.0};
  EXPECT_THROW(TabulatedEam{t}, PreconditionError);
}

TEST(TabulatedEam, FromAnalyticRejectsDegenerateGrids) {
  FinnisSinclair fe(FinnisSinclairParams::iron());
  EXPECT_THROW(TabulatedEam::from_analytic(fe, 1, 100, 60.0),
               PreconditionError);
  EXPECT_THROW(TabulatedEam::from_analytic(fe, 100, 100, -1.0),
               PreconditionError);
}

TEST(TabulatedEam, SplineTablesMatchVirtualDispatch) {
  // The force rows evaluate TabulatedEam through its inline bodies, which
  // are CubicSpline::evaluate below the cutoff; calls through the
  // EamPotential interface must give the same values and slopes
  // everywhere the rows look - across the radial range (including knots
  // and the cutoff) and the density range.
  const FinnisSinclair fe(FinnisSinclairParams::iron());
  const TabulatedEam tab = TabulatedEam::from_analytic(fe, 2000, 2000, 60.0);
  const EamPotential& virtual_tab = tab;
  const EamTables& t = tab.tables();
  const CubicSpline pair(0.0, t.dr, t.pair);
  const CubicSpline density(0.0, t.dr, t.density);
  const CubicSpline embed(0.0, t.drho, t.embed);
  auto expect_same = [](const CubicSpline& spline, double x, double v_virtual,
                        double d_virtual) {
    double v, d;
    spline.evaluate(x, v, d);
    EXPECT_NEAR(v, v_virtual, 1e-12 * std::max(1.0, std::abs(v_virtual)))
        << "value at " << x;
    EXPECT_NEAR(d, d_virtual, 1e-12 * std::max(1.0, std::abs(d_virtual)))
        << "slope at " << x;
  };
  for (double r = 1.5; r < tab.cutoff(); r += 0.00731) {
    double v, d;
    virtual_tab.pair(r, v, d);
    expect_same(pair, r, v, d);
    virtual_tab.density(r, v, d);
    expect_same(density, r, v, d);
  }
  for (double rho = 0.0; rho < 60.0; rho += 0.0917) {
    double f, d;
    virtual_tab.embed(rho, f, d);
    expect_same(embed, rho, f, d);
  }
}

}  // namespace
}  // namespace sdcmd
