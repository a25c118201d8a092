// Defect generators.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "geom/defects.hpp"
#include "geom/lattice.hpp"

namespace sdcmd {
namespace {

struct Crystal {
  Box box = Box::cubic(1.0);
  std::vector<Vec3> positions;

  explicit Crystal(int cells, double jitter = 0.05) {
    LatticeSpec spec;
    spec.type = LatticeType::Bcc;
    spec.a0 = units::kLatticeFe;
    spec.nx = spec.ny = spec.nz = cells;
    box = spec.box();
    positions = build_lattice(spec);
    Xoshiro256 rng(9);
    for (auto& r : positions) {
      r += Vec3{rng.normal(0.0, jitter), rng.normal(0.0, jitter),
                rng.normal(0.0, jitter)};
      r = box.wrap(r);
    }
  }
};

TEST(Defects, VacanciesRemoveTheRightCount) {
  Crystal c(4, 0.0);
  const std::size_t before = c.positions.size();
  const auto removed = make_vacancies(c.positions, 7, 42);
  EXPECT_EQ(c.positions.size(), before - 7);
  EXPECT_EQ(removed.size(), 7u);
}

TEST(Defects, VacanciesAreDeterministic) {
  Crystal a(4, 0.0), b(4, 0.0);
  make_vacancies(a.positions, 5, 1);
  make_vacancies(b.positions, 5, 1);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
  }
}

TEST(Defects, VacancyCountValidation) {
  std::vector<Vec3> tiny{{0, 0, 0}};
  EXPECT_THROW(make_vacancies(tiny, 2, 1), PreconditionError);
}

TEST(Defects, InterstitialsLandNearHosts) {
  Crystal c(4, 0.0);
  const std::size_t before = c.positions.size();
  const double spacing = units::kLatticeFe * std::sqrt(3.0) / 2.0;
  const auto inserted =
      make_interstitials(c.positions, c.box, 3, spacing, 7);
  EXPECT_EQ(c.positions.size(), before + 3);
  // Every insertion must sit within offset*spacing of some original atom.
  for (const Vec3& site : inserted) {
    double min_d = 1e30;
    for (std::size_t i = 0; i < before; ++i) {
      min_d = std::min(min_d,
                       std::sqrt(c.box.distance2(site, c.positions[i])));
    }
    EXPECT_LT(min_d, 0.36 * spacing);
  }
}

TEST(Defects, DamageSphereOnlyTouchesTheSphere) {
  Crystal c(5, 0.0);
  const auto original = c.positions;
  const Vec3 center{7.0, 7.0, 7.0};
  const double radius = 4.0;
  const auto touched =
      damage_sphere(c.positions, c.box, center, radius, 0.5, 3);
  EXPECT_FALSE(touched.empty());

  std::set<std::size_t> touched_set(touched.begin(), touched.end());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const bool moved = !(c.positions[i] == original[i]);
    if (touched_set.count(i)) {
      EXPECT_LE(std::sqrt(c.box.distance2(original[i], center)),
                radius + 1e-12);
      EXPECT_LE(std::sqrt(c.box.distance2(c.positions[i], original[i])),
                0.5 + 1e-12);
    } else {
      EXPECT_FALSE(moved) << "atom " << i << " outside the sphere moved";
    }
  }
}

}  // namespace
}  // namespace sdcmd
