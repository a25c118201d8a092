#include "md/system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/units.hpp"

namespace sdcmd {
namespace {

LatticeSpec small_bcc() {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 3;
  return spec;
}

TEST(Atoms, ConstructFromPositions) {
  Atoms atoms(std::vector<Vec3>{{0, 0, 0}, {1, 1, 1}});
  EXPECT_EQ(atoms.size(), 2u);
  EXPECT_EQ(atoms.velocity.size(), 2u);
  EXPECT_EQ(atoms.force.size(), 2u);
  EXPECT_EQ(atoms.rho.size(), 2u);
  EXPECT_EQ(atoms.id[0], 0u);
  EXPECT_EQ(atoms.id[1], 1u);
}

TEST(Atoms, ReorderPermutesAllArraysConsistently) {
  Atoms atoms(std::vector<Vec3>{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}});
  atoms.velocity[2] = {9, 9, 9};
  atoms.rho[2] = 7.0;
  const std::vector<std::uint32_t> perm{2, 0, 1};
  atoms.reorder(perm);
  EXPECT_EQ(atoms.position[0].x, 2.0);
  EXPECT_EQ(atoms.velocity[0].x, 9.0);
  EXPECT_EQ(atoms.rho[0], 7.0);
  EXPECT_EQ(atoms.id[0], 2u);  // identity travels with the atom
}

TEST(Atoms, ReorderRejectsWrongSize) {
  Atoms atoms(std::vector<Vec3>{{0, 0, 0}, {1, 0, 0}});
  const std::vector<std::uint32_t> perm{0};
  EXPECT_THROW(atoms.reorder(perm), PreconditionError);
}

TEST(System, FromLatticeBuildsAtomsAndBox) {
  const System system = System::from_lattice(small_bcc(), units::kMassFe);
  EXPECT_EQ(system.size(), 54u);
  EXPECT_DOUBLE_EQ(system.mass(), units::kMassFe);
  EXPECT_NEAR(system.box().length(0), 3 * units::kLatticeFe, 1e-12);
}

TEST(System, NumberDensityMatchesBcc) {
  const System system = System::from_lattice(small_bcc(), units::kMassFe);
  // bcc: 2 atoms per a0^3
  const double a0 = units::kLatticeFe;
  EXPECT_NEAR(system.number_density(), 2.0 / (a0 * a0 * a0), 1e-12);
}

TEST(System, RejectsNonPositiveMass) {
  EXPECT_THROW(System(Box::cubic(5.0), Atoms(1), 0.0), PreconditionError);
}

TEST(System, WrapPositionsUpdatesImages) {
  System system(Box::cubic(10.0), Atoms(std::vector<Vec3>{{12.0, -3.0, 5.0}}),
                1.0);
  system.wrap_positions();
  EXPECT_NEAR(system.atoms().position[0].x, 2.0, 1e-12);
  EXPECT_NEAR(system.atoms().position[0].y, 7.0, 1e-12);
  EXPECT_EQ(system.atoms().image[0][0], 1);
  EXPECT_EQ(system.atoms().image[0][1], -1);
  EXPECT_EQ(system.atoms().image[0][2], 0);
}

TEST(System, ParallelWrapIsBitwiseTheSerialWrap) {
  // Odd edges and a lower corner off the origin, so (r - lo) / L rounds;
  // the last box has an open axis, which the wrap leaves alone.
  const Box boxes[] = {
      Box({-5.3, 0.0, 2.1}, {7.9, 11.7, 19.45}),
      Box::cubic(10.0),
      Box({-4.0, -4.0, -4.0}, {4.1, 4.1, 4.1}, {true, false, true})};
  for (const Box& box : boxes) {
    // Enough atoms for the parallel path (the test runs at 4 threads).
    const std::size_t n = 12000;
    Xoshiro256 rng(17);
    std::vector<Vec3> positions(n);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      for (int d = 0; d < 3; ++d) {
        const double lo = box.lo()[d];
        const double hi = box.hi()[d];
        const double len = box.length(d);
        // Inside; on lo and hi and an ulp either side of each; up to one
        // edge outside on either side, and just short of it.
        const double choices[] = {rng.uniform(lo, hi),
                                  rng.uniform(lo, hi),
                                  lo,
                                  hi,
                                  std::nextafter(hi, -kInf),
                                  std::nextafter(hi, kInf),
                                  std::nextafter(lo, -kInf),
                                  std::nextafter(lo, kInf),
                                  rng.uniform(lo - len, lo),
                                  rng.uniform(hi, hi + len),
                                  std::nextafter(lo - len, kInf),
                                  std::nextafter(hi + len, -kInf),
                                  lo == 0.0 ? -0.0 : lo + 0.5 * len};
        positions[i][d] = choices[rng.below(std::size(choices))];
      }
    }
    Atoms atoms(positions);
    for (std::size_t i = 0; i < n; ++i) {
      atoms.image[i] = {static_cast<int>(i % 7) - 3, static_cast<int>(i % 3),
                        -static_cast<int>(i % 5)};
    }
    std::vector<Vec3> want = positions;
    auto want_image = atoms.image;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = box.wrap(want[i], want_image[i]);
    }
    System system(box, std::move(atoms), 1.0);
    system.wrap_positions();
    EXPECT_EQ(std::memcmp(system.atoms().position.data(), want.data(),
                          n * sizeof(Vec3)),
              0);
    EXPECT_EQ(system.atoms().image, want_image);
  }
}

}  // namespace
}  // namespace sdcmd
