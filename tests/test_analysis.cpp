// MSD, coordination and per-atom stress tests.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/coordination.hpp"
#include "analysis/msd.hpp"
#include "analysis/stress.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "core/eam_force.hpp"
#include "md/simulation.hpp"
#include "md/thermo.hpp"
#include "md/velocity.hpp"
#include "potential/finnis_sinclair.hpp"

namespace sdcmd {
namespace {

System bcc_system(int cells) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = cells;
  return System::from_lattice(spec, units::kMassFe);
}

TEST(Msd, ZeroForUnmovedSystem) {
  const System system = bcc_system(3);
  MsdTracker msd(system);
  EXPECT_DOUBLE_EQ(msd.sample(system), 0.0);
}

TEST(Msd, TracksUniformDisplacement) {
  System system = bcc_system(3);
  MsdTracker msd(system);
  for (auto& r : system.atoms().position) r += Vec3{0.3, 0.4, 0.0};
  EXPECT_NEAR(msd.sample(system), 0.25, 1e-12);
}

TEST(Msd, UnwrapsPeriodicCrossings) {
  System system = bcc_system(3);
  MsdTracker msd(system);
  // Push every atom one full box length +0.5 along x, then wrap.
  const double lx = system.box().length(0);
  for (auto& r : system.atoms().position) r.x += lx + 0.5;
  system.wrap_positions();
  EXPECT_NEAR(msd.sample(system), (lx + 0.5) * (lx + 0.5), 1e-9);
}

TEST(Msd, SurvivesAtomReordering) {
  System system = bcc_system(3);
  MsdTracker msd(system);
  for (auto& r : system.atoms().position) r += Vec3{0.1, 0.0, 0.0};
  // Reverse the storage order; ids travel with the atoms.
  std::vector<std::uint32_t> perm(system.size());
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<std::uint32_t>(perm.size()) - 1 - i;
  }
  system.atoms().reorder(perm);
  EXPECT_NEAR(msd.sample(system), 0.01, 1e-12);
}

TEST(Msd, RebaseMovesTheReference) {
  System system = bcc_system(3);
  MsdTracker msd(system);
  for (auto& r : system.atoms().position) r += Vec3{1.0, 0.0, 0.0};
  msd.rebase(system);
  EXPECT_DOUBLE_EQ(msd.sample(system), 0.0);
}

TEST(Msd, GrowsDuringHotDynamics) {
  FinnisSinclair iron(FinnisSinclairParams::iron());
  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Serial;
  Simulation sim(bcc_system(4), iron, cfg);
  sim.set_temperature(300.0, 21);
  MsdTracker msd(sim.system());
  sim.run(50);
  const double mid = msd.sample(sim.system());
  EXPECT_GT(mid, 0.0);
}

TEST(Coordination, PerfectBccIs14WithinFsCutoff) {
  const System system = bcc_system(4);
  const auto result = coordination_numbers(
      system.box(), system.atoms().position, 3.97);
  EXPECT_DOUBLE_EQ(result.mean(), 14.0);
  EXPECT_EQ(result.histogram.size(), 1u);
  EXPECT_TRUE(result.defects(14).empty());
}

TEST(Coordination, VacancyLowersNeighborCounts) {
  System system = bcc_system(4);
  auto positions = system.atoms().position;
  positions.erase(positions.begin() + 37);  // knock out one atom
  const auto result =
      coordination_numbers(system.box(), positions, 3.97);
  const auto defects = result.defects(14);
  // The removed atom had 14 neighbors; each now misses one.
  EXPECT_EQ(defects.size(), 14u);
  for (std::size_t i : defects) {
    EXPECT_EQ(result.per_atom[i], 13);
  }
}

TEST(Coordination, BccShellArithmetic) {
  const double a0 = units::kLatticeFe;
  EXPECT_EQ(bcc_coordination_within(a0, 2.6), 8);    // first shell only
  EXPECT_EQ(bcc_coordination_within(a0, 3.97), 14);  // + second shell
  EXPECT_EQ(bcc_coordination_within(a0, 4.2), 26);   // + third shell
}

class StressFixture : public ::testing::Test {
 protected:
  StressFixture()  // 6 cells: large enough for the 2-D SDC schedule test
      : iron(FinnisSinclairParams::iron()), system(bcc_system(6)) {
    NeighborListConfig nl;
    nl.cutoff = iron.cutoff();
    nl.skin = 0.4;
    list = std::make_unique<NeighborList>(system.box(), nl);
    list->build(system.atoms().position);

    EamForceConfig cfg;
    cfg.strategy = ReductionStrategy::Serial;
    computer = std::make_unique<EamForceComputer>(iron, cfg);
    Atoms& atoms = system.atoms();
    result = computer->compute(system.box(), atoms.position, *list,
                               atoms.rho, atoms.fp, atoms.force);
  }

  FinnisSinclair iron;
  System system;
  std::unique_ptr<NeighborList> list;
  std::unique_ptr<EamForceComputer> computer;
  EamForceResult result;
};

TEST_F(StressFixture, SumOfPerAtomVirialsMatchesGlobalPressure) {
  PerAtomStress stress(iron);
  std::vector<StressTensor> tensors;
  stress.compute(system.box(), system.atoms().position, {}, system.mass(),
                 *list, system.atoms().fp, tensors);
  ASSERT_EQ(tensors.size(), system.size());

  // Sum of per-atom stress * per-atom volume = -total virial tensor;
  // trace relation: sum(hydrostatic * V/N) = -virial/3... with zero
  // velocities, pressure = virial / (3V), and our per-atom stresses give
  // total hydrostatic * (V/N) summed = -virial/3.
  const StressTensor total = PerAtomStress::total(tensors);
  const double per_atom_volume =
      system.box().volume() / static_cast<double>(system.size());
  const double virial_from_atoms =
      -total.hydrostatic() * 3.0 * per_atom_volume;
  EXPECT_NEAR(virial_from_atoms, result.virial,
              1e-8 * std::max(1.0, std::abs(result.virial)));
}

TEST_F(StressFixture, PerfectLatticeIsHomogeneous) {
  PerAtomStress stress(iron);
  std::vector<StressTensor> tensors;
  stress.compute(system.box(), system.atoms().position, {}, system.mass(),
                 *list, system.atoms().fp, tensors);
  for (const auto& t : tensors) {
    EXPECT_NEAR(t.xx, tensors[0].xx, 1e-9);
    EXPECT_NEAR(t.xy, 0.0, 1e-9);  // cubic symmetry: no shear
    EXPECT_NEAR(t.von_mises(), 0.0, 1e-8);
  }
}

TEST_F(StressFixture, SdcParallelMatchesSerial) {
  PerAtomStress stress(iron);
  std::vector<StressTensor> serial, parallel;
  stress.compute(system.box(), system.atoms().position, {}, system.mass(),
                 *list, system.atoms().fp, serial);

  SdcConfig sdc;
  sdc.dimensionality = 2;
  SdcSchedule schedule(system.box(), iron.cutoff() + 0.4, sdc);
  schedule.rebuild(system.atoms().position);
  stress.compute(system.box(), system.atoms().position, {}, system.mass(),
                 *list, system.atoms().fp, parallel, &schedule);

  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i].xx, parallel[i].xx, 1e-10);
    EXPECT_NEAR(serial[i].xy, parallel[i].xy, 1e-10);
  }
}

TEST_F(StressFixture, KineticTermAddsIdealGasPressure) {
  Atoms& atoms = system.atoms();
  maxwell_boltzmann_velocities(atoms.velocity, system.mass(), 300.0, 5);

  PerAtomStress stress(iron);
  std::vector<StressTensor> cold, hot;
  stress.compute(system.box(), atoms.position, {}, system.mass(), *list,
                 atoms.fp, cold);
  stress.compute(system.box(), atoms.position, atoms.velocity,
                 system.mass(), *list, atoms.fp, hot);

  const double d_hydro = PerAtomStress::total(hot).hydrostatic() -
                         PerAtomStress::total(cold).hydrostatic();
  // Kinetic contribution to the pressure: (dof/3) kB T / V (negative in
  // our tension-negative convention, summed over atoms of volume V/N).
  // Velocity init zeroes the COM momentum, so dof = 3N - 3, not 3N.
  const double dof =
      static_cast<double>(temperature_dof(system.size(), true));
  const double expected =
      -dof / 3.0 * units::kBoltzmann * 300.0 /
      (system.box().volume() / static_cast<double>(system.size()));
  EXPECT_NEAR(d_hydro, expected, 1e-6 * std::abs(expected));
}

TEST(StressTensor, VonMisesOfPureShear) {
  StressTensor t;
  t.xy = 1.0;
  EXPECT_NEAR(t.von_mises(), std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(t.hydrostatic(), 0.0);
}

}  // namespace
}  // namespace sdcmd
