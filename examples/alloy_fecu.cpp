// Binary Fe-Cu alloy MD with SDC-parallelized multi-species EAM forces.
//
// Builds a bcc iron matrix, substitutes a fraction of sites with copper
// (Johnson cross-pair mixing between the Finnis-Sinclair Fe and Johnson Cu
// potentials), and runs NVE dynamics with a hand-rolled velocity-Verlet
// loop over the AlloyForceComputer - demonstrating the multi-species API
// end to end, including per-atom masses and the setfl-alloy export.
//
//   ./alloy_fecu [--cells 8] [--cu-fraction 0.1] [--steps 100]
#include <cstdio>

#include "common/cli.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "core/alloy_force.hpp"
#include "geom/lattice.hpp"
#include "md/integrator.hpp"
#include "md/thermo.hpp"
#include "md/velocity.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/johnson.hpp"
#include "potential/setfl_alloy.hpp"

int main(int argc, char** argv) {
  using namespace sdcmd;

  CliParser cli("alloy_fecu", "binary Fe-Cu EAM alloy under SDC forces");
  cli.add_option("cells", "8", "bcc cells per box edge");
  cli.add_option("cu-fraction", "0.1", "fraction of sites holding Cu");
  cli.add_option("steps", "100", "NVE steps");
  cli.add_option("temperature", "300", "initial temperature (K)");
  cli.add_option("export-setfl", "", "optional FeCu.eam.alloy output path");
  if (!cli.parse(argc, argv)) return 1;

  // Potentials and the mixed alloy.
  FinnisSinclair iron(FinnisSinclairParams::iron());
  JohnsonEam cu(JohnsonParams::copper());
  JohnsonMixedAlloy alloy({{&iron, units::kMassFe, "Fe"},
                           {&cu, 63.546, "Cu"}});

  if (!cli.get("export-setfl").empty()) {
    write_setfl_alloy_file(cli.get("export-setfl"),
                           tabulate_alloy(alloy, 2000, 2000, 80.0),
                           "sdcmd Fe-Cu Johnson-mixed export");
    std::printf("wrote %s\n", cli.get("export-setfl").c_str());
  }

  // Configuration: bcc Fe with random Cu substitutions.
  LatticeSpec lattice;
  lattice.type = LatticeType::Bcc;
  lattice.a0 = units::kLatticeFe;
  lattice.nx = lattice.ny = lattice.nz = cli.get_int("cells");
  const Box box = lattice.box();
  std::vector<Vec3> positions = build_lattice(lattice);
  const std::size_t n = positions.size();

  std::vector<std::uint8_t> types(n, 0);
  Xoshiro256 rng(2024);
  std::size_t n_cu = 0;
  for (auto& t : types) {
    if (rng.uniform() < cli.get_double("cu-fraction")) {
      t = 1;
      ++n_cu;
    }
  }
  std::vector<double> masses(n);
  for (std::size_t i = 0; i < n; ++i) masses[i] = alloy.mass(types[i]);
  std::printf("system: %zu atoms (%zu Cu, %.1f%%) in a %.2f A box\n", n,
              n_cu, 100.0 * n_cu / n, box.length(0));

  // Velocities (use the heavier species mass for the draw; rescale below
  // is global, so the temperature is still exact in aggregate).
  std::vector<Vec3> velocities(n);
  maxwell_boltzmann_velocities(velocities, units::kMassFe,
                               cli.get_double("temperature"), 55);

  // Force machinery.
  const double skin = 0.3;
  NeighborListConfig nl_cfg;
  nl_cfg.cutoff = alloy.cutoff();
  nl_cfg.skin = skin;
  NeighborList list(box, nl_cfg);
  list.build(positions);

  EamForceConfig force_cfg;
  force_cfg.strategy = ReductionStrategy::Sdc;
  force_cfg.sdc.dimensionality = SpatialDecomposition::
      max_feasible_dimensionality(box, alloy.cutoff() + skin);
  if (force_cfg.sdc.dimensionality == 0) {
    force_cfg.strategy = ReductionStrategy::Serial;
    std::printf("box too small for SDC; running serial forces\n");
  }
  AlloyForceComputer computer(alloy, force_cfg);
  computer.attach_schedule(box, alloy.cutoff() + skin);
  computer.on_neighbor_rebuild(positions);

  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> forces(n);
  auto result =
      computer.compute(box, positions, types, list, rho, fp, forces);

  // NVE loop with per-atom masses.
  VelocityVerlet vv(units::fs_to_internal(1.0), units::kMassFe);
  std::printf("%8s %10s %16s %16s\n", "step", "T (K)", "PE (eV)",
              "Etot (eV)");
  const long steps = cli.get_int("steps");
  for (long s = 0; s <= steps; ++s) {
    if (s > 0) {
      vv.kick_drift(positions, velocities, forces, masses);
      if (list.needs_rebuild(positions)) {
        for (auto& r : positions) r = box.wrap(r);
        list.build(positions);
        computer.on_neighbor_rebuild(positions);
      }
      result =
          computer.compute(box, positions, types, list, rho, fp, forces);
      vv.kick(velocities, forces, masses);
    }
    if (s % 20 == 0) {
      double ke = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        ke += 0.5 * masses[i] * norm2(velocities[i]);
      }
      const double temp =
          2.0 * ke / (3.0 * static_cast<double>(n) * units::kBoltzmann);
      std::printf("%8ld %10.2f %16.6f %16.6f\n", s, temp,
                  result.total_energy(), result.total_energy() + ke);
    }
  }
  std::printf("\nper-species density check: mean rho(Fe) vs rho(Cu)\n");
  double rho_fe = 0.0, rho_cu = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    (types[i] == 0 ? rho_fe : rho_cu) += rho[i];
  }
  if (n_cu > 0 && n_cu < n) {
    std::printf("  Fe sites: %.3f   Cu sites: %.3f\n",
                rho_fe / static_cast<double>(n - n_cu),
                rho_cu / static_cast<double>(n_cu));
  }
  return 0;
}
