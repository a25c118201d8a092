// Reproduction of the paper's Section I workload claims:
//
//  * "the computation workload required by the embedded atom method is
//    nearly more than twice the workload of the pair-wise potential for
//    the same number of particles" - we time EAM vs a Lennard-Jones pair
//    potential with an identical cutoff (so both walk the same neighbor
//    list) and report the ratio;
//
//  * "EAM method requires extra memory space to store electron densities
//    and its derivative of all atoms" - we account those arrays exactly.
//
// Also prints the per-phase breakdown (density / embedding / force), which
// motivates why the paper parallelizes phases 1 and 3 with SDC and phase 2
// with a plain `parallel for`.
#include <cstdio>

#include "benchsupport/cases.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "core/eam_force.hpp"
#include "core/pair_force.hpp"
#include "geom/lattice.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/lennard_jones.hpp"

int main() {
  using namespace sdcmd;
  using namespace sdcmd::bench;

  const Scale scale = scale_from_env();
  const int steps = std::max(2, steps_from_env());
  const auto cases = paper_cases(scale);

  FinnisSinclair iron(FinnisSinclairParams::iron());
  // LJ with the same cutoff: identical neighbor lists, so the timing ratio
  // isolates the per-pair and per-phase work, not the list sizes.
  LennardJones lj(0.4, 2.2, iron.cutoff());

  std::printf("=== Section I: EAM vs pair-potential workload (scale %s)\n\n",
              to_string(scale).c_str());

  AsciiTable table({"case", "atoms", "pair s/step", "EAM s/step", "ratio",
                    "EAM extra MiB"});

  for (const TestCase& test_case : cases) {
    LatticeSpec spec = test_case.lattice();
    const Box box = spec.box();
    const auto positions = build_lattice(spec);
    const std::size_t n = positions.size();

    NeighborListConfig nl_cfg;
    nl_cfg.cutoff = iron.cutoff();
    nl_cfg.skin = 0.4;
    NeighborList list(box, nl_cfg);
    list.build(positions);

    // Pair potential: one computational phase.
    EamForceConfig pair_cfg;
    pair_cfg.strategy = ReductionStrategy::Serial;
    PairForceComputer pair_computer(lj, pair_cfg);
    std::vector<Vec3> force(n);
    pair_computer.compute(box, positions, list, force);  // warmup
    Stopwatch pair_watch;
    pair_watch.start();
    for (int s = 0; s < steps; ++s) {
      pair_computer.compute(box, positions, list, force);
    }
    const double pair_time = pair_watch.stop() / steps;

    // EAM: three phases.
    EamForceConfig eam_cfg;
    eam_cfg.strategy = ReductionStrategy::Serial;
    EamForceComputer eam_computer(iron, eam_cfg);
    std::vector<double> rho(n), fp(n);
    eam_computer.compute(box, positions, list, rho, fp, force);  // warmup
    Stopwatch eam_watch;
    eam_watch.start();
    for (int s = 0; s < steps; ++s) {
      eam_computer.compute(box, positions, list, rho, fp, force);
    }
    const double eam_time = eam_watch.stop() / steps;

    // rho + fp: the EAM-only per-atom state the paper highlights.
    const double extra_mib =
        static_cast<double>(2 * n * sizeof(double)) / (1024.0 * 1024.0);

    table.add_row({test_case.name, std::to_string(n),
                   AsciiTable::fmt(pair_time, 4),
                   AsciiTable::fmt(eam_time, 4),
                   AsciiTable::fmt(eam_time / pair_time, 2),
                   AsciiTable::fmt(extra_mib, 2)});

    if (&test_case == &cases.back()) {
      std::printf("per-phase breakdown (case %s, serial):\n",
                  test_case.name.c_str());
      for (const auto& e : eam_computer.timers().entries()) {
        std::printf("  %-8s %8.4f s (%4.1f%%)\n", e.name.c_str(), e.seconds,
                    100.0 * e.seconds / eam_computer.timers().total());
      }
      std::printf("\n");
    }
  }

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "paper claim: EAM workload is ~2x the pair-wise potential; the\n"
      "density phase alone is comparable to the entire pair computation.\n");
  return 0;
}
