// Ablations of the SDC design choices called out in DESIGN.md:
//
//  1. subdomain granularity - the paper uses the finest legal
//     decomposition; we sweep coarser grids (max_subdomains caps) to show
//     why: fewer subdomains per color means worse balance and idle threads;
//  2. 1-D vs 2-D vs 3-D decomposition at fixed thread count - the paper's
//     Section IV discussion (2-D wins: fewer barriers than 3-D, better
//     cache shape than 1-D);
//  3. half-list SDC vs full-list RC pair-visit counts - the exact 2x work
//     trade, independent of the machine.
//
// (The subdomain loop is always statically scheduled: static beat dynamic
// chunks on the paper's uniform-density workloads, see EXPERIMENTS.md.)
#include <cstdio>

#include "benchsupport/cases.hpp"
#include "benchsupport/sweep.hpp"
#include "common/table.hpp"
#include "common/threads.hpp"
#include "potential/finnis_sinclair.hpp"

int main() {
  using namespace sdcmd;
  using namespace sdcmd::bench;

  const Scale scale = scale_from_env();
  const int steps = steps_from_env();
  const TestCase test_case = paper_cases(scale)[2];  // large3
  FinnisSinclair iron(FinnisSinclairParams::iron());
  CaseRunner runner(test_case, iron);
  const int threads = std::max(4, hardware_threads());

  std::printf("=== SDC design ablations (case %s, %zu atoms, %d threads)\n\n",
              test_case.name.c_str(), test_case.atom_count(), threads);
  const double serial = runner.serial_seconds_per_step(steps);
  std::printf("serial density+force: %.4f s/step\n\n", serial);

  // 1. Granularity sweep.
  std::printf("granularity (2-D SDC, max subdomain caps):\n");
  AsciiTable gran({"max subdomains", "grid actually used", "s/step",
                   "vs finest"});
  double finest_time = 0.0;
  for (std::size_t cap : {0ull, 256ull, 64ull, 16ull, 4ull}) {
    EamForceConfig cfg;
    cfg.strategy = ReductionStrategy::Sdc;
    cfg.sdc.dimensionality = 2;
    cfg.sdc.max_subdomains = cap;
    const auto timing = runner.time_strategy(cfg, threads, steps);
    if (!timing) {
      gran.add_row({cap == 0 ? "finest" : std::to_string(cap), "-", "-",
                    "infeasible"});
      continue;
    }
    if (cap == 0) finest_time = timing->density_force_seconds;
    // Reconstruct the grid for display.
    SdcConfig probe = cfg.sdc;
    SdcSchedule schedule(runner.system().box(),
                         iron.cutoff() + runner.skin(), probe);
    const auto& counts = schedule.decomposition().counts();
    gran.add_row(
        {cap == 0 ? "finest" : std::to_string(cap),
         std::to_string(counts[0]) + "x" + std::to_string(counts[1]) + "x" +
             std::to_string(counts[2]),
         AsciiTable::fmt(timing->density_force_seconds, 4),
         AsciiTable::fmt(timing->density_force_seconds / finest_time, 2) +
             "x"});
  }
  std::printf("%s\n", gran.render().c_str());

  // 2. Dimensionality at fixed threads.
  std::printf("decomposition dimensionality (%d threads):\n", threads);
  AsciiTable dims({"dims", "colors", "s/step", "speedup"});
  for (int d = 1; d <= 3; ++d) {
    EamForceConfig cfg;
    cfg.strategy = ReductionStrategy::Sdc;
    cfg.sdc.dimensionality = d;
    const auto timing = runner.time_strategy(cfg, threads, steps);
    dims.add_row({std::to_string(d) + "-D", std::to_string(1 << d),
                  timing ? AsciiTable::fmt(timing->density_force_seconds, 4)
                         : "-",
                  timing ? AsciiTable::fmt(
                               serial / timing->density_force_seconds, 2)
                         : "-"});
  }
  std::printf("%s\n", dims.render().c_str());

  // 3. Exact work accounting: SDC half lists vs RC full lists.
  EamForceConfig sdc_cfg;
  sdc_cfg.strategy = ReductionStrategy::Sdc;
  sdc_cfg.sdc.dimensionality = 2;
  const auto sdc_t = runner.time_strategy(sdc_cfg, threads, steps);
  EamForceConfig rc_cfg;
  rc_cfg.strategy = ReductionStrategy::RedundantComputation;
  const auto rc_t = runner.time_strategy(rc_cfg, threads, steps);
  if (sdc_t && rc_t) {
    std::printf(
        "work accounting: SDC walks %zu pairs/step, RC walks %zu "
        "(%.2fx);\nRC per-step time is %.2fx SDC's on this host.\n",
        sdc_t->pair_visits, rc_t->pair_visits,
        static_cast<double>(rc_t->pair_visits) /
            static_cast<double>(sdc_t->pair_visits),
        rc_t->density_force_seconds / sdc_t->density_force_seconds);
  }
  return 0;
}
