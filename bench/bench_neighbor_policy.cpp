// Neighbor machinery policy study and maintenance-pipeline benchmark.
//
// Two instruments in one binary:
//
//  * build sweep (default): the one-pass list build (parallel
//    counting-sort binning, one enumeration pass into per-thread buffers,
//    one compaction) for a half and a full list, swept over thread
//    counts. Writes sdcmd.bench.v1 rows via --metrics-out.
//  * steady-state drill (--jsonl-out): a deform run instrumented with the
//    neighbor.* metrics. The strain rate is chosen so the grid reshapes
//    at least once mid-run, proving update_box() adapts in place -
//    neighbor.reconstructions stays at the single construction while
//    neighbor.grid_reshapes ticks.
//
// --skin-study restores the classic Verlet-vs-cell-direct skin table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "benchsupport/cases.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/threads.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "core/cell_direct.hpp"
#include "core/eam_force.hpp"
#include "geom/lattice.hpp"
#include "md/deform.hpp"
#include "md/simulation.hpp"
#include "obs/bench_report.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "potential/finnis_sinclair.hpp"

namespace {

using namespace sdcmd;
using namespace sdcmd::bench;

struct BuildTiming {
  double seconds_per_build = 0.0;
  double bin_seconds = 0.0;
  double count_seconds = 0.0;
  double fill_seconds = 0.0;
  std::size_t pairs = 0;
  double coordination = 0.0;
};

BuildTiming time_builds(const Box& box, std::span<const Vec3> positions,
                        const NeighborListConfig& cfg, int builds) {
  NeighborList list(box, cfg);
  list.build(positions);  // warmup: sizes the CSR arrays and the scratch
  const NeighborBuildStats before = list.stats();
  const double t0 = wall_time();
  for (int b = 0; b < builds; ++b) list.build(positions);
  const double elapsed = wall_time() - t0;
  const NeighborBuildStats& after = list.stats();
  BuildTiming t;
  t.seconds_per_build = elapsed / builds;
  t.bin_seconds = (after.bin_seconds - before.bin_seconds) / builds;
  t.count_seconds = (after.count_seconds - before.count_seconds) / builds;
  t.fill_seconds = (after.fill_seconds - before.fill_seconds) / builds;
  t.pairs = list.pair_count();
  t.coordination = list.mean_neighbors();
  return t;
}

int run_build_sweep(const CliParser& cli) {
  const Scale scale = cli.get("scale").empty() ? scale_from_env()
                                               : parse_scale(cli.get("scale"));
  const std::string case_name = cli.get("case");
  const auto cases = paper_cases(scale);
  const auto it =
      std::find_if(cases.begin(), cases.end(),
                   [&](const TestCase& c) { return c.name == case_name; });
  if (it == cases.end()) {
    std::fprintf(stderr, "unknown case %s\n", case_name.c_str());
    return 1;
  }
  const int builds = std::max(1, cli.get_int("builds"));
  const auto threads = cli.get("threads").empty()
                           ? thread_sweep_from_env()
                           : cli.get_int_list("threads");

  FinnisSinclair iron(FinnisSinclairParams::iron());
  LatticeSpec spec = it->lattice();
  const Box box = spec.box();
  const auto positions = build_lattice(spec);

  NeighborListConfig half;
  half.cutoff = iron.cutoff();
  half.skin = 0.4;
  NeighborListConfig full = half;
  full.mode = NeighborMode::Full;

  obs::BenchReport report("neighbor_policy_build_sweep");
  report.set_context("case", it->name);
  report.set_context("atoms", positions.size());
  report.set_context("builds", builds);
  report.set_context("scale", to_string(scale));
  report.set_context("hardware_threads", hardware_threads());

  std::printf("=== neighbor build sweep (case %s, %zu atoms, %d builds)\n",
              it->name.c_str(), positions.size(), builds);
  std::printf("running on %s\n\n", thread_summary().c_str());

  AsciiTable table({"threads", "half build (s)", "full build (s)",
                    "half speedup", "bin (s)", "enumerate (s)",
                    "compact (s)"});
  BuildTiming half_base, full_base;
  for (int t : threads) {
    set_threads(t);
    const BuildTiming h = time_builds(box, positions, half, builds);
    const BuildTiming f = time_builds(box, positions, full, builds);
    if (half_base.seconds_per_build == 0.0) {
      half_base = h;
      full_base = f;
    }
    const double half_speedup = half_base.seconds_per_build /
                                h.seconds_per_build;
    table.add_row({std::to_string(t), AsciiTable::fmt(h.seconds_per_build, 5),
                   AsciiTable::fmt(f.seconds_per_build, 5),
                   AsciiTable::fmt(half_speedup, 2),
                   AsciiTable::fmt(h.bin_seconds, 5),
                   AsciiTable::fmt(h.count_seconds, 5),
                   AsciiTable::fmt(h.fill_seconds, 5)});
    auto add_row = [&](const char* name, const BuildTiming& m, double s) {
      report.add_result({{"case", std::string(name)},
                         {"threads", t},
                         {"seconds_per_build", m.seconds_per_build},
                         {"bin_seconds_per_build", m.bin_seconds},
                         {"count_seconds_per_build", m.count_seconds},
                         {"fill_seconds_per_build", m.fill_seconds},
                         {"pairs_stored", m.pairs},
                         {"coordination", m.coordination},
                         {"speedup", s},
                         {"feasible", true}});
    };
    add_row("half_build", h, half_speedup);
    add_row("full_build", f,
            full_base.seconds_per_build / f.seconds_per_build);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "speedup is over the first thread count of the sweep. bin, enumerate\n"
      "and compact split the half build (neighbor.bin/count/fill_seconds).\n"
      "Both lists store the brute-force pair set (tier-1 tests compare\n"
      "them).\n\n");

  const std::string metrics_out = cli.get("metrics-out");
  if (!metrics_out.empty()) {
    if (report.write(metrics_out)) {
      std::printf("bench report: %zu result rows -> %s\n", report.results(),
                  metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}

int run_drill(const CliParser& cli) {
  const int steps = std::max(10, cli.get_int("drill-steps"));
  FinnisSinclair iron(FinnisSinclairParams::iron());
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 6;
  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Serial;
  Simulation sim(System::from_lattice(spec, units::kMassFe), iron, cfg);
  sim.set_temperature(50.0, 11);

  // Strain rate sized so the box crosses one cell-count boundary mid-run:
  // the drill must show neighbor.grid_reshapes ticking while
  // neighbor.reconstructions stays at the single construction.
  const double range = iron.cutoff() + sim.effective_skin();
  const double edge = sim.system().box().length(0);
  const auto cells_now = static_cast<double>(
      static_cast<int>(edge / range));
  const double growth = (cells_now + 1.0) * range / edge * 1.02;
  const double rate = std::pow(growth, 1.0 / steps) - 1.0;
  sim.set_deformer(BoxDeformer({rate, rate, rate}), /*every=*/1);

  obs::MetricsRegistry registry;
  obs::StepMetricsWriter writer(cli.get("jsonl-out"));
  if (!writer.ok()) {
    std::fprintf(stderr, "cannot open %s\n", cli.get("jsonl-out").c_str());
    return 1;
  }
  InstrumentationConfig instr;
  instr.registry = &registry;
  instr.step_writer = &writer;
  sim.set_instrumentation(instr);

  sim.run(steps);
  sim.clear_instrumentation();
  writer.flush();

  const NeighborBuildStats stats = sim.neighbor_stats();
  std::printf(
      "drill: %d deform steps, %zu builds, %zu grid reshapes, %zu stencil\n"
      "rebuilds, %zu list reconstructions -> %s (%zu records)\n",
      steps, stats.builds, stats.grid_reshapes, stats.stencil_rebuilds,
      sim.neighbor_reconstructions(), cli.get("jsonl-out").c_str(),
      writer.records());
  if (stats.grid_reshapes == 0) {
    std::fprintf(stderr, "drill error: the run never reshaped the grid\n");
    return 1;
  }
  if (sim.neighbor_reconstructions() != 1) {
    std::fprintf(stderr,
                 "drill error: %zu list reconstructions (expected the "
                 "initial one only)\n",
                 sim.neighbor_reconstructions());
    return 1;
  }
  return 0;
}

int run_skin_study() {
  const Scale scale = scale_from_env();
  const int steps = std::max(2, steps_from_env());
  const TestCase test_case = paper_cases(scale)[1];  // medium
  FinnisSinclair iron(FinnisSinclairParams::iron());

  LatticeSpec spec = test_case.lattice();
  const Box box = spec.box();
  const auto positions = build_lattice(spec);
  const std::size_t n = positions.size();
  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> force(n);

  std::printf("=== neighbor policy study (case %s, %zu atoms)\n\n",
              test_case.name.c_str(), n);

  // Cell-direct per step.
  eam_cell_direct(box, positions, iron, rho, fp, force);  // warmup
  Stopwatch direct_watch;
  direct_watch.start();
  for (int s = 0; s < steps; ++s) {
    eam_cell_direct(box, positions, iron, rho, fp, force);
  }
  const double direct_step = direct_watch.stop() / steps;

  AsciiTable table({"skin (A)", "list build (s)", "force step (s)",
                    "pairs stored", "break-even rebuild interval"});
  for (double skin : {0.0, 0.2, 0.4, 0.8}) {
    NeighborListConfig nl;
    nl.cutoff = iron.cutoff();
    nl.skin = skin;
    NeighborList list(box, nl);

    Stopwatch build_watch;
    build_watch.start();
    list.build(positions);
    const double build = build_watch.stop();

    EamForceConfig cfg;
    cfg.strategy = ReductionStrategy::Serial;
    EamForceComputer computer(iron, cfg);
    computer.compute(box, positions, list, rho, fp, force);  // warmup
    Stopwatch step_watch;
    step_watch.start();
    for (int s = 0; s < steps; ++s) {
      computer.compute(box, positions, list, rho, fp, force);
    }
    const double list_step = step_watch.stop() / steps;

    // Lists win once the per-step saving amortizes one build:
    //   k * (direct - list_step) > build  =>  k > build / saving.
    std::string break_even = "never";
    if (direct_step > list_step) {
      break_even = AsciiTable::fmt(build / (direct_step - list_step), 1) +
                   " steps";
    }
    table.add_row({AsciiTable::fmt(skin, 1), AsciiTable::fmt(build, 4),
                   AsciiTable::fmt(list_step, 4),
                   std::to_string(list.pair_count()), break_even});
  }

  std::printf("cell-direct force step: %.4f s (no build cost)\n\n",
              direct_step);
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: with a 0.4 A skin a list survives ~10-50 steps of 300 K\n"
      "dynamics, far beyond the break-even interval - the paper's (and\n"
      "every production MD code's) Verlet-list pipeline is justified.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_neighbor_policy",
                "neighbor build thread sweep (half and full lists), "
                "steady-state deform drill, and the classic skin study");
  cli.add_option("case", "medium", "small|medium|large3|large4");
  cli.add_option("scale", "", "tiny|laptop|desktop|paper (default: env)");
  cli.add_option("builds", "10", "timed list builds per configuration");
  cli.add_option("threads", "", "comma list, e.g. 2,4,8 (default: env)");
  cli.add_option("metrics-out", "", "write sdcmd.bench.v1 JSON here");
  cli.add_option("jsonl-out", "",
                 "run the deform drill, write step metrics JSONL here");
  cli.add_option("drill-steps", "60", "deform steps for the drill");
  cli.add_flag("skin-study", "run the Verlet-vs-cell-direct skin table");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_bool("skin-study")) return run_skin_study();
  const int rc = run_build_sweep(cli);
  if (rc != 0) return rc;
  if (!cli.get("jsonl-out").empty()) return run_drill(cli);
  return 0;
}
