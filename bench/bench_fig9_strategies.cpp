// Reproduction of the paper's Fig. 9: speedup curves of the 2-D SDC method
// versus the competing irregular-reduction strategies - Critical Section
// (CS), Shared Array Privatization (SAP) and Redundant Computations (RC) -
// on all four test cases. We additionally report the per-scalar Atomic
// variant (a modern refinement the 2009 paper folds into class 1).
//
// Flags (see --help; each falls back to its environment variable):
//   --scale tiny|laptop|desktop|paper     (SDCMD_BENCH_SCALE,   laptop)
//   --threads 2,3,4                       (SDCMD_BENCH_THREADS, 2,3,4,8,12,16)
//   --steps N                             (SDCMD_BENCH_STEPS,   3)
//   --csv-dir DIR                         (SDCMD_BENCH_CSV_DIR, .)
//   --metrics-out FILE    versioned sdcmd.bench.v1 JSON results
//   --hw-counters         strategy x hardware-counter table
//                         instead of the speedup sweep: per-strategy IPC,
//                         cache-miss rate and cycles/atom for the density
//                         and force phases at the sweep's max thread count
//   --void-drill          load-imbalance drill: carve a spherical void
//                         out of the largest case and A/B SDC's color
//                         sweep against SAP's replicas, checking each
//                         strategy's forces against serial at 1e-12
//
// Expected shape (paper, 16 cores): SDC > RC > SAP > CS at high thread
// counts; CS collapses below 1; SAP peaks around 8 threads then degrades;
// RC is near-linear but ~1.7x behind SDC because it does the pair work
// twice. See the Table 1 bench header for the few-core host caveat.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchsupport/cases.hpp"
#include "benchsupport/sweep.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "common/threads.hpp"
#include "obs/bench_report.hpp"
#include "potential/finnis_sinclair.hpp"

int main(int argc, char** argv) {
  using namespace sdcmd;
  using namespace sdcmd::bench;

  CliParser cli("bench_fig9_strategies",
                "Fig. 9 reproduction: reduction-strategy speedup curves");
  cli.add_option("scale", "", "tiny|laptop|desktop|paper (default: env)");
  cli.add_option("threads", "", "comma list, e.g. 2,4,8 (default: env)");
  cli.add_option("steps", "", "timed steps per configuration (default: env)");
  cli.add_option("csv-dir", "", "CSV output directory (default: env or .)");
  cli.add_option("metrics-out", "", "write sdcmd.bench.v1 JSON here");
  cli.add_flag("hw-counters",
               "strategy x hw-counter table instead of the speedup sweep");
  cli.add_flag("void-drill",
               "carved-void load-imbalance drill instead of the sweep");
  if (!cli.parse(argc, argv)) return 1;

  const Scale scale = cli.get("scale").empty() ? scale_from_env()
                                               : parse_scale(cli.get("scale"));
  const auto cases = paper_cases(scale);
  const auto threads = cli.get("threads").empty()
                           ? thread_sweep_from_env()
                           : cli.get_int_list("threads");
  const int steps =
      cli.get("steps").empty() ? steps_from_env() : cli.get_int("steps");
  FinnisSinclair iron(FinnisSinclairParams::iron());

  const ReductionStrategy strategies[] = {
      ReductionStrategy::Critical,          ReductionStrategy::Atomic,
      ReductionStrategy::LockStriped,       ReductionStrategy::ArrayPrivatization,
      ReductionStrategy::RedundantComputation, ReductionStrategy::Sdc};

  const char* csv_env = std::getenv("SDCMD_BENCH_CSV_DIR");
  const std::string csv_dir =
      !cli.get("csv-dir").empty() ? cli.get("csv-dir")
                                  : (csv_env != nullptr ? csv_env : ".");
  CsvWriter csv(csv_dir + "/fig9_strategies.csv",
                {"case", "atoms", "strategy", "threads", "seconds_per_step",
                 "speedup", "pair_visits", "private_bytes"});

  obs::BenchReport report("fig9_strategies");
  report.set_context("scale", to_string(scale));
  report.set_context("steps", steps);
  report.set_context("hardware_threads", hardware_threads());
  {
    std::string sweep;
    for (int t : threads) {
      if (!sweep.empty()) sweep += ',';
      sweep += std::to_string(t);
    }
    report.set_context("thread_sweep", sweep);
  }

  if (cli.get_bool("void-drill")) {
    // A carved void makes the spatial load non-uniform: SDC's colors wait
    // for whichever worker drew the fullest subdomains, while SAP's static
    // row split is blind to space. The drill A/Bs the two shapes on the
    // largest case at the sweep's max thread count and gates each
    // strategy's forces against the serial reference at 1e-12 (abs, per
    // component).
    constexpr double kVoidRadiusFraction = 0.3;
    constexpr double kForceTolerance = 1e-12;
    int drill_threads = 1;
    for (int t : threads) drill_threads = std::max(drill_threads, t);

    // Largest case at the scale: the smaller ones cannot feed every thread
    // one SDC subdomain per color, and an infeasible SDC row would gut the
    // A/B comparison the drill exists for.
    const TestCase& test_case = cases.back();
    CaseRunner runner(test_case, iron);
    const std::size_t removed = runner.carve_void(kVoidRadiusFraction);
    const std::size_t atoms = runner.system().size();
    report.set_context("mode", "void_drill");
    report.set_context("void_radius_fraction", kVoidRadiusFraction);
    report.set_context("void_atoms_removed", static_cast<std::int64_t>(removed));
    report.set_context("drill_threads", drill_threads);

    std::printf(
        "=== carved-void load-imbalance drill "
        "(case %s, %zu atoms after carving %zu, %d threads, %d steps)\n\n",
        test_case.name.c_str(), atoms, removed, drill_threads, steps);

    const double serial = runner.serial_seconds_per_step(steps);
    const std::vector<Vec3> reference = runner.system().atoms().force;

    const ReductionStrategy drill_strategies[] = {
        ReductionStrategy::Sdc, ReductionStrategy::ArrayPrivatization};

    AsciiTable table({"strategy", "s/step", "speedup", "imbalance",
                      "max|dF|"});
    const auto sci = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1e", v);
      return std::string(buf);
    };
    bool forces_ok = true;
    for (ReductionStrategy strategy : drill_strategies) {
      EamForceConfig cfg;
      cfg.strategy = strategy;
      cfg.sdc.dimensionality = 2;
      SweepInstrumentation instr;  // sweep profiler only: no sinks
      const auto timing =
          runner.time_strategy(cfg, drill_threads, steps, &instr);
      double max_dev = 0.0;
      if (timing) {
        const auto& force = runner.system().atoms().force;
        for (std::size_t i = 0; i < force.size(); ++i) {
          max_dev = std::max({max_dev, std::abs(force[i].x - reference[i].x),
                              std::abs(force[i].y - reference[i].y),
                              std::abs(force[i].z - reference[i].z)});
        }
        if (max_dev > kForceTolerance) forces_ok = false;
      }
      table.add_row(
          {to_string(strategy),
           timing ? AsciiTable::fmt(timing->density_force_seconds, 6) : "-",
           format_speedup(timing ? std::optional<double>(
                                       serial / timing->density_force_seconds)
                                 : std::nullopt),
           timing ? AsciiTable::fmt(timing->sweep_imbalance, 3) : "-",
           timing ? sci(max_dev) : "-"});
      report.add_result(
          {{"case", test_case.name},
           {"atoms", atoms},
           {"strategy", to_string(strategy)},
           {"threads", drill_threads},
           {"serial_seconds_per_step", serial},
           {"seconds_per_step",
            timing ? obs::JsonValue(timing->density_force_seconds)
                   : obs::JsonValue()},
           {"speedup", timing ? obs::JsonValue(
                                    serial / timing->density_force_seconds)
                              : obs::JsonValue()},
           {"sweep.imbalance", timing ? obs::JsonValue(timing->sweep_imbalance)
                                      : obs::JsonValue()},
           {"force_max_dev", timing ? obs::JsonValue(max_dev)
                                    : obs::JsonValue()},
           {"forces_ok", timing ? obs::JsonValue(max_dev <= kForceTolerance)
                                : obs::JsonValue()},
           {"feasible", timing.has_value()}});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "mechanism check: the void empties some SDC subdomains, so the\n"
        "fullest color member paces every barrier (imbalance > 1).\n");

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
    if (!forces_ok) {
      std::fprintf(stderr,
                   "FAIL: a strategy's forces deviate from serial by more "
                   "than %g\n",
                   kForceTolerance);
      return 1;
    }
    return 0;
  }

  if (cli.get_bool("hw-counters")) {
    // ISSUE 7 table mode: hardware counters per strategy at one thread
    // count (the sweep's max). Uses the instrumented (profiled-sweep)
    // variant, so the timings here are not publication numbers - the point
    // is the per-phase IPC / miss-rate / cycles-per-atom comparison.
    int hw_threads = 1;
    for (int t : threads) hw_threads = std::max(hw_threads, t);
    const bool hw_available = obs::PerfPhaseProfiler::available();
    report.set_context("hw_available", hw_available ? 1 : 0);
    report.set_context("hw_paranoid_level",
                       obs::PerfPhaseProfiler::paranoid_level());
    std::printf(
        "=== strategy x hw counters (scale %s, %d threads, %d steps)\n",
        to_string(scale).c_str(), hw_threads, steps);
    if (!hw_available) {
      std::printf("perf_event_open unavailable (paranoid=%d); "
                  "hw columns will be empty\n",
                  obs::PerfPhaseProfiler::paranoid_level());
    }
    std::printf("\n");

    static const char* kHwPhases[3] = {"density", "embed", "force"};
    for (const TestCase& test_case : cases) {
      CaseRunner runner(test_case, iron);
      std::printf("--- case %s: %zu atoms\n", test_case.name.c_str(),
                  test_case.atom_count());
      AsciiTable table({"strategy", "dens.ipc", "dens.miss", "dens.cyc/at",
                        "force.ipc", "force.miss", "force.cyc/at"});
      for (ReductionStrategy strategy : strategies) {
        EamForceConfig cfg;
        cfg.strategy = strategy;
        cfg.sdc.dimensionality = 2;
        SweepInstrumentation instr;
        instr.hw_counters = true;
        const auto timing =
            runner.time_strategy(cfg, hw_threads, steps, &instr);
        std::vector<std::string> row{to_string(strategy)};
        const bool hw = timing.has_value() && timing->hw_valid;
        const double per_step_atoms =
            static_cast<double>(steps) *
            static_cast<double>(test_case.atom_count());
        for (int p : {0, 2}) {
          row.push_back(hw ? AsciiTable::fmt(timing->hw[p].ipc(), 3) : "-");
          row.push_back(
              hw ? AsciiTable::fmt(timing->hw[p].cache_miss_rate(), 4) : "-");
          row.push_back(
              hw ? AsciiTable::fmt(timing->hw[p].cycles / per_step_atoms, 1)
                 : "-");
        }
        table.add_row(std::move(row));
        obs::BenchReport::Row report_row{
            {"case", test_case.name},
            {"atoms", test_case.atom_count()},
            {"strategy", to_string(strategy)},
            {"threads", hw_threads},
            {"seconds_per_step",
             timing ? obs::JsonValue(timing->density_force_seconds)
                    : obs::JsonValue()},
            {"hw.available", hw ? 1 : 0},
            {"feasible", timing.has_value()}};
        for (int p = 0; p < 3; ++p) {
          const std::string prefix = std::string("hw.") + kHwPhases[p];
          report_row.push_back(
              {prefix + ".ipc",
               hw ? obs::JsonValue(timing->hw[p].ipc()) : obs::JsonValue()});
          report_row.push_back(
              {prefix + ".cache_miss_rate",
               hw ? obs::JsonValue(timing->hw[p].cache_miss_rate())
                  : obs::JsonValue()});
          report_row.push_back(
              {prefix + ".cycles_per_atom",
               hw ? obs::JsonValue(timing->hw[p].cycles / per_step_atoms)
                  : obs::JsonValue()});
        }
        report.add_result(std::move(report_row));
      }
      std::printf("%s\n", table.render().c_str());
    }

    const std::string metrics_out = cli.get("metrics-out");
    if (!metrics_out.empty()) {
      if (report.write(metrics_out)) {
        std::printf("bench report: %zu result rows -> %s\n",
                    report.results(), metrics_out.c_str());
      } else {
        std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
        return 1;
      }
    }
    return 0;
  }

  std::printf(
      "=== Fig. 9: strategy speedup curves (scale %s, %s, %d steps)\n\n",
      to_string(scale).c_str(), thread_summary().c_str(), steps);

  for (const TestCase& test_case : cases) {
    CaseRunner runner(test_case, iron);
    const double serial = runner.serial_seconds_per_step(steps);
    std::printf("--- case %s: %zu atoms, serial density+force %.4f s/step\n",
                test_case.name.c_str(), test_case.atom_count(), serial);

    std::vector<std::string> headers{"speedup"};
    for (int t : threads) headers.push_back(std::to_string(t));
    AsciiTable table(headers);

    for (ReductionStrategy strategy : strategies) {
      std::vector<std::string> row{to_string(strategy)};
      for (int t : threads) {
        EamForceConfig cfg;
        cfg.strategy = strategy;
        cfg.sdc.dimensionality = 2;
        const auto timing = runner.time_strategy(cfg, t, steps);
        row.push_back(format_speedup(
            timing ? std::optional<double>(serial /
                                           timing->density_force_seconds)
                   : std::nullopt));
        csv.add_row(
            {test_case.name, std::to_string(test_case.atom_count()),
             to_string(strategy), std::to_string(t),
             timing ? AsciiTable::fmt(timing->density_force_seconds, 6) : "",
             timing
                 ? AsciiTable::fmt(serial / timing->density_force_seconds, 3)
                 : "",
             timing ? std::to_string(timing->pair_visits) : "",
             timing ? std::to_string(timing->private_bytes) : ""});
        report.add_result(
            {{"case", test_case.name},
             {"atoms", test_case.atom_count()},
             {"strategy", to_string(strategy)},
             {"threads", t},
             {"serial_seconds_per_step", serial},
             {"seconds_per_step",
              timing ? obs::JsonValue(timing->density_force_seconds)
                     : obs::JsonValue()},
             {"speedup",
              timing
                  ? obs::JsonValue(serial / timing->density_force_seconds)
                  : obs::JsonValue()},
             {"pair_visits", timing ? obs::JsonValue(timing->pair_visits)
                                    : obs::JsonValue()},
             {"private_bytes", timing ? obs::JsonValue(timing->private_bytes)
                                      : obs::JsonValue()},
             {"feasible", timing.has_value()}});
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }

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

  std::printf(
      "mechanism check (independent of core count):\n"
      "  RC pair visits per step are 2x every other strategy (full lists);\n"
      "  SAP allocates threads x N replicas; SDC allocates none.\n"
      "paper reference (large case 4, 16 cores): SDC ~12.4, RC ~7,\n"
      "SAP ~4 (peaks near 8 cores), CS < 1.\n");
  return 0;
}
