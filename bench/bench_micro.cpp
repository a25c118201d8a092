// Kernel-level microbenchmarks (google-benchmark): the building blocks
// whose costs explain the macro results - potential evaluation, neighbor
// machinery, schedule construction, and the per-update cost of each
// synchronization primitive the strategies rely on.
//
// Besides the google-benchmark suite, `--hw-counters` runs the
// perf_event_open table: per-phase cycles/atom, IPC, cache-miss rate and
// FP scalar/vector op mix for one EAM workload, same values in the printed
// table and the sdcmd.bench.v1 report. `--soa on|off|ab` runs the SoA A/B
// harness: RC's fused EAM step over a padded full list (SIMD gathers) vs
// an unpadded one (scalar gathers), reporting per-phase seconds/step plus
// FP vector-vs-scalar op counts so vectorization wins show up in the
// counters too.
#include <benchmark/benchmark.h>
#include <omp.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/random.hpp"
#include "common/threads.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "core/eam_force.hpp"
#include "core/sdc_schedule.hpp"
#include "geom/lattice.hpp"
#include "neighbor/neighbor_list.hpp"
#include "neighbor/reorder.hpp"
#include "obs/bench_report.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/tabulated.hpp"

namespace {

using namespace sdcmd;

constexpr double kSkin = 0.4;

std::vector<Vec3> jittered_bcc(int cells, Box& box_out) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = cells;
  box_out = spec.box();
  auto positions = build_lattice(spec);
  Xoshiro256 rng(1);
  for (auto& r : positions) {
    r += Vec3{rng.normal(0.0, 0.05), rng.normal(0.0, 0.05),
              rng.normal(0.0, 0.05)};
    r = box_out.wrap(r);
  }
  return positions;
}

void BM_FsAnalyticEvaluation(benchmark::State& state) {
  FinnisSinclair fe(FinnisSinclairParams::iron());
  Xoshiro256 rng(2);
  std::vector<double> rs(1024);
  for (auto& r : rs) r = rng.uniform(2.0, 3.5);
  for (auto _ : state) {
    double acc = 0.0;
    for (double r : rs) {
      double v, dv, phi, dphi;
      fe.pair(r, v, dv);
      fe.density(r, phi, dphi);
      acc += v + phi;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * rs.size());
}
BENCHMARK(BM_FsAnalyticEvaluation);

void BM_TabulatedEvaluation(benchmark::State& state) {
  FinnisSinclair fe(FinnisSinclairParams::iron());
  const auto tab = TabulatedEam::from_analytic(fe, 2000, 2000, 60.0);
  Xoshiro256 rng(2);
  std::vector<double> rs(1024);
  for (auto& r : rs) r = rng.uniform(2.0, 3.5);
  for (auto _ : state) {
    double acc = 0.0;
    for (double r : rs) {
      double v, dv, phi, dphi;
      tab.pair(r, v, dv);
      tab.density(r, phi, dphi);
      acc += v + phi;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * rs.size());
}
BENCHMARK(BM_TabulatedEvaluation);

void BM_NeighborListBuild(benchmark::State& state) {
  Box box = Box::cubic(1.0);
  const auto positions = jittered_bcc(static_cast<int>(state.range(0)), box);
  NeighborListConfig cfg;
  cfg.cutoff = 3.569745;
  cfg.skin = kSkin;
  NeighborList list(box, cfg);
  for (auto _ : state) {
    list.build(positions);
    benchmark::DoNotOptimize(list.pair_count());
  }
  state.SetItemsProcessed(state.iterations() * positions.size());
}
BENCHMARK(BM_NeighborListBuild)->Arg(6)->Arg(10)->Arg(14);

void BM_SdcScheduleBuild(benchmark::State& state) {
  Box box = Box::cubic(1.0);
  const auto positions = jittered_bcc(static_cast<int>(state.range(0)), box);
  SdcConfig cfg;
  cfg.dimensionality = 2;
  SdcSchedule schedule(box, 3.569745 + kSkin, cfg);
  for (auto _ : state) {
    schedule.rebuild(positions);
    benchmark::DoNotOptimize(schedule.partition().atom_count());
  }
  state.SetItemsProcessed(state.iterations() * positions.size());
}
BENCHMARK(BM_SdcScheduleBuild)->Arg(10)->Arg(14);

void BM_SpatialSortPermutation(benchmark::State& state) {
  Box box = Box::cubic(1.0);
  const auto positions = jittered_bcc(static_cast<int>(state.range(0)), box);
  for (auto _ : state) {
    auto perm = spatial_sort_permutation(box, positions, 3.97);
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(state.iterations() * positions.size());
}
BENCHMARK(BM_SpatialSortPermutation)->Arg(10);

// The per-update cost of each scatter-protection primitive, measured on
// the same random-index scatter pattern. This is the mechanism behind the
// Fig. 9 ordering: plain write < atomic < critical.
void scatter_benchmark(benchmark::State& state, int mode) {
  const std::size_t n = 1 << 16;
  std::vector<double> array(n, 0.0);
  Xoshiro256 rng(3);
  std::vector<std::uint32_t> idx(4096);
  for (auto& i : idx) i = static_cast<std::uint32_t>(rng.below(n));

  for (auto _ : state) {
    switch (mode) {
      case 0:
        for (std::uint32_t i : idx) array[i] += 1.0;
        break;
      case 1:
        for (std::uint32_t i : idx) {
#pragma omp atomic
          array[i] += 1.0;
        }
        break;
      case 2:
        for (std::uint32_t i : idx) {
#pragma omp critical(bench_scatter)
          array[i] += 1.0;
        }
        break;
    }
    benchmark::DoNotOptimize(array.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * idx.size());
}
void BM_ScatterPlain(benchmark::State& state) { scatter_benchmark(state, 0); }
void BM_ScatterAtomic(benchmark::State& state) { scatter_benchmark(state, 1); }
void BM_ScatterCritical(benchmark::State& state) {
  scatter_benchmark(state, 2);
}
BENCHMARK(BM_ScatterPlain);
BENCHMARK(BM_ScatterAtomic);
BENCHMARK(BM_ScatterCritical);

// Cost of one empty colored sweep = the pure synchronization overhead SDC
// pays per phase (colors x omp-for barriers).
void BM_ColorSweepBarrierOverhead(benchmark::State& state) {
  Box box = Box::cubic(1.0);
  const auto positions = jittered_bcc(10, box);
  SdcConfig cfg;
  cfg.dimensionality = static_cast<int>(state.range(0));
  SdcSchedule schedule(box, 3.97, cfg);
  schedule.rebuild(positions);
  const Partition& part = schedule.partition();

  for (auto _ : state) {
    std::size_t visited = 0;
#pragma omp parallel reduction(+ : visited)
    {
      for (int c = 0; c < part.color_count(); ++c) {
#pragma omp for schedule(static)
        for (std::size_t slot = part.color_begin(c);
             slot < part.color_end(c); ++slot) {
          visited += part.atoms_in_slot(slot).size();
        }
      }
    }
    benchmark::DoNotOptimize(visited);
  }
}
BENCHMARK(BM_ColorSweepBarrierOverhead)->Arg(1)->Arg(2)->Arg(3);

// One full EAM force evaluation per strategy (fixed small workload):
// the end-to-end cost the macro benches sweep.
void strategy_benchmark(benchmark::State& state, ReductionStrategy strategy) {
  static FinnisSinclair fe{FinnisSinclairParams::iron()};
  Box box = Box::cubic(1.0);
  const auto positions = jittered_bcc(8, box);

  NeighborListConfig nl_cfg;
  nl_cfg.cutoff = fe.cutoff();
  nl_cfg.skin = kSkin;
  nl_cfg.mode = required_mode(strategy);
  NeighborList list(box, nl_cfg);
  list.build(positions);

  EamForceConfig cfg;
  cfg.strategy = strategy;
  cfg.sdc.dimensionality = 2;
  EamForceComputer computer(fe, cfg);
  computer.attach_schedule(box, fe.cutoff() + kSkin);
  computer.on_neighbor_rebuild(positions);

  std::vector<double> rho(positions.size()), fp(positions.size());
  std::vector<Vec3> force(positions.size());
  for (auto _ : state) {
    auto result =
        computer.compute(box, positions, list, rho, fp, force);
    benchmark::DoNotOptimize(result.pair_energy);
  }
  state.SetItemsProcessed(state.iterations() * list.pair_count());
}
void BM_EamSerial(benchmark::State& s) {
  strategy_benchmark(s, ReductionStrategy::Serial);
}
void BM_EamAtomic(benchmark::State& s) {
  strategy_benchmark(s, ReductionStrategy::Atomic);
}
void BM_EamSap(benchmark::State& s) {
  strategy_benchmark(s, ReductionStrategy::ArrayPrivatization);
}
void BM_EamRc(benchmark::State& s) {
  strategy_benchmark(s, ReductionStrategy::RedundantComputation);
}
void BM_EamSdc(benchmark::State& s) {
  strategy_benchmark(s, ReductionStrategy::Sdc);
}
BENCHMARK(BM_EamSerial);
BENCHMARK(BM_EamAtomic);
BENCHMARK(BM_EamSap);
BENCHMARK(BM_EamRc);
BENCHMARK(BM_EamSdc);

// --- SoA fast-path A/B harness ---------------------------------------------

/// One timed configuration of the SoA A/B: per-phase wall clock plus
/// per-phase hardware counts (when perf_event_open is usable) so the
/// vectorization win is visible as an FP vector-vs-scalar op shift, not
/// just wall-clock.
struct SoaMeasurement {
  double seconds_per_step = 0.0;
  double phase_s[3] = {0.0, 0.0, 0.0};  ///< density, embed, force
  obs::HwCounts hw[3];
  std::size_t soa_steps = 0;
  double pad_fraction = 0.0;
};

/// RC over `list`: the SoA path runs when the list carries padded tiles.
SoaMeasurement time_soa(const EamPotential& pot, const Box& box,
                        const std::vector<Vec3>& positions,
                        const NeighborList& list, int steps, int warmup,
                        bool enable_hw) {
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::RedundantComputation;
  EamForceComputer computer(pot, cfg);
  if (enable_hw) computer.hw_profiler().set_enabled(true);

  const std::size_t n = positions.size();
  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> force(n);
  for (int s = 0; s < warmup; ++s) {
    computer.compute(box, positions, list, rho, fp, force);
  }
  computer.reset_instrumentation();
  SoaMeasurement m;
  const double t0 = wall_time();
  for (int s = 0; s < steps; ++s) {
    auto result = computer.compute(box, positions, list, rho, fp, force);
    benchmark::DoNotOptimize(result.pair_energy);
    for (const auto& pt : computer.hw_profiler().phase_totals()) {
      if (pt.phase >= 0 && pt.phase < 3) m.hw[pt.phase].accumulate(pt.counts);
    }
  }
  m.seconds_per_step = (wall_time() - t0) / steps;
  for (const auto& e : computer.timers().entries()) {
    const double per_step = e.seconds / steps;
    if (e.name == "density") m.phase_s[0] = per_step;
    if (e.name == "embed") m.phase_s[1] = per_step;
    if (e.name == "force") m.phase_s[2] = per_step;
  }
  m.soa_steps = computer.stats().soa_steps;
  m.pad_fraction = computer.stats().soa_pad_fraction;
  return m;
}

int run_soa_ab(int argc, char** argv) {
  CliParser cli("bench_micro",
                "SoA fast-path A/B: RC's fused EAM step over a padded full "
                "list (SIMD gathers) vs an unpadded one (scalar gathers)");
  cli.add_option("soa", "ab", "on|off|ab (ab runs both)");
  cli.add_option("cells", "10", "bcc cells per box edge");
  cli.add_option("steps", "25", "timed force evaluations per config");
  cli.add_option("warmup", "5", "untimed evaluations before the clock");
  cli.add_option("metrics-out", "", "write sdcmd.bench.v1 JSON here");
  if (!cli.parse(argc, argv)) return 1;

  const std::string mode = cli.get("soa");
  if (mode != "on" && mode != "off" && mode != "ab") {
    std::fprintf(stderr, "--soa must be on, off or ab (got %s)\n",
                 mode.c_str());
    return 1;
  }
  const int cells = cli.get_int("cells");
  const int steps = cli.get_int("steps");
  const int warmup = cli.get_int("warmup");
  const ReductionStrategy strategy = ReductionStrategy::RedundantComputation;

  // Tabulated iron: the SoA path requires packed spline tables, so this is
  // the configuration it actually accelerates in production.
  FinnisSinclair fe(FinnisSinclairParams::iron());
  const TabulatedEam tab = TabulatedEam::from_analytic(fe, 2000, 2000, 60.0);
  Box box = Box::cubic(1.0);
  const auto positions = jittered_bcc(cells, box);

  // The two arms differ only in the list: padded tiles (the width the
  // computer asks for, so the bench can't drift from production gating)
  // vs none. Both enumerate the same pairs in the same order.
  NeighborListConfig nl_cfg;
  nl_cfg.cutoff = tab.cutoff();
  nl_cfg.skin = kSkin;
  nl_cfg.mode = required_mode(strategy);
  NeighborList scalar_list(box, nl_cfg);
  scalar_list.build(positions);
  EamForceConfig probe_cfg;
  probe_cfg.strategy = strategy;
  nl_cfg.pad_width = EamForceComputer(tab, probe_cfg).neighbor_pad_width();
  NeighborList list(box, nl_cfg);
  list.build(positions);

  const bool hw_probe = []() {
    obs::PerfPhaseProfiler p;
    p.set_enabled(true);
    return p.enabled();
  }();

  obs::BenchReport report("micro_soa_ab");
  report.set_context("cells", cells);
  report.set_context("atoms", positions.size());
  report.set_context("pairs", list.pair_count());
  report.set_context("steps", steps);
  report.set_context("warmup", warmup);
  report.set_context("strategy", to_string(strategy));
  report.set_context("potential", tab.name());
  report.set_context("hardware_threads", hardware_threads());
  report.set_context("pad_width", list.pad_width());
  report.set_context("hw_available", hw_probe ? 1 : 0);

  std::printf(
      "=== soa A/B: %zu atoms, %zu pairs, %s, %s, %d steps, pad_width %d\n",
      positions.size(), list.pair_count(), to_string(strategy).c_str(),
      thread_summary().c_str(), steps, list.pad_width());

  const double per_step_atoms = static_cast<double>(steps) *
                                static_cast<double>(positions.size());
  auto print_case = [&](const char* name, const SoaMeasurement& m) {
    std::printf("  %s: %.6f s/step (density %.6f, embed %.6f, force %.6f)\n",
                name, m.seconds_per_step, m.phase_s[0], m.phase_s[1],
                m.phase_s[2]);
    if (hw_probe) {
      const obs::HwCounts& f = m.hw[2];
      std::printf(
          "      force phase: %.1f cycles/atom, ipc %.3f, fp_scalar/atom "
          "%.1f, fp_vector/atom %.1f, fp_vec %.1f%%\n",
          f.cycles / per_step_atoms, f.ipc(), f.fp_scalar / per_step_atoms,
          f.fp_vector / per_step_atoms, 100.0 * f.fp_vector_frac());
    }
  };

  SoaMeasurement off, on;
  const bool run_off = mode != "on";
  const bool run_on = mode != "off";
  if (run_off) {
    off = time_soa(tab, box, positions, scalar_list, steps, warmup,
                   hw_probe);
    print_case("soa_off", off);
  }
  if (run_on) {
    on = time_soa(tab, box, positions, list, steps, warmup, hw_probe);
    print_case("soa_on ", on);
    if (on.soa_steps == 0) {
      std::fprintf(stderr,
                   "warning: SoA path never engaged (soa_steps=0); the "
                   "\"on\" column measured the scalar path\n");
    } else {
      std::printf("      pad_fraction %.4f (soa engaged on %zu/%d steps)\n",
                  on.pad_fraction, on.soa_steps, steps);
    }
  }
  const bool have_both = run_off && run_on;
  if (have_both) {
    std::printf("  step speedup %.3fx, force-phase speedup %.3fx, "
                "density-phase speedup %.3fx\n",
                off.seconds_per_step / on.seconds_per_step,
                off.phase_s[2] / on.phase_s[2],
                off.phase_s[0] / on.phase_s[0]);
  }

  static const char* kPhaseNames[3] = {"density", "embed", "force"};
  auto add_row = [&](const char* name, const SoaMeasurement& m,
                     bool baseline) {
    obs::BenchReport::Row row{
        {"case", std::string(name)},
        {"threads", max_threads()},
        {"seconds_per_step", m.seconds_per_step},
        {"density_seconds_per_step", m.phase_s[0]},
        {"embed_seconds_per_step", m.phase_s[1]},
        {"force_seconds_per_step", m.phase_s[2]},
        {"soa_steps", m.soa_steps},
        {"soa_pad_fraction", m.pad_fraction},
        {"speedup", have_both && !baseline
                        ? obs::JsonValue(off.seconds_per_step /
                                         m.seconds_per_step)
                        : obs::JsonValue(1.0)},
        {"force_speedup", have_both && !baseline
                              ? obs::JsonValue(off.phase_s[2] / m.phase_s[2])
                              : obs::JsonValue(1.0)},
        {"feasible", true}};
    for (int p = 0; p < 3; ++p) {
      const obs::HwCounts& c = m.hw[p];
      const std::string prefix = std::string("hw.") + kPhaseNames[p];
      row.emplace_back(prefix + ".cycles_per_atom",
                       c.cycles / per_step_atoms);
      row.emplace_back(prefix + ".ipc", c.ipc());
      row.emplace_back(prefix + ".fp_scalar_per_atom",
                       c.fp_scalar / per_step_atoms);
      row.emplace_back(prefix + ".fp_vector_per_atom",
                       c.fp_vector / per_step_atoms);
      row.emplace_back(prefix + ".fp_vector_frac", c.fp_vector_frac());
    }
    report.add_result(std::move(row));
  };
  if (run_off) add_row("soa_off", off, /*baseline=*/true);
  if (run_on) add_row("soa_on", on, /*baseline=*/!have_both);

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
  // Exit 0 regardless of the measured speedup: CI boxes are too noisy to
  // gate on; the acceptance numbers live in EXPERIMENTS.md.
  return 0;
}

// --- hardware-counter table mode ------------------------------------------

/// One full EAM workload profiled per-phase with perf_event_open: prints a
/// density/embed/force table (cycles/atom, IPC, cache-miss rate, and FP
/// vector fraction when the raw events opened) and writes the same numbers
/// as hw.* row columns in a sdcmd.bench.v1 report. Degrades to a
/// hw_available=0 report (timings only) when the syscall is denied.
int run_hw_counters(int argc, char** argv) {
  CliParser cli("bench_micro",
                "per-phase hardware-counter profile of the fused EAM step "
                "(perf_event_open)");
  cli.add_flag("hw-counters", "run the hardware-counter table mode");
  cli.add_option("cells", "10", "bcc cells per box edge");
  cli.add_option("steps", "25", "timed force evaluations");
  cli.add_option("warmup", "5", "untimed evaluations before the clock");
  cli.add_option("strategy", "sdc",
                 "serial|critical|atomic|locks|sap|rc|sdc|celltask");
  cli.add_option("soa", "on", "on|off: under rc, give the list padded "
                              "tiles (SIMD gathers) or none (scalar)");
  cli.add_option("metrics-out", "", "write sdcmd.bench.v1 JSON here");
  if (!cli.parse(argc, argv)) return 1;

  const int cells = cli.get_int("cells");
  const int steps = cli.get_int("steps");
  const int warmup = cli.get_int("warmup");
  const ReductionStrategy strategy = parse_strategy(cli.get("strategy"));
  const std::string soa_mode = cli.get("soa");
  if (soa_mode != "on" && soa_mode != "off") {
    std::fprintf(stderr, "--soa must be on or off here (got %s); use "
                 "\"--soa ab\" without --hw-counters for the A/B harness\n",
                 soa_mode.c_str());
    return 1;
  }
  const bool use_soa = soa_mode == "on";

  FinnisSinclair fe(FinnisSinclairParams::iron());
  const TabulatedEam tab = TabulatedEam::from_analytic(fe, 2000, 2000, 60.0);
  Box box = Box::cubic(1.0);
  const auto positions = jittered_bcc(cells, box);
  EamForceConfig cfg;
  cfg.strategy = strategy;
  cfg.sdc.dimensionality = 2;
  EamForceComputer computer(tab, cfg);

  NeighborListConfig nl_cfg;
  nl_cfg.cutoff = tab.cutoff();
  nl_cfg.skin = kSkin;
  nl_cfg.mode = required_mode(strategy);
  nl_cfg.pad_width = use_soa ? computer.neighbor_pad_width() : 0;
  NeighborList list(box, nl_cfg);
  list.build(positions);
  computer.attach_schedule(box, tab.cutoff() + kSkin);
  computer.on_neighbor_rebuild(positions);
  computer.hw_profiler().set_enabled(true);
  const bool hw_available = computer.hw_profiler().enabled();

  const std::size_t n = positions.size();
  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> force(n);
  for (int s = 0; s < warmup; ++s) {
    computer.compute(box, positions, list, rho, fp, force);
  }
  computer.reset_instrumentation();
  obs::HwCounts acc[3];
  for (int s = 0; s < steps; ++s) {
    auto result = computer.compute(box, positions, list, rho, fp, force);
    benchmark::DoNotOptimize(result.pair_energy);
    for (const auto& pt : computer.hw_profiler().phase_totals()) {
      if (pt.phase >= 0 && pt.phase < 3) acc[pt.phase].accumulate(pt.counts);
    }
  }
  double phase_seconds[3] = {0.0, 0.0, 0.0};
  for (const auto& e : computer.timers().entries()) {
    if (e.name == "density") phase_seconds[0] = e.seconds / steps;
    if (e.name == "embed") phase_seconds[1] = e.seconds / steps;
    if (e.name == "force") phase_seconds[2] = e.seconds / steps;
  }

  std::printf(
      "=== hw counters: %zu atoms, %zu pairs, %s, %s, %d steps, soa %s\n",
      n, list.pair_count(), to_string(strategy).c_str(),
      thread_summary().c_str(), steps, use_soa ? "on" : "off");
  if (!hw_available) {
    std::printf("  perf_event_open unavailable (paranoid=%d); "
                "hw.available=0, timings only\n",
                obs::PerfPhaseProfiler::paranoid_level());
  }

  obs::BenchReport report("micro_hw_counters");
  report.set_context("cells", cells);
  report.set_context("atoms", n);
  report.set_context("pairs", list.pair_count());
  report.set_context("steps", steps);
  report.set_context("warmup", warmup);
  report.set_context("strategy", to_string(strategy));
  report.set_context("threads", max_threads());
  report.set_context("hardware_threads", hardware_threads());
  report.set_context("soa", soa_mode);
  report.set_context("hw_available", hw_available ? 1 : 0);
  report.set_context("hw_paranoid_level",
                     obs::PerfPhaseProfiler::paranoid_level());

  const double per_step_atoms =
      static_cast<double>(steps) * static_cast<double>(n);
  static const char* kPhases[3] = {"density", "embed", "force"};
  std::printf("  %-8s %12s %12s %8s %10s %12s %12s %8s\n", "phase", "s/step",
              "cycles/atom", "ipc", "miss_rate", "fp_s/atom", "fp_v/atom",
              "fp_vec%");
  for (int p = 0; p < 3; ++p) {
    const obs::HwCounts& c = acc[p];
    const double cycles_per_atom =
        per_step_atoms > 0.0 ? c.cycles / per_step_atoms : 0.0;
    const double fp_scalar_per_atom =
        per_step_atoms > 0.0 ? c.fp_scalar / per_step_atoms : 0.0;
    const double fp_vector_per_atom =
        per_step_atoms > 0.0 ? c.fp_vector / per_step_atoms : 0.0;
    std::printf("  %-8s %12.6f %12.1f %8.3f %10.4f %12.1f %12.1f %8.2f\n",
                kPhases[p], phase_seconds[p], cycles_per_atom, c.ipc(),
                c.cache_miss_rate(), fp_scalar_per_atom, fp_vector_per_atom,
                100.0 * c.fp_vector_frac());
    report.add_result({{"case", std::string(kPhases[p])},
                       {"threads", max_threads()},
                       {"seconds_per_step", phase_seconds[p]},
                       {"hw.cycles_per_atom", cycles_per_atom},
                       {"hw.ipc", c.ipc()},
                       {"hw.cache_miss_rate", c.cache_miss_rate()},
                       {"hw.fp_scalar_per_atom", fp_scalar_per_atom},
                       {"hw.fp_vector_per_atom", fp_vector_per_atom},
                       {"hw.fp_vector_frac", c.fp_vector_frac()},
                       {"hw.available", hw_available ? 1 : 0},
                       {"feasible", true}});
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--hw-counters` routes to the counter table, `--soa ...` to the SoA
  // A/B; anything else goes to google-benchmark as before. --hw-counters
  // wins over --soa because the counter table takes `--soa on|off` as a
  // sub-option.
  bool has_hw = false, has_soa = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--hw-counters") has_hw = true;
    if (arg.rfind("--soa", 0) == 0) has_soa = true;
  }
  if (has_hw) return run_hw_counters(argc, argv);
  if (has_soa) return run_soa_ab(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
