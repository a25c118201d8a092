#include "benchsupport/sweep.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "geom/defects.hpp"
#include "obs/sweep_profile.hpp"
#include "common/log.hpp"
#include "common/random.hpp"
#include "common/threads.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"

namespace sdcmd::bench {

namespace {

/// Displace lattice sites with Gaussian noise of thermal amplitude so the
/// configuration is representative of a live run (perfect lattices have
/// identical neighbor counts but unnaturally uniform memory access).
void thermal_perturbation(System& system, double temperature,
                          std::uint64_t seed) {
  if (temperature <= 0.0) return;
  // Equipartition estimate: 1/2 k x^2 ~ 3/2 kB T with an eV/A^2-scale
  // spring constant; ~0.05-0.1 A at 300 K, small versus the 0.4 A skin.
  const double amplitude =
      std::sqrt(3.0 * units::kBoltzmann * temperature / 5.0);
  Xoshiro256 rng(seed);
  for (auto& r : system.atoms().position) {
    r += Vec3{rng.normal(0.0, amplitude), rng.normal(0.0, amplitude),
              rng.normal(0.0, amplitude)};
  }
  system.wrap_positions();
}

}  // namespace

CaseRunner::CaseRunner(const TestCase& test_case,
                       const EamPotential& potential, double skin,
                       double temperature, std::uint64_t seed)
    : potential_(potential), skin_(skin) {
  system_ = std::make_unique<System>(
      System::from_lattice(test_case.lattice(), units::kMassFe));
  thermal_perturbation(*system_, temperature, seed);
}

std::size_t CaseRunner::carve_void(double radius_fraction) {
  SDCMD_REQUIRE(!half_list_ && !full_list_ && !serial_time_,
                "carve_void must precede every timing call");
  SDCMD_REQUIRE(radius_fraction > 0.0 && radius_fraction < 0.5,
                "void radius fraction must be in (0, 0.5)");
  const Box box = system_->box();
  const Vec3 center = (box.lo() + box.hi()) * 0.5;
  const double min_edge =
      std::min({box.length(0), box.length(1), box.length(2)});
  std::vector<Vec3> positions = system_->atoms().position;
  const std::size_t removed =
      carve_sphere(positions, box, center, radius_fraction * min_edge);
  const double mass = system_->mass();
  system_ = std::make_unique<System>(box, Atoms(std::move(positions)), mass);
  return removed;
}

const NeighborList& CaseRunner::list_for(NeighborMode mode) {
  auto& slot = mode == NeighborMode::Half ? half_list_ : full_list_;
  if (!slot) {
    NeighborListConfig cfg;
    cfg.cutoff = potential_.cutoff();
    cfg.skin = skin_;
    cfg.mode = mode;
    cfg.sort_neighbors = true;
    slot = std::make_unique<NeighborList>(system_->box(), cfg);
    slot->build(system_->atoms().position);
  }
  return *slot;
}

std::optional<Timing> CaseRunner::time_strategy(
    const EamForceConfig& config, int threads, int steps,
    const SweepInstrumentation* instr) {
  SDCMD_REQUIRE(threads >= 1, "need at least one thread");
  SDCMD_REQUIRE(steps >= 1, "need at least one timed step");
  SDCMD_REQUIRE(instr == nullptr || instr->jsonl == nullptr ||
                    instr->registry != nullptr,
                "SweepInstrumentation::jsonl requires a registry");

  const NeighborList& list = list_for(required_mode(config.strategy));
  EamForceComputer computer(potential_, config);
  try {
    computer.attach_schedule(system_->box(), potential_.cutoff() + skin_);
  } catch (const InfeasibleError& e) {
    SDCMD_DEBUG("infeasible configuration: " << e.what());
    return std::nullopt;
  }
  computer.on_neighbor_rebuild(system_->atoms().position);

  // The paper additionally skips configurations whose per-color subdomain
  // supply cannot feed every thread (1-D SDC, small case, >= 12 threads).
  if (config.strategy == ReductionStrategy::Sdc &&
      computer.schedule()->subdomains_per_color() <
          static_cast<std::size_t>(threads)) {
    return std::nullopt;
  }

  const int previous_threads = max_threads();
  set_threads(config.strategy == ReductionStrategy::Serial ? 1 : threads);

  // An instrumented pass enables the profiled sweep variant and exports
  // each timed evaluation as one "step" (JSONL record + trace slices).
  obs::MetricsRegistry::Handle h_steps = 0, h_step_seconds = 0;
  bool hw_on = false;
  if (instr != nullptr) {
    computer.sweep_profiler().set_enabled(true);
    if (instr->hw_counters) {
      computer.hw_profiler().set_enabled(true);
      hw_on = computer.hw_profiler().enabled();  // refused when unavailable
    }
    if (instr->registry != nullptr) {
      h_steps = instr->registry->counter("bench.steps");
      h_step_seconds = instr->registry->stats("bench.step_seconds");
      if (instr->hw_counters) {
        instr->registry->set(instr->registry->gauge("hw.available"),
                             hw_on ? 1.0 : 0.0);
      }
    }
  }
  // Trace track for the driver-side per-step spans (the sweep slices land
  // on the OpenMP thread tracks named by append_sweep_events).
  constexpr int kDriverTid = 1000;

  Atoms& atoms = system_->atoms();
  computer.compute(system_->box(), atoms.position, list, atoms.rho,
                   atoms.fp, atoms.force);  // warmup
  computer.reset_instrumentation();
  std::array<obs::HwCounts, 3> hw_acc{};
  for (int s = 0; s < steps; ++s) {
    const double t0 = instr != nullptr ? wall_time() : 0.0;
    computer.compute(system_->box(), atoms.position, list, atoms.rho,
                     atoms.fp, atoms.force);
    if (instr == nullptr) continue;
    if (hw_on) {
      for (const auto& pt : computer.hw_profiler().phase_totals()) {
        if (pt.phase >= 0 && pt.phase < 3) {
          hw_acc[static_cast<std::size_t>(pt.phase)].accumulate(pt.counts);
        }
      }
    }
    const double step_wall = wall_time() - t0;
    if (instr->registry != nullptr) {
      instr->registry->add(h_steps);
      instr->registry->observe(h_step_seconds, step_wall);
    }
    const std::string label = "step " + std::to_string(s);
    if (instr->trace != nullptr) {
      instr->trace->set_thread_name(kDriverTid, "bench driver");
      instr->trace->complete_event(label, "bench", t0, step_wall, kDriverTid);
      obs::append_sweep_events(*instr->trace, computer.sweep_profiler(),
                               label + "/");
    }
    if (instr->jsonl != nullptr) {
      instr->jsonl->write_step(s, *instr->registry,
                               &computer.sweep_profiler(), step_wall);
    }
  }
  set_threads(previous_threads);

  if (hw_on && instr != nullptr && instr->registry != nullptr) {
    // Per-phase derived gauges from the whole timed loop, so the summary
    // record (and CI's --require-metrics hw.) sees stable aggregates.
    static const char* kPhases[3] = {"density", "embed", "force"};
    const double per_step_atoms =
        static_cast<double>(steps) * static_cast<double>(atoms.size());
    for (std::size_t p = 0; p < 3; ++p) {
      const std::string prefix = std::string("hw.") + kPhases[p];
      obs::MetricsRegistry& r = *instr->registry;
      r.set(r.gauge(prefix + ".ipc"), hw_acc[p].ipc());
      r.set(r.gauge(prefix + ".cache_miss_rate"), hw_acc[p].cache_miss_rate());
      r.set(r.gauge(prefix + ".cycles_per_atom"),
            per_step_atoms > 0.0 ? hw_acc[p].cycles / per_step_atoms : 0.0);
    }
  }
  if (instr != nullptr && instr->jsonl != nullptr) {
    // End-of-case summary: one cumulative record per timed case so report
    // diffing has a stable aggregate (see docs/observability.md).
    instr->jsonl->write_summary(steps, *instr->registry);
  }

  Timing t;
  double density = 0.0, embed = 0.0, force = 0.0;
  for (const auto& e : computer.timers().entries()) {
    if (e.name == "density") density = e.seconds;
    if (e.name == "embed") embed = e.seconds;
    if (e.name == "force") force = e.seconds;
  }
  t.density_force_seconds = (density + force) / steps;
  t.total_seconds = (density + embed + force) / steps;
  t.pair_visits = computer.stats().density_pair_visits / steps;
  t.private_bytes = computer.stats().private_array_bytes;
  if (instr != nullptr) {
    // Barrier-stretch gauge of the last timed step: worst color imbalance
    // over the two scatter phases (embed is barrier-free in every shape).
    for (const auto& p : computer.sweep_profiler().color_profiles()) {
      if (p.phase == 1) continue;
      t.sweep_imbalance = std::max(t.sweep_imbalance, p.imbalance);
    }
  }
  if (hw_on) {
    t.hw = hw_acc;
    t.hw_valid = hw_acc[0].valid || hw_acc[2].valid;
  }
  return t;
}

double CaseRunner::serial_seconds_per_step(int steps) {
  if (!serial_time_) {
    EamForceConfig config;
    config.strategy = ReductionStrategy::Serial;
    const auto timing = time_strategy(config, 1, steps);
    SDCMD_REQUIRE(timing.has_value(), "serial timing cannot be infeasible");
    serial_time_ = timing->density_force_seconds;
  }
  return *serial_time_;
}

std::string format_speedup(std::optional<double> speedup) {
  if (!speedup) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", *speedup);
  return buf;
}

}  // namespace sdcmd::bench
