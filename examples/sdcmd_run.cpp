// sdcmd-run: supervised production driver with a durable run directory.
//
// Wraps the standard bcc-iron EAM workload in the run supervisor
// (src/run/): crash-safe checkpoint ring with keep-last-K retention,
// run_state.v1 sidecar, auto-resume, retry-with-backoff checkpoint writes,
// SIGTERM/SIGINT checkpoint-then-clean-exit, and a wall-clock watchdog.
// Kill it at any moment — `--resume` continues from the newest valid ring
// generation with the original step numbering, the rollback-adjusted dt,
// and the governor's demoted rung intact.
//
//   ./sdcmd-run --run-dir my_run.d --steps 5000 --checkpoint-every 100
//   kill -TERM <pid>                   # checkpoints, exits with code 3
//   ./sdcmd-run --run-dir my_run.d --steps 5000 --resume
//
// Exit codes (asserted by scripts/chaos_resume.py):
//   0  reached the target step
//   1  error (bad flags, config-hash mismatch, energy discontinuity)
//   3  signal-driven graceful shutdown (checkpointed)
//   4  wall-clock budget expired (checkpointed)
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/units.hpp"
#include "md/simulation.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "potential/finnis_sinclair.hpp"
#include "run/run_dir.hpp"
#include "run/supervisor.hpp"

int main(int argc, char** argv) {
  using namespace sdcmd;
  using namespace sdcmd::run;

  // Line-buffer stdout even when it is a pipe: the chaos harness SIGKILLs
  // this process and still needs the resume/continuity lines it printed.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  CliParser cli("sdcmd-run",
                "supervised MD run: durable run directory, auto-resume, "
                "graceful shutdown");
  cli.add_option("run-dir", "sdcmd_run.d", "durable run directory");
  cli.add_flag("resume", "resume from the newest valid ring checkpoint");
  cli.add_option("keep", "3", "checkpoint retention ring size");
  cli.add_option("max-wall", "0", "wall-clock budget in seconds (0 = off)");
  cli.add_option("cells", "5", "bcc cells per box edge");
  cli.add_option("steps", "1000", "absolute target step");
  cli.add_option("temp", "300", "initial temperature (K, fresh starts only)");
  cli.add_option("seed", "12345", "velocity RNG seed");
  cli.add_option("dt-fs", "1.0", "time step in fs");
  cli.add_option("strategy", "sdc", "preferred governor rung");
  cli.add_flag("no-governor", "run the fixed strategy without the governor");
  cli.add_option("checkpoint-every", "100", "checkpoint cadence (steps)");
  cli.add_option("thermo-every", "200", "thermo print cadence (0 = quiet)");
  cli.add_option("jsonl", "", "step-metrics JSONL output path (optional)");
  cli.add_flag("hw-counters",
               "per-phase hardware counters (hw.* gauges; no-op when "
               "perf_event_open is unavailable)");
  cli.add_option("watchdog-min", "1.0",
                 "watchdog floor in seconds (0 disables the watchdog)");
  cli.add_option("inject-disk-full", "0",
                 "arm run.disk_full for N checkpoint write attempts (drill)");
  cli.add_flag("inject-torn-manifest",
               "tear the next MANIFEST write (drill)");
  if (!cli.parse(argc, argv)) return exit_code::kError;

  const int cells = cli.get_int("cells");
  const long target = cli.get_int("steps");
  const double temp = cli.get_double("temp");
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double dt = units::fs_to_internal(cli.get_double("dt-fs"));
  const bool governed = !cli.get_bool("no-governor");
  const ReductionStrategy preferred = parse_strategy(cli.get("strategy"));

  // Everything that determines the trajectory goes into the fingerprint;
  // resuming with different physics flags is refused, not silently blended.
  std::uint64_t config_hash = kFnv1a64Offset;
  config_hash = fnv1a64_mix(config_hash, cells);
  config_hash = fnv1a64_mix(config_hash, dt);
  config_hash = fnv1a64_mix(config_hash, temp);
  config_hash = fnv1a64_mix(config_hash, seed);
  config_hash = fnv1a64_mix(config_hash, governed);
  config_hash =
      fnv1a64_mix(config_hash, StrategyGovernor::strategy_code(preferred));

  try {
    RunDir dir(cli.get("run-dir"), cli.get_int("keep"));

    std::optional<ResumePoint> resume;
    if (cli.get_bool("resume")) {
      resume = dir.try_resume_provable();
      if (!resume) {
        std::printf("sdcmd-run: nothing to resume in %s; starting fresh\n",
                    dir.path().c_str());
      }
    } else if (!dir.scan_ring().empty()) {
      std::fprintf(stderr,
                   "sdcmd-run: %s already holds checkpoints; pass --resume "
                   "to continue that run or point --run-dir elsewhere\n",
                   dir.path().c_str());
      return exit_code::kError;
    }

    SimulationConfig config;
    config.dt = dt;
    config.force.strategy =
        governed ? ReductionStrategy::Serial : preferred;
    if (resume && resume->state_valid && resume->state.has_governor) {
      // Construct on the checkpointed (possibly demoted) rung: the saved
      // box may be infeasible for the preferred one.
      config.force.strategy = resume->state.governor.active;
    }

    System system = [&] {
      if (resume) return resume->checkpoint.system;
      LatticeSpec lattice;
      lattice.type = LatticeType::Bcc;
      lattice.a0 = units::kLatticeFe;
      lattice.nx = lattice.ny = lattice.nz = cells;
      return System::from_lattice(lattice, units::kMassFe);
    }();

    FinnisSinclair iron(FinnisSinclairParams::iron());
    Simulation sim(std::move(system), iron, config);

    GovernorConfig gov;
    gov.preferred = preferred;

    if (resume) {
      sim.set_current_step(resume->checkpoint.step);
      std::printf(
          "sdcmd-run: resumed at step %ld (discarded %d corrupt "
          "candidate(s), manifest_fallback=%d, sidecar=%s)\n",
          resume->checkpoint.step, resume->discarded,
          resume->manifest_fallback ? 1 : 0,
          resume->state_valid ? "ok" : "missing");
      if (resume->state_valid) {
        const RunState& state = resume->state;
        if (state.config_hash != 0 && state.config_hash != config_hash) {
          std::fprintf(stderr,
                       "sdcmd-run: config hash mismatch (run dir %016llx, "
                       "flags %016llx); refusing to resume different "
                       "physics\n",
                       static_cast<unsigned long long>(state.config_hash),
                       static_cast<unsigned long long>(config_hash));
          return exit_code::kError;
        }
        sim.set_dt(state.dt);
        sim.set_com_momentum_zeroed(state.momentum_zeroed);
        if (governed && state.has_governor) {
          sim.set_governor(gov, state.governor);
        } else if (governed) {
          sim.set_governor(gov);
        }
        // Continuity proof: the reloaded state must reproduce the energy
        // recorded when the checkpoint was written.
        sim.compute_forces();
        const double now = sim.sample().total_energy();
        const double ref = state.total_energy;
        const double rel =
            std::abs(now - ref) / std::max(1.0, std::abs(ref));
        std::printf(
            "sdcmd-run: resume energy continuity rel=%.3e (ref=%.12f, "
            "now=%.12f)\n",
            rel, ref, now);
        if (!(rel <= 1e-8)) {
          std::fprintf(stderr,
                       "sdcmd-run: energy discontinuity across resume "
                       "(rel=%.3e > 1e-8)\n",
                       rel);
          return exit_code::kError;
        }
      } else if (governed) {
        sim.set_governor(gov);
      }
    } else {
      sim.set_temperature(temp, seed);
      if (governed) sim.set_governor(gov);
    }

    obs::MetricsRegistry registry;
    std::optional<obs::StepMetricsWriter> jsonl;
    InstrumentationConfig inst;
    inst.registry = &registry;
    inst.profile_hw = cli.get_bool("hw-counters");
    if (!cli.get("jsonl").empty()) {
      jsonl.emplace(cli.get("jsonl"));
      inst.step_writer = &*jsonl;
    }
    sim.set_instrumentation(inst);

    SupervisorConfig sup;
    sup.checkpoint_every = cli.get_int("checkpoint-every");
    sup.max_wall_seconds = cli.get_double("max-wall");
    sup.watchdog_min_seconds = cli.get_double("watchdog-min");
    if (sup.watchdog_min_seconds <= 0.0) sup.watchdog_factor = 0.0;
    sup.config_hash = config_hash;
    sup.registry = &registry;
    // Every supervised run ends its JSONL stream with one cumulative
    // kind=summary record (flushed), whatever the outcome.
    sup.step_writer = jsonl ? &*jsonl : nullptr;

    const int disk_full_shots = cli.get_int("inject-disk-full");
    if (disk_full_shots > 0) {
      FaultSpec spec;
      spec.shots = disk_full_shots;
      spec.countdown = 1;  // let the initial resume-point write land first
      FaultInjector::instance().arm(faults::kDiskFull, spec);
    }
    if (cli.get_bool("inject-torn-manifest")) {
      FaultSpec spec;
      spec.countdown = 1;
      FaultInjector::instance().arm(faults::kManifestTornWrite, spec);
    }

    RunSupervisor supervisor(sim, dir, sup);

    const long thermo_every = cli.get_int("thermo-every");
    Simulation::Callback callback;
    if (thermo_every > 0) {
      callback = [thermo_every](const Simulation& s, long step) {
        if (step % thermo_every != 0) return;
        const ThermoSample t = s.sample();
        std::printf("  step %-8ld T %8.2f K  Etot %14.8f eV  strategy %s\n",
                    step, t.temperature, t.total_energy(),
                    s.has_governor()
                        ? to_string(s.governor()->active()).c_str()
                        : "fixed");
        std::fflush(stdout);
      };
    }

    if (sim.current_step() >= target) {
      std::printf("sdcmd-run: already at step %ld >= target %ld\n",
                  sim.current_step(), target);
      return exit_code::kCompleted;
    }

    const RunOutcome outcome = supervisor.run_to(target, callback);
    sim.compute_forces();
    std::printf(
        "sdcmd-run: outcome=%s step=%ld etot=%.12f checkpoints=%ld "
        "retries=%ld failures=%ld watchdog_trips=%ld interval=%ld\n",
        to_string(outcome).c_str(), sim.current_step(),
        sim.sample().total_energy(), supervisor.checkpoints_written(),
        supervisor.checkpoint_retries(), supervisor.checkpoint_failures(),
        supervisor.watchdog_trips(), supervisor.checkpoint_interval());
    switch (outcome) {
      case RunOutcome::Completed: return exit_code::kCompleted;
      case RunOutcome::SignalShutdown: return exit_code::kSignalShutdown;
      case RunOutcome::WallClockExpired: return exit_code::kWallClockExpired;
    }
    return exit_code::kError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdcmd-run: error: %s\n", e.what());
    return exit_code::kError;
  }
}
