// RunSupervisor: the durable-run lifecycle around a Simulation.
//
// The Simulation driver owns one process-lifetime of physics; the
// supervisor owns the part that must survive the process: a RunDir
// retention ring of crash-safe checkpoints plus the run_state.v1 sidecar,
// written on a step cadence and — crucially — written *defensively*:
//
//  * transient write failures (ENOSPC, short writes, the injected
//    run.disk_full fault) are retried with bounded exponential backoff
//    (run.checkpoint_retries); when the budget is spent the run KEEPS
//    GOING with a widened checkpoint interval (run.checkpoint_failures)
//    instead of dying — losing checkpoint freshness is strictly better
//    than losing the run;
//  * SIGTERM/SIGINT (sigaction, async-signal-safe flag) trigger
//    checkpoint-then-clean-exit at the next step boundary, reported as
//    RunOutcome::SignalShutdown so drivers can exit with a distinct code;
//  * a wall-clock watchdog compares each step against a monotonic deadline
//    scaled from a rolling step-time EWMA; a step that blows through it is
//    flagged (run.watchdog_trips) and the current state force-checkpointed
//    so a subsequent hard hang loses as little as possible;
//  * an optional max-wall budget checkpoints and returns
//    RunOutcome::WallClockExpired in time for a scheduler's grace period.
//
// Resume is RunDir::try_resume_provable() + Simulation::set_current_step() +
// set_governor(config, saved_state); the sdcmd-run driver
// (examples/sdcmd_run.cpp) shows the full wiring and
// scripts/chaos_resume.py kill-tests it. See docs/robustness.md.
#pragma once

#include <signal.h>  // sigaction (POSIX; <csignal> alone does not declare it)

#include <csignal>
#include <cstdint>

#include "md/simulation.hpp"
#include "run/run_dir.hpp"

namespace sdcmd::run {

struct SupervisorConfig {
  /// Write a ring generation every N completed steps (also once at start,
  /// so a kill in the first interval still leaves a resume point).
  long checkpoint_every = 200;
  /// Transient-failure retry budget per checkpoint attempt.
  int max_write_retries = 3;
  /// First retry sleeps this long; each further retry multiplies by
  /// `retry_backoff_factor` (exponential, bounded by the retry budget).
  double retry_backoff_initial_s = 0.05;
  double retry_backoff_factor = 2.0;
  /// When a checkpoint still fails after all retries, multiply the
  /// checkpoint interval by this factor (capped at `max_checkpoint_every`)
  /// instead of killing the run; a later success restores the configured
  /// interval.
  double interval_widen_factor = 2.0;
  long max_checkpoint_every = 10000;
  /// Stop (with a final checkpoint) once this much wall time has elapsed
  /// since run() started; 0 = unlimited.
  double max_wall_seconds = 0.0;
  /// Watchdog: a step slower than ewma * watchdog_factor (never less than
  /// watchdog_min_seconds) trips the hung-step flag and forces a
  /// checkpoint. 0 disables.
  double watchdog_factor = 20.0;
  double watchdog_min_seconds = 1.0;
  /// EWMA smoothing for the rolling step time (0 < alpha <= 1).
  double ewma_alpha = 0.1;
  /// Install SIGTERM/SIGINT handlers for the duration of run() (restored
  /// on exit). Disable when the embedding application owns signal policy;
  /// request_shutdown() remains available either way.
  bool install_signal_handlers = true;
  /// Fingerprint stored in the run_state sidecar (see
  /// common/hash.hpp::fnv1a64_mix); 0 = not recorded.
  std::uint64_t config_hash = 0;
  /// Observability sinks (borrowed; may be null). Metrics land under
  /// "run." — see docs/observability.md.
  obs::MetricsRegistry* registry = nullptr;
  obs::TraceWriter* trace = nullptr;
  /// When set (with a registry), run_to() flushes one cumulative
  /// `kind=summary` record into this stream before every return, so a
  /// durable run always ends with a stable aggregate to diff.
  obs::StepMetricsWriter* step_writer = nullptr;
};

enum class RunOutcome {
  /// Reached the target step.
  Completed,
  /// SIGTERM/SIGINT (or request_shutdown()): checkpointed and stopped.
  SignalShutdown,
  /// max_wall_seconds elapsed: checkpointed and stopped.
  WallClockExpired,
};

std::string to_string(RunOutcome outcome);

/// Suggested process exit codes for drivers (sdcmd-run uses these, the
/// chaos harness asserts them).
namespace exit_code {
inline constexpr int kCompleted = 0;
inline constexpr int kError = 1;
inline constexpr int kSignalShutdown = 3;
inline constexpr int kWallClockExpired = 4;
}  // namespace exit_code

class RunSupervisor {
 public:
  /// Both references are borrowed and must outlive the supervisor.
  RunSupervisor(Simulation& sim, RunDir& dir, SupervisorConfig config);

  /// Drive the simulation to the absolute step `target_step`, writing ring
  /// generations on the checkpoint cadence. Returns why the loop stopped.
  /// `callback` (optional) is forwarded to Simulation::run per step.
  RunOutcome run_to(long target_step,
                    const Simulation::Callback& callback = nullptr);

  /// Quantum-mode driver for embedding servers: advance exactly `steps`
  /// steps with the cadence checkpoint policy but none of run_to()'s
  /// framing — no signal guard, no entry/exit checkpoints, no shutdown
  /// flag or wall-budget checks (the embedder owns those policies and
  /// calls checkpoint_now() at its own lifecycle points). The checkpoint
  /// cadence persists across calls, so many small quanta checkpoint
  /// exactly as often as one long run_to() would.
  void advance(long steps, const Simulation::Callback& callback = nullptr);

  /// Asynchronously request a checkpoint-then-stop at the next step
  /// boundary (what the signal handler does; also callable from tests and
  /// embedding code).
  static void request_shutdown() { shutdown_requested_ = 1; }
  static bool shutdown_requested() { return shutdown_requested_ != 0; }
  static void clear_shutdown_request() { shutdown_requested_ = 0; }

  /// Write a ring generation for the current state, applying the
  /// retry/backoff policy. Returns true on success (including
  /// success-after-retry); false when the attempt was abandoned.
  bool checkpoint_now();

  /// Effective checkpoint interval (widened after persistent failures).
  long checkpoint_interval() const { return interval_; }

  long checkpoints_written() const { return checkpoints_; }
  long checkpoint_retries() const { return retries_; }
  long checkpoint_failures() const { return failures_; }
  long watchdog_trips() const { return watchdog_trips_; }
  /// Rolling step-time EWMA in seconds (0 until the first step).
  double step_ewma_seconds() const { return ewma_; }

 private:
  RunState capture_state() const;
  void mark(const char* name);
  void note_step_time(double seconds);
  void write_summary();

  /// Async-signal-safe shutdown flag shared by every supervisor in the
  /// process (signals are process-wide; the flag is checked per step).
  static volatile std::sig_atomic_t shutdown_requested_;

  Simulation& sim_;
  RunDir& dir_;
  SupervisorConfig config_;
  long interval_ = 0;
  long next_checkpoint_step_ = 0;
  long checkpoints_ = 0;
  long retries_ = 0;
  long failures_ = 0;
  long watchdog_trips_ = 0;
  double ewma_ = 0.0;
  bool ewma_seeded_ = false;

  struct Handles {
    std::size_t checkpoints = 0;
    std::size_t retries = 0;
    std::size_t failures = 0;
    std::size_t watchdog_trips = 0;
    std::size_t signal_shutdowns = 0;
    std::size_t interval = 0;
    std::size_t checkpoint_seconds = 0;
    std::size_t step_ewma = 0;
  } handles_;
};

/// RAII sigaction guard: installs the supervisor's SIGTERM/SIGINT handler
/// on construction, restores the previous handlers on destruction.
class SignalGuard {
 public:
  SignalGuard();
  ~SignalGuard();
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

 private:
  struct sigaction old_term_;
  struct sigaction old_int_;
  bool installed_ = false;
};

}  // namespace sdcmd::run
