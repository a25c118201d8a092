// One served simulation session: a Simulation wrapped in the run
// supervisor, bound to its own durable RunDir, with the serve-side
// lifecycle on top (pause/steer/suspend/resume, step budgeting, and the
// quarantine watchdog).
//
// State machine (docs/serving.md has the full transition table):
//
//   Running ----pause----> Paused ----step----> Running
//   Running/Paused --suspend--> Suspended --resume--> Paused
//   Running --watchdog/oom--> Quarantined --resume--> Paused
//
// Suspended and Quarantined sessions hold no Simulation in memory — only
// the RunDir (checkpoint ring + run_state.v1 sidecar + session.json
// descriptor) survives, which is exactly what survives a SIGKILL of the
// whole daemon. Fleet auto-resume therefore reuses the same path as a
// plain resume op: rebuild from the descriptor, load the newest ring
// generation, and prove 1e-8 energy continuity against the sidecar.
//
// A Session is internally synchronized: every public operation takes the
// session mutex, and a step quantum holds it for the quantum's duration
// (quanta are small by design, so control ops wait at most a few
// milliseconds behind one).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "md/simulation.hpp"
#include "potential/finnis_sinclair.hpp"
#include "run/run_dir.hpp"
#include "run/supervisor.hpp"

namespace sdcmd::serve {

class WireMessage;

/// Everything needed to rebuild a session's Simulation from scratch.
/// Persisted as `session.json` (schema sdcmd.session.v1, flat JSON) in the
/// session's run directory so a restarted daemon can resurrect the fleet.
struct SessionSpec {
  std::string id;
  int cells = 4;
  double temp = 300.0;
  long seed = 12345;
  double dt_fs = 1.0;
  bool governed = true;
  /// StrategyGovernor::strategy_code of the preferred rung.
  int strategy_code = 6;  // sdc
  /// OpenMP team size while stepping this session (sessions batch onto
  /// shared teams: each worker sizes its own team to this, so
  /// workers × threads is the daemon's whole footprint).
  int threads = 1;
  long checkpoint_every = 50;
  int keep = 3;

  /// Fingerprint of the physics-determining fields. dt is deliberately
  /// excluded (steer may retune it mid-run; the sidecar carries the live
  /// value), matching how rollback-halved dt survives sdcmd-run resumes.
  std::uint64_t config_hash() const;

  std::string to_json() const;
  /// Throws ParseError on malformed input, a schema mismatch, or a spec
  /// that validate() refuses.
  static SessionSpec parse(const std::string& json);
  /// Read every field but `id` from a flat JSON message, keeping the
  /// current value where a member is missing. The strategy's key is the
  /// one name that differs: "strategy_code" in session.json, "strategy"
  /// in a create request. Throws ParseError for an integer outside its
  /// field's range instead of wrapping it.
  void read(const WireMessage& msg, const std::string& strategy_key);
  /// Throws ParseError unless every field is usable: cells in [3, 64]
  /// (a 2-cell iron box is below the cell list's 2 x range floor),
  /// positive dt, checkpoint cadence and ring size, threads in
  /// [1, max_threads], and a strategy code this build knows (a ladder rung
  /// when governed). A create holds a new session to the host
  /// (max_threads = hardware_threads()); a spec read back from disk is not
  /// held to it, so a session.json from a larger host still resumes
  /// (run_quantum never asks OpenMP for more than hardware_threads()).
  void validate(int max_threads = std::numeric_limits<int>::max()) const;
};

enum class SessionState { Running, Paused, Suspended, Quarantined };

const char* to_string(SessionState state);

/// Serve-level per-session policy (shared by every session of a server).
struct SessionPolicy {
  /// Steps per scheduler quantum: the unit of work a worker runs between
  /// lock releases, and the granularity of pause/steer responsiveness.
  long quantum_steps = 25;
  /// Quarantine watchdog: a quantum whose per-step time exceeds
  /// max(min_seconds, factor * EWMA) trips; `after_trips` trips quarantine
  /// the session. factor <= 0 disables.
  double watchdog_factor = 50.0;
  double watchdog_min_seconds = 0.5;
  int quarantine_after_trips = 2;
  /// EWMA smoothing for the per-step time (0 < alpha <= 1).
  double ewma_alpha = 0.3;
};

/// Point-in-time view for the status op (and the server's bookkeeping).
struct SessionStatus {
  SessionState state = SessionState::Paused;
  long step = 0;
  long pending = 0;
  double total_energy = 0.0;
  /// Relative energy continuity error proven at the last resume; negative
  /// when the session never resumed (fresh create).
  double continuity_rel = -1.0;
  bool resumed = false;
  long quanta = 0;
  long steps_run = 0;
  long watchdog_trips = 0;
  long quarantines = 0;
  double dt_fs = 0.0;
  std::string strategy;  ///< active rung, or "fixed"/"suspended"
};

/// A step op's answer, read under the session mutex as the budget is
/// added: the session stands at `step`, and reaches `step + pending` once
/// its budget drains.
struct StepBudget {
  long step = 0;
  long pending = 0;  ///< steps still to run, the new ones included
};

/// What one scheduler quantum did (the server folds these into serve.*).
struct QuantumResult {
  long steps_done = 0;
  bool more = false;         ///< pending work remains (re-enqueue)
  bool tripped = false;      ///< watchdog trip this quantum
  bool quarantined = false;  ///< session was quarantined this quantum
};

class Session {
 public:
  /// Fresh session: builds the lattice, commits the initial ring
  /// generation, then writes session.json. A directory holds a descriptor
  /// only once it holds a resume point, so a create that fails leaves
  /// nothing a restarted server would try to resume. `spec` must pass
  /// SessionSpec::validate(), which the server's create op runs first.
  static std::unique_ptr<Session> create(SessionSpec spec,
                                         const std::string& dir_path,
                                         const SessionPolicy& policy);

  /// Reopen a session directory (fleet auto-resume and the resume op):
  /// loads session.json, resumes the newest ring generation, proves energy
  /// continuity, and leaves the session Paused. Throws Error when the
  /// directory holds no session.json or no loadable checkpoint, and when
  /// the continuity proof fails.
  static std::unique_ptr<Session> open(const std::string& dir_path,
                                       const SessionPolicy& policy);

  const std::string& id() const { return spec_.id; }
  SessionState state() const;
  SessionStatus status() const;

  /// True while the session holds runnable work: Running, pending steps,
  /// live Simulation. The worker re-checks this after clearing
  /// `scheduled` (QuantumResult::more goes stale the moment run_quantum
  /// releases the mutex) so a racing step op is never lost.
  bool runnable() const;

  /// Add steps to the pending budget (waking a Paused session). Returns
  /// the step and the new pending count as of the add. Throws Error when
  /// Suspended/Quarantined (the client must resume first).
  StepBudget enqueue_steps(long steps);

  /// Halt stepping after the in-flight quantum; pending budget is kept.
  void pause();

  /// Retune the live run between quanta: any subset of {dt, thermostat
  /// target}. `temp` <= 0 removes the thermostat. Throws when Suspended.
  void steer(std::optional<double> dt_fs, std::optional<double> temp,
             double tau_fs);

  /// Copy the current positions (xyz-interleaved) and step. Returns false
  /// when the session holds no live Simulation (Suspended/Quarantined).
  bool snapshot(long& step, std::vector<double>& xyz) const;

  /// Checkpoint and release the in-memory Simulation. Idempotent.
  void suspend();

  /// Rebuild the Simulation from disk (Suspended/Quarantined -> Paused),
  /// re-proving energy continuity. No-op when already live.
  void resume();

  /// Worker entry point: run one quantum of pending steps. Applies the
  /// serve.session_oom fault and the quarantine watchdog. Never throws —
  /// a failing quantum quarantines the session instead of unwinding into
  /// the worker pool.
  QuantumResult run_quantum();

  /// Scheduler handshake (owned by the server's ready queue): true while
  /// the session sits in the queue or a worker holds it.
  std::atomic<bool> scheduled{false};

 private:
  Session(SessionSpec spec, const std::string& dir_path,
          const SessionPolicy& policy);

  /// Build the Simulation + supervisor, fresh or from a resume point.
  /// Caller holds mutex_.
  void materialize(const std::optional<run::ResumePoint>& resume);
  void release_sim();
  void quarantine(const std::string& reason);
  GovernorConfig governor_config() const;

  SessionSpec spec_;
  SessionPolicy policy_;
  run::RunDir dir_;
  FinnisSinclair potential_;

  mutable std::mutex mutex_;
  SessionState state_ = SessionState::Paused;
  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<run::RunSupervisor> supervisor_;
  long pending_ = 0;
  long last_step_ = 0;       ///< survives suspension
  double last_energy_ = 0.0;
  double continuity_rel_ = -1.0;
  bool resumed_ = false;
  long quanta_ = 0;
  long steps_run_ = 0;
  long trips_ = 0;
  long trip_streak_ = 0;
  long quarantines_ = 0;
  double ewma_ = 0.0;
  bool ewma_seeded_ = false;
};

}  // namespace sdcmd::serve
