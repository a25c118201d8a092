// The time-stepping driver tying the whole stack together:
// velocity-Verlet + neighbor-list lifecycle + EAM forces under a chosen
// reduction strategy + optional thermostat / box deformation.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "core/eam_force.hpp"
#include "core/strategy_governor.hpp"
#include "md/barostat.hpp"
#include "md/deform.hpp"
#include "md/force_provider.hpp"
#include "md/health.hpp"
#include "md/integrator.hpp"
#include "md/system.hpp"
#include "md/thermo.hpp"
#include "md/thermostat.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sdcmd {

struct SimulationConfig {
  /// Time step in internal units. The paper runs 1e-17 s = 0.01 fs.
  double dt = units::fs_to_internal(1.0);
  /// Verlet skin (angstrom).
  double skin = 0.4;
  /// Neighbor rebuild policy: 0 = displacement-triggered (safe default),
  /// N > 0 = every N steps (the paper's fixed-interval style).
  int rebuild_interval = 0;
  /// Strategy + SDC settings for the force evaluation.
  EamForceConfig force;
  /// Spatially re-sort atoms at every rebuild (paper Section II.D). The
  /// neighbor rows are not sorted: they keep the list build's stencil
  /// order, which already clusters each row's neighbors by cell.
  bool reorder_atoms = false;
};

/// Guardrails for unattended runs: periodic health checks plus a rolling
/// "last good state" snapshot the driver can fall back to when the
/// configured policy is Rollback.
struct GuardrailConfig {
  HealthConfig health;
  /// Refresh the rollback snapshot every N steps (0 = only the baseline
  /// snapshot taken when run() starts). Snapshot steps always run a health
  /// check first so only verified-good states are retained.
  long checkpoint_every = 200;
  /// Invoked with every good snapshot; wire io's save_checkpoint_file here
  /// for crash-safe on-disk auto-checkpointing (kept as a callback so the
  /// md layer stays independent of io).
  std::function<void(const System&, long)> checkpoint_sink;
  /// After this many automatic rollbacks a further failure throws
  /// HealthError instead of retrying forever.
  int max_rollbacks = 3;
  /// Halve dt on every automatic rollback (the classic blowup recovery:
  /// most divergences are integration instabilities from a too-large step).
  bool halve_dt_on_rollback = true;
};

/// Observability sinks for a run. All pointers are borrowed (the caller
/// owns lifetime; they must outlive the simulation or be cleared first).
/// Everything is optional: a default-constructed config turns
/// instrumentation off entirely.
struct InstrumentationConfig {
  /// Receives counters/gauges/stats (names under "sim." / "guard.";
  /// see docs/observability.md). Required when step_writer is set.
  obs::MetricsRegistry* registry = nullptr;
  /// JSONL per-step records (schema sdcmd.step_metrics.v1).
  obs::StepMetricsWriter* step_writer = nullptr;
  /// Chrome trace events: step spans, guardrail markers, and - with
  /// profile_sweep - per-thread x per-color force-phase slices.
  obs::TraceWriter* trace = nullptr;
  /// Enable the EAM computer's SdcSweepProfiler so step records and traces
  /// carry per-color thread imbalance and barrier-wait stats. Ignored for
  /// non-EAM force backends. With a registry, also exports the step-level
  /// `sweep.imbalance` / `sweep.barrier_frac` gauges.
  bool profile_sweep = false;
  /// Enable the EAM computer's hardware-counter profiler
  /// (perf_event_open): per-phase IPC, cache-miss rate and cycles/atom
  /// land in the registry as the `hw.*` gauge family. Degrades to
  /// `hw.available=0` (and nothing else) when the syscall is denied or
  /// the platform is not Linux; ignored for non-EAM force backends.
  bool profile_hw = false;
  /// Emit JSONL/trace output every N steps (counters still update every
  /// step).
  long sample_every = 1;
};

class Simulation {
 public:
  /// EAM dynamics (the paper's workload). The potential must outlive the
  /// simulation; config.force selects the reduction strategy.
  Simulation(System system, const EamPotential& potential,
             SimulationConfig config);

  /// Pair-potential dynamics through the same driver (config.force's
  /// strategy and SDC settings apply; the EAM-only fields are ignored).
  Simulation(System system, const PairPotential& potential,
             SimulationConfig config);

  /// Fully custom force backend.
  Simulation(System system, std::unique_ptr<ForceProvider> provider,
             SimulationConfig config);

  /// Maxwell-Boltzmann velocities at `temperature` (kelvin).
  void set_temperature(double temperature, std::uint64_t seed);

  /// Install (or clear, with nullptr) a thermostat applied every step.
  void set_thermostat(std::unique_ptr<Thermostat> thermostat);

  /// Install a box deformer applied every `every` steps.
  void set_deformer(BoxDeformer deformer, int every = 1);

  /// Install a Berendsen barostat applied every `every` steps (each
  /// application rescales the box and rebuilds the neighbor machinery).
  void set_barostat(BerendsenBarostat barostat, int every = 10);

  /// Install the reduction-strategy governor (see
  /// core/strategy_governor.hpp): selects the best feasible rung of the
  /// degradation ladder now and re-validates on every box change,
  /// hot-swapping the force backend's strategy instead of racing or dying
  /// with InfeasibleError. Overrides config.force.strategy. When the
  /// backend exposes its SDC settings (EAM/pair providers do), they
  /// replace config.sdc so probe and schedule build always agree.
  /// Replaces any previous governor. Off by default.
  void set_governor(GovernorConfig config);

  /// Checkpoint-restart flavor: resume with the saved governor state
  /// (active rung, hysteresis counters) instead of re-selecting the
  /// preferred strategy.
  void set_governor(GovernorConfig config, const GovernorState& state);

  void clear_governor();
  bool has_governor() const { return governor_ != nullptr; }

  /// The active governor, or nullptr when ungoverned.
  const StrategyGovernor* governor() const { return governor_.get(); }

  /// Effective Verlet skin: config.skin, grown by rebuild-storm backoff.
  double effective_skin() const { return skin_; }

  /// Times the skin backoff fired (bounded; see neighbor.skin_backoffs).
  int skin_backoff_count() const { return skin_backoffs_; }

  /// Enable health monitoring + auto-checkpoint + rollback for subsequent
  /// run() calls. Replaces any previous guardrails and resets the rollback
  /// budget. Off by default: an unguarded run pays no monitoring cost.
  void set_guardrails(GuardrailConfig config);
  void clear_guardrails();
  bool has_guardrails() const { return monitor_ != nullptr; }

  /// Manually restore the last good snapshot (positions, velocities, box,
  /// step counter) and recompute forces. Returns false when no snapshot
  /// exists yet. Does not consume the automatic-rollback budget.
  bool rollback();

  /// Automatic rollbacks performed since guardrails were (re)set.
  int rollback_count() const { return rollbacks_; }

  /// The active monitor, or nullptr when guardrails are off.
  const HealthMonitor* health_monitor() const { return monitor_.get(); }

  /// Change the time step mid-run (rollback uses this to halve dt).
  void set_dt(double dt);

  /// Restart support: make current_step() report `step` so a run resumed
  /// from a checkpoint continues the original step numbering (checkpoint
  /// cadence, callbacks and thermo logs all key off the absolute step).
  void set_current_step(long step);

  /// Restart support: restore the COM-momentum bookkeeping that
  /// set_temperature() normally records, so a resumed run keeps reporting
  /// 3N-3 DOF temperatures instead of silently switching to 3N.
  void set_com_momentum_zeroed(bool zeroed) { momentum_zeroed_ = zeroed; }
  bool com_momentum_zeroed() const { return momentum_zeroed_; }

  /// Attach observability sinks for subsequent run() calls. Replaces any
  /// previous instrumentation. Like guardrails, off by default: an
  /// uninstrumented run pays nothing beyond one null check per step.
  void set_instrumentation(InstrumentationConfig config);
  void clear_instrumentation();
  bool has_instrumentation() const { return obs_.registry != nullptr; }

  /// Callback invoked after the completed step, every `every` steps.
  using Callback = std::function<void(const Simulation&, long)>;

  /// Advance the simulation to current_step() + steps. Without guardrails
  /// this is exactly `steps` velocity-Verlet steps; with rollback guardrails
  /// rewound steps are re-run, so the target step is still reached (or
  /// HealthError is thrown once the rollback budget is exhausted).
  void run(long steps, const Callback& callback = nullptr,
           long callback_every = 100);

  /// One step (forces must be current; run() handles this).
  void step_once();

  /// Evaluate forces for the current positions (rebuilding the neighbor
  /// list when stale). Idempotent between moves.
  void compute_forces();

  ThermoSample sample() const;

  const System& system() const { return system_; }
  System& system() { return system_; }

  /// The active force backend.
  ForceProvider& force_provider() { return *provider_; }
  const ForceProvider& force_provider() const { return *provider_; }

  /// The underlying EAM computer; throws PreconditionError when the
  /// backend is not EAM (use force_provider().timers() for generic code).
  EamForceComputer& force_computer();
  const EamForceComputer& force_computer() const;

  const NeighborList& neighbor_list() const { return *list_; }
  const SimulationConfig& config() const { return config_; }
  long current_step() const { return step_; }
  std::size_t rebuild_count() const { return rebuilds_; }
  const EamForceResult& last_force_result() const { return last_result_; }

  /// Times the NeighborList (and its embedded CellList) was reconstructed
  /// from scratch: once at construction, then only when a box change also
  /// changes the list configuration (skin backoff, governor mode swap).
  /// Steady-state barostat/deform runs keep this flat - box changes go
  /// through update_box() instead.
  std::size_t neighbor_reconstructions() const {
    return list_reconstructions_;
  }

  /// Neighbor-pipeline accounting accumulated across list reconstructions
  /// (the source of the neighbor.* metrics).
  NeighborBuildStats neighbor_stats() const;

 private:
  /// Recreate box-dependent machinery (neighbor list, SDC schedule) after
  /// a box change, then rebuild. A list whose configuration, box and
  /// positions are unchanged since its last build keeps its rows: the
  /// schedule is attached and the atoms re-partitioned without building
  /// again (the governor's set-up after the constructor's build).
  void rebuild_geometry();
  /// Rebuild neighbor list + partition from current positions.
  void rebuild_lists();
  bool lists_stale() const;

  /// Instrumentation plumbing (no-ops unless set_instrumentation ran).
  void obs_count(std::size_t handle, double delta = 1.0) {
    if (obs_.registry != nullptr) obs_.registry->add(handle, delta);
  }
  void obs_mark(const std::string& name);
  const obs::SdcSweepProfiler* sweep_profiler() const;

  /// Governor plumbing (all no-ops unless set_governor was called).
  void init_governor();
  /// Feed a box/range change to the governor (called from
  /// rebuild_geometry, before the new neighbor list is built) and swap the
  /// provider's strategy on demotion.
  void govern_box_change();
  /// Per-step hysteresis tick + optional shadow validation; promotions
  /// trigger a geometry rebuild to re-attach the SDC schedule.
  void govern_after_step();
  /// Apply a changed decision to the force backend + metrics/trace/log.
  /// Does NOT rebuild geometry; callers outside rebuild_geometry must.
  void apply_governor_decision(const GovernorDecision& decision);
  /// Recompute rho/forces with the serial reference kernels and compare
  /// against the active strategy's output (EAM backend only); on mismatch
  /// demote and emit guard.strategy_race_suspect.
  void shadow_validate();

  /// Guardrail plumbing (all no-ops unless set_guardrails was called).
  void guard_baseline();
  void guard_after_step();
  void handle_unhealthy(const HealthReport& report);
  void take_snapshot();
  void restore_snapshot();

  System system_;
  SimulationConfig config_;
  VelocityVerlet integrator_;
  std::unique_ptr<ForceProvider> provider_;
  std::unique_ptr<NeighborList> list_;
  std::unique_ptr<Thermostat> thermostat_;
  std::optional<BoxDeformer> deformer_;
  int deform_every_ = 1;
  std::optional<BerendsenBarostat> barostat_;
  int barostat_every_ = 10;
  long step_ = 0;
  long steps_since_rebuild_ = 0;
  std::size_t rebuilds_ = 0;
  // Stats survive list reconstruction: the outgoing list's counters fold
  // into this base so neighbor_stats() is cumulative for the simulation.
  NeighborBuildStats neighbor_stats_base_;
  std::size_t list_reconstructions_ = 0;
  // set_temperature zeroed the COM momentum: thermo reporting then uses
  // 3N - 3 DOF (as long as the thermostat, if any, conserves momentum).
  bool momentum_zeroed_ = false;
  bool forces_current_ = false;
  EamForceResult last_result_;

  std::unique_ptr<StrategyGovernor> governor_;
  // Scratch for the governor's shadow-validation pass (reused; sized on
  // first use).
  std::vector<double> shadow_rho_;
  std::vector<double> shadow_fp_;
  std::vector<Vec3> shadow_force_;

  // Rebuild-storm backoff: displacement-triggered rebuilds on consecutive
  // steps grow the effective skin (bounded) instead of thrashing.
  double skin_ = 0.0;
  int skin_backoffs_ = 0;
  long last_displacement_rebuild_step_ = -1000;

  struct Snapshot {
    System system;
    long step;
  };
  std::optional<GuardrailConfig> guard_;
  std::unique_ptr<HealthMonitor> monitor_;
  std::optional<Snapshot> snapshot_;
  int rollbacks_ = 0;

  InstrumentationConfig obs_;
  struct ObsHandles {
    std::size_t steps = 0;
    std::size_t step_seconds = 0;
    std::size_t rebuilds = 0;
    std::size_t checkpoints = 0;
    std::size_t rollbacks = 0;
    std::size_t health_checks = 0;
    std::size_t health_failures = 0;
    std::size_t dt = 0;
    std::size_t pair_cache_bytes = 0;
    std::size_t cache_stores = 0;
    std::size_t cache_reads = 0;
    std::size_t soa_active = 0;
    std::size_t soa_pad_fraction = 0;
    // CellTask work-stealing family (task.*): spawn/steal counters plus
    // queue-depth and busy-fraction gauges; all 0 / flat unless the active
    // strategy is CellTask.
    std::size_t task_spawned = 0;
    std::size_t task_steals = 0;
    std::size_t task_queue_depth = 0;
    std::size_t task_busy_min = 0;
    std::size_t task_busy_mean = 0;
    std::size_t governor_strategy = 0;
    std::size_t governor_demotions = 0;
    std::size_t governor_promotions = 0;
    std::size_t governor_shadow_checks = 0;
    std::size_t race_suspects = 0;
    std::size_t skin_backoffs = 0;
    std::size_t grid_reshapes = 0;
    std::size_t stencil_rebuilds = 0;
    std::size_t reconstructions = 0;
    std::size_t bin_seconds = 0;
    std::size_t count_seconds = 0;
    std::size_t fill_seconds = 0;
    std::size_t list_bytes = 0;
    // Hardware-counter family (profile_hw): availability gauge, per-phase
    // derived gauges indexed density/embed/force, and step-cumulative
    // cycle/instruction counters.
    std::size_t hw_available = 0;
    std::array<std::size_t, 3> hw_ipc{};
    std::array<std::size_t, 3> hw_miss_rate{};
    std::array<std::size_t, 3> hw_cycles_per_atom{};
    std::size_t hw_cycles = 0;
    std::size_t hw_instructions = 0;
    // Step-level sweep aggregates (profile_sweep + registry).
    std::size_t sweep_imbalance = 0;
    std::size_t sweep_barrier_frac = 0;
    // EamKernelStats counters are cumulative; remember the last value seen
    // so each step adds only its delta to the registry counters.
    std::size_t prev_cache_stores = 0;
    std::size_t prev_cache_reads = 0;
    std::size_t prev_soa_steps = 0;
    std::size_t prev_task_spawned = 0;
    std::size_t prev_task_steals = 0;
    // Same delta bookkeeping for the cumulative neighbor-pipeline stats
    // (seeded in set_instrumentation so counters measure from attach).
    std::size_t prev_grid_reshapes = 0;
    std::size_t prev_stencil_rebuilds = 0;
    std::size_t prev_reconstructions = 0;
    double prev_bin_seconds = 0.0;
    double prev_count_seconds = 0.0;
    double prev_fill_seconds = 0.0;
  } obs_handles_;
};

}  // namespace sdcmd
