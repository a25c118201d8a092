#include "md/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/threads.hpp"
#include "common/timer.hpp"
#include "core/race_check.hpp"
#include "md/velocity.hpp"
#include "neighbor/reorder.hpp"

namespace sdcmd {

namespace {
/// Trace track for driver-level events (OpenMP worker tracks are 0..N-1).
constexpr int kDriverTid = 1000;
/// Skin backoff: growth per retry and the retry budget (bounded so a
/// pathological run cannot inflate the interaction range without limit).
constexpr double kSkinBackoffFactor = 1.5;
constexpr int kMaxSkinBackoffs = 3;
}  // namespace

Simulation::Simulation(System system, const EamPotential& potential,
                       SimulationConfig config)
    : Simulation(std::move(system),
                 std::make_unique<EamForceProvider>(potential, config.force),
                 config) {}

Simulation::Simulation(System system, const PairPotential& potential,
                       SimulationConfig config)
    : Simulation(std::move(system),
                 std::make_unique<PairForceProvider>(
                     potential,
                     PairForceConfig{config.force.strategy, config.force.sdc}),
                 config) {}

Simulation::Simulation(System system,
                       std::unique_ptr<ForceProvider> provider,
                       SimulationConfig config)
    : system_(std::move(system)),
      config_(config),
      integrator_(config.dt, system_.mass()),
      provider_(std::move(provider)),
      skin_(config.skin) {
  SDCMD_REQUIRE(provider_ != nullptr, "force provider must not be null");
  rebuild_geometry();
}

EamForceComputer& Simulation::force_computer() {
  EamForceComputer* computer = provider_->eam_computer();
  SDCMD_REQUIRE(computer != nullptr,
                "the active force backend is not an EAM computer");
  return *computer;
}

const EamForceComputer& Simulation::force_computer() const {
  EamForceComputer* computer =
      const_cast<ForceProvider&>(*provider_).eam_computer();
  SDCMD_REQUIRE(computer != nullptr,
                "the active force backend is not an EAM computer");
  return *computer;
}

void Simulation::rebuild_geometry() {
  // Box or range changed: the governor gets first say, so a demoted
  // strategy is already active when the schedule below is attached.
  govern_box_change();

  NeighborListConfig nl;
  nl.cutoff = provider_->cutoff();
  nl.skin = skin_;
  nl.mode = provider_->required_mode();
  bool reuse_list = false;
  if (list_ != nullptr && list_->config_compatible(nl)) {
    // Same list configuration, new box: adapt in place. Storage is reused
    // and the cell grid recomputes stencils only when its shape changes -
    // a steady-state barostat run performs zero heap reconstructions.
    reuse_list = list_->built_from(system_.box(), system_.atoms().position);
    list_->update_box(system_.box());
  } else {
    // Configuration changed (first construction, skin backoff, governor
    // mode swap): fold the outgoing list's stats into the cumulative base
    // and reconstruct.
    if (list_ != nullptr) {
      const NeighborBuildStats& s = list_->stats();
      neighbor_stats_base_.builds += s.builds;
      neighbor_stats_base_.grid_reshapes += s.grid_reshapes;
      neighbor_stats_base_.stencil_rebuilds += s.stencil_rebuilds;
      neighbor_stats_base_.bin_seconds += s.bin_seconds;
      neighbor_stats_base_.count_seconds += s.count_seconds;
      neighbor_stats_base_.fill_seconds += s.fill_seconds;
    }
    list_ = std::make_unique<NeighborList>(system_.box(), nl);
    ++list_reconstructions_;
  }

  provider_->attach_schedule(system_.box(), provider_->cutoff() + skin_);
  if (reuse_list) {
    // A build would reproduce the current list (wrapping settled
    // positions changes nothing): only re-partition the atoms for the
    // freshly attached schedule.
    provider_->on_neighbor_rebuild(system_.atoms().position);
    steps_since_rebuild_ = 0;
    forces_current_ = false;
    return;
  }
  rebuild_lists();
}

NeighborBuildStats Simulation::neighbor_stats() const {
  NeighborBuildStats s = neighbor_stats_base_;
  if (list_ != nullptr) {
    const NeighborBuildStats& cur = list_->stats();
    s.builds += cur.builds;
    s.grid_reshapes += cur.grid_reshapes;
    s.stencil_rebuilds += cur.stencil_rebuilds;
    s.bin_seconds += cur.bin_seconds;
    s.count_seconds += cur.count_seconds;
    s.fill_seconds += cur.fill_seconds;
    s.last_bin_seconds = cur.last_bin_seconds;
    s.last_count_seconds = cur.last_count_seconds;
    s.last_fill_seconds = cur.last_fill_seconds;
  }
  return s;
}

void Simulation::rebuild_lists() {
  system_.wrap_positions();
  if (config_.reorder_atoms) {
    const auto perm = spatial_sort_permutation(
        system_.box(), system_.atoms().position,
        provider_->cutoff() + skin_);
    system_.atoms().reorder(perm);
  }
  list_->build(system_.atoms().position);
  provider_->on_neighbor_rebuild(system_.atoms().position);
  steps_since_rebuild_ = 0;
  ++rebuilds_;
  obs_count(obs_handles_.rebuilds);
  forces_current_ = false;
}

bool Simulation::lists_stale() const {
  if (config_.rebuild_interval > 0) {
    // The check runs mid-step (after the drift), so "every N steps" means
    // the rebuild lands inside steps N, 2N, ... exactly.
    return steps_since_rebuild_ + 1 >= config_.rebuild_interval;
  }
  return list_->needs_rebuild(system_.atoms().position);
}

void Simulation::compute_forces() {
  if (forces_current_) return;
  last_result_ = provider_->compute(system_.box(), system_.atoms(), *list_);
  forces_current_ = true;
}

void Simulation::set_temperature(double temperature, std::uint64_t seed) {
  maxwell_boltzmann_velocities(system_.atoms().velocity, system_.mass(),
                               temperature, seed);
  // Velocity init zeroed the COM momentum; thermo reporting uses 3N - 3
  // DOF from here on (unless a non-conserving thermostat re-injects it).
  momentum_zeroed_ = true;
}

void Simulation::set_thermostat(std::unique_ptr<Thermostat> thermostat) {
  thermostat_ = std::move(thermostat);
}

void Simulation::set_deformer(BoxDeformer deformer, int every) {
  SDCMD_REQUIRE(every >= 1, "deformation interval must be >= 1");
  deformer_ = deformer;
  deform_every_ = every;
}

void Simulation::set_barostat(BerendsenBarostat barostat, int every) {
  SDCMD_REQUIRE(every >= 1, "barostat interval must be >= 1");
  barostat_ = barostat;
  barostat_every_ = every;
}

void Simulation::set_guardrails(GuardrailConfig config) {
  SDCMD_REQUIRE(config.checkpoint_every >= 0,
                "checkpoint interval must be non-negative");
  SDCMD_REQUIRE(config.max_rollbacks >= 0,
                "rollback budget must be non-negative");
  guard_ = std::move(config);
  monitor_ = std::make_unique<HealthMonitor>(guard_->health);
  snapshot_.reset();
  rollbacks_ = 0;
}

void Simulation::clear_guardrails() {
  guard_.reset();
  monitor_.reset();
  snapshot_.reset();
  rollbacks_ = 0;
}

void Simulation::set_governor(GovernorConfig config) {
  if (std::optional<SdcConfig> sdc = provider_->sdc_config()) {
    config.sdc = *sdc;  // probe with the config attach_schedule will use
  }
  governor_ = std::make_unique<StrategyGovernor>(config);
  init_governor();
}

void Simulation::set_governor(GovernorConfig config,
                              const GovernorState& state) {
  if (std::optional<SdcConfig> sdc = provider_->sdc_config()) {
    config.sdc = *sdc;
  }
  governor_ = std::make_unique<StrategyGovernor>(config);
  governor_->restore_state(state);
  init_governor();
}

void Simulation::clear_governor() { governor_.reset(); }

void Simulation::init_governor() {
  SDCMD_REQUIRE(provider_->strategy().has_value(),
                "the active force backend has no reduction strategy for the "
                "governor to manage");
  const GovernorDecision decision = governor_->setup(
      system_.box(), provider_->cutoff() + skin_, max_threads(),
      system_.size());
  apply_governor_decision(decision);
  // The provider may have been constructed with a different strategy than
  // the governor just selected, and a selected Sdc rung needs its schedule
  // attached. The list the constructor built is kept when the selection
  // left its configuration, the box and the positions unchanged.
  rebuild_geometry();
  if (!decision.reason.empty()) {
    SDCMD_DEBUG("governor: " << decision.reason);
  }
}

void Simulation::govern_box_change() {
  if (!governor_) return;
  const GovernorDecision decision = governor_->on_box_change(
      system_.box(), provider_->cutoff() + skin_, max_threads(),
      system_.size());
  // The enclosing rebuild_geometry finishes the job (fresh list, schedule
  // attach), so only the strategy swap + bookkeeping happens here.
  if (decision.changed()) apply_governor_decision(decision);
}

void Simulation::govern_after_step() {
  const GovernorConfig& gc = governor_->config();
  if (gc.shadow_check_every > 0 && step_ % gc.shadow_check_every == 0) {
    shadow_validate();
  }
  const GovernorDecision decision = governor_->on_step(
      system_.box(), provider_->cutoff() + skin_, max_threads(),
      system_.size());
  if (decision.changed()) {
    apply_governor_decision(decision);
    rebuild_geometry();
  }
}

void Simulation::apply_governor_decision(const GovernorDecision& decision) {
  if (provider_->strategy() != decision.strategy) {
    SDCMD_REQUIRE(provider_->set_strategy(decision.strategy),
                  "force backend refused the governor's strategy swap to " +
                      to_string(decision.strategy));
  }
  switch (decision.event) {
    case GovernorEvent::Demotion:
      obs_count(obs_handles_.governor_demotions);
      obs_mark("governor.demote");
      SDCMD_WARN("governor: " << decision.reason);
      break;
    case GovernorEvent::Promotion:
      obs_count(obs_handles_.governor_promotions);
      obs_mark("governor.promote");
      SDCMD_WARN("governor: " << decision.reason);
      break;
    case GovernorEvent::None:
      break;
  }
  if (obs_.registry != nullptr) {
    obs_.registry->set(
        obs_handles_.governor_strategy,
        static_cast<double>(StrategyGovernor::strategy_code(
            governor_->active())));
  }
}

void Simulation::shadow_validate() {
  obs_count(obs_handles_.governor_shadow_checks);
  EamForceComputer* computer = provider_->eam_computer();
  bool mismatch = false;
  std::string detail;
  if (computer != nullptr) {
    compute_forces();  // a barostat rebuild may have left forces stale
    const Atoms& atoms = system_.atoms();
    const std::size_t n = atoms.size();
    shadow_rho_.resize(n);
    shadow_fp_.resize(n);
    shadow_force_.resize(n);
    computer->compute_serial_reference(system_.box(), atoms.position, *list_,
                                       shadow_rho_, shadow_fp_,
                                       shadow_force_);
    double max_dev = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      max_dev = std::max(max_dev, std::abs(atoms.rho[i] - shadow_rho_[i]));
      const Vec3 df = atoms.force[i] - shadow_force_[i];
      max_dev = std::max({max_dev, std::abs(df.x), std::abs(df.y),
                          std::abs(df.z)});
    }
    if (!(max_dev <= governor_->config().shadow_tolerance)) {
      mismatch = true;
      detail = "max rho/force deviation " + std::to_string(max_dev) +
               " vs serial reference";
    }
    // The numeric pass can miss a race that happened not to fire this
    // step; when SDC is active also verify the schedule geometrically.
    if (!mismatch && governor_->active() == ReductionStrategy::Sdc &&
        computer->schedule() != nullptr) {
      const RaceCheckReport report =
          check_schedule_race_free(*computer->schedule(), *list_);
      if (!report.race_free) {
        mismatch = true;
        detail = report.describe();
      }
    }
  }
  if (!mismatch) return;
  obs_count(obs_handles_.race_suspects);
  obs_mark("guard.strategy_race_suspect");
  const GovernorDecision decision = governor_->on_shadow_mismatch(detail);
  if (decision.changed()) {
    apply_governor_decision(decision);
    rebuild_geometry();
    forces_current_ = false;
    compute_forces();  // re-evaluate under the demoted strategy
  } else {
    SDCMD_WARN("governor: " << decision.reason);
  }
}

void Simulation::set_instrumentation(InstrumentationConfig config) {
  SDCMD_REQUIRE(config.sample_every >= 1,
                "instrumentation sample interval must be >= 1");
  SDCMD_REQUIRE(config.step_writer == nullptr || config.registry != nullptr,
                "a step writer needs a registry to snapshot");
  obs_ = config;
  if (obs_.registry != nullptr) {
    obs::MetricsRegistry& r = *obs_.registry;
    obs_handles_.steps = r.counter("sim.steps");
    obs_handles_.step_seconds = r.stats("sim.step_seconds");
    obs_handles_.rebuilds = r.counter("sim.neighbor_rebuilds");
    obs_handles_.checkpoints = r.counter("guard.checkpoints");
    obs_handles_.rollbacks = r.counter("guard.rollbacks");
    obs_handles_.health_checks = r.counter("guard.health_checks");
    obs_handles_.health_failures = r.counter("guard.health_failures");
    obs_handles_.dt = r.gauge("sim.dt");
    obs_handles_.pair_cache_bytes = r.gauge("eam.pair_cache_bytes");
    obs_handles_.cache_stores = r.counter("eam.cache_store_slots");
    obs_handles_.cache_reads = r.counter("eam.cache_read_slots");
    obs_handles_.governor_strategy = r.gauge("governor.active_strategy");
    obs_handles_.governor_demotions = r.counter("governor.demotions");
    obs_handles_.governor_promotions = r.counter("governor.promotions");
    obs_handles_.governor_shadow_checks = r.counter("governor.shadow_checks");
    obs_handles_.race_suspects = r.counter("guard.strategy_race_suspect");
    obs_handles_.skin_backoffs = r.counter("neighbor.skin_backoffs");
    obs_handles_.grid_reshapes = r.counter("neighbor.grid_reshapes");
    obs_handles_.stencil_rebuilds = r.counter("neighbor.stencil_rebuilds");
    obs_handles_.reconstructions = r.counter("neighbor.reconstructions");
    obs_handles_.bin_seconds = r.counter("neighbor.bin_seconds");
    obs_handles_.count_seconds = r.counter("neighbor.count_seconds");
    obs_handles_.fill_seconds = r.counter("neighbor.fill_seconds");
    obs_handles_.list_bytes = r.gauge("neighbor.list_bytes");
    // hw.* / sweep.* gauges are interned only when the matching profiler is
    // requested: gauges are reported in every snapshot, so an uninterned
    // family keeps uninstrumented records clean.
    if (obs_.profile_hw) {
      obs_handles_.hw_available = r.gauge("hw.available");
      static const char* kHwPhases[3] = {"density", "embed", "force"};
      for (int p = 0; p < 3; ++p) {
        const std::string prefix = std::string("hw.") + kHwPhases[p];
        obs_handles_.hw_ipc[static_cast<std::size_t>(p)] =
            r.gauge(prefix + ".ipc");
        obs_handles_.hw_miss_rate[static_cast<std::size_t>(p)] =
            r.gauge(prefix + ".cache_miss_rate");
        obs_handles_.hw_cycles_per_atom[static_cast<std::size_t>(p)] =
            r.gauge(prefix + ".cycles_per_atom");
      }
      obs_handles_.hw_cycles = r.counter("hw.cycles");
      obs_handles_.hw_instructions = r.counter("hw.instructions");
    }
    if (obs_.profile_sweep) {
      obs_handles_.sweep_imbalance = r.gauge("sweep.imbalance");
      obs_handles_.sweep_barrier_frac = r.gauge("sweep.barrier_frac");
    }
    // Counters measure from attach: seed the delta trackers with the
    // current cumulative stats so construction-time work is not charged
    // to the first instrumented step.
    const NeighborBuildStats ns = neighbor_stats();
    if (const EamForceComputer* computer = provider_->eam_computer()) {
      obs_handles_.prev_cache_stores = computer->stats().cache_store_slots;
      obs_handles_.prev_cache_reads = computer->stats().cache_read_slots;
    }
    obs_handles_.prev_grid_reshapes = ns.grid_reshapes;
    obs_handles_.prev_stencil_rebuilds = ns.stencil_rebuilds;
    obs_handles_.prev_reconstructions = list_reconstructions_;
    obs_handles_.prev_bin_seconds = ns.bin_seconds;
    obs_handles_.prev_count_seconds = ns.count_seconds;
    obs_handles_.prev_fill_seconds = ns.fill_seconds;
    if (governor_ != nullptr) {
      r.set(obs_handles_.governor_strategy,
            static_cast<double>(
                StrategyGovernor::strategy_code(governor_->active())));
    }
  }
  if (EamForceComputer* computer = provider_->eam_computer()) {
    computer->sweep_profiler().set_enabled(obs_.profile_sweep);
    computer->hw_profiler().set_enabled(obs_.profile_hw);
  }
  if (obs_.profile_hw && obs_.registry != nullptr) {
    // Publish the availability verdict once: set_enabled may have refused
    // (paranoid level, non-Linux, non-EAM backend) and the no-op path must
    // still say so in the metrics stream.
    EamForceComputer* computer = provider_->eam_computer();
    const bool hw_on =
        computer != nullptr && computer->hw_profiler().enabled();
    obs_.registry->set(obs_handles_.hw_available, hw_on ? 1.0 : 0.0);
  }
  if (obs_.trace != nullptr) {
    obs_.trace->set_thread_name(kDriverTid, "driver");
  }
}

void Simulation::clear_instrumentation() {
  obs_ = InstrumentationConfig{};
  obs_handles_ = ObsHandles{};
  if (EamForceComputer* computer = provider_->eam_computer()) {
    computer->sweep_profiler().set_enabled(false);
    computer->hw_profiler().set_enabled(false);
  }
}

void Simulation::obs_mark(const std::string& name) {
  if (obs_.trace != nullptr) {
    obs_.trace->instant_event(name, "guardrail", wall_time(), kDriverTid);
  }
}

const obs::SdcSweepProfiler* Simulation::sweep_profiler() const {
  if (!obs_.profile_sweep) return nullptr;
  EamForceComputer* computer =
      const_cast<ForceProvider&>(*provider_).eam_computer();
  return computer != nullptr ? &computer->sweep_profiler() : nullptr;
}

void Simulation::set_dt(double dt) {
  SDCMD_REQUIRE(dt > 0.0, "time step must be positive");
  config_.dt = dt;
  integrator_ = VelocityVerlet(dt, system_.mass());
}

void Simulation::set_current_step(long step) {
  SDCMD_REQUIRE(step >= 0, "step counter must be non-negative");
  step_ = step;
  // A pre-resume snapshot would carry the old step numbering; drop it so
  // the next guardrail baseline re-snapshots under the restored counter.
  snapshot_.reset();
}

bool Simulation::rollback() {
  if (!snapshot_) return false;
  restore_snapshot();
  return true;
}

void Simulation::take_snapshot() {
  snapshot_.emplace(Snapshot{system_, step_});
  if (guard_ && guard_->checkpoint_sink) {
    guard_->checkpoint_sink(system_, step_);
  }
  obs_count(obs_handles_.checkpoints);
  obs_mark("checkpoint");
}

void Simulation::restore_snapshot() {
  system_ = snapshot_->system;
  step_ = snapshot_->step;
  if (monitor_) monitor_->reset_baseline();
  // The diverged state may have moved atoms arbitrarily (or changed the
  // box via a deformer); rebuild everything box- and position-dependent.
  rebuild_geometry();
  compute_forces();
}

void Simulation::guard_baseline() {
  if (snapshot_) return;
  obs_count(obs_handles_.health_checks);
  const HealthReport report = monitor_->check(system_, last_result_, step_,
                                              config_.dt, skin_);
  if (report.ok()) {
    take_snapshot();
  } else {
    handle_unhealthy(report);
  }
}

void Simulation::guard_after_step() {
  const bool checkpoint_due =
      guard_->checkpoint_every > 0 && step_ % guard_->checkpoint_every == 0;
  if (!checkpoint_due && !monitor_->due(step_)) return;

  obs_count(obs_handles_.health_checks);
  const HealthReport report = monitor_->check(system_, last_result_, step_,
                                              config_.dt, skin_);
  if (report.ok()) {
    if (checkpoint_due) take_snapshot();
    return;
  }
  handle_unhealthy(report);
}

void Simulation::handle_unhealthy(const HealthReport& report) {
  obs_count(obs_handles_.health_failures);
  switch (guard_->health.policy) {
    case HealthPolicy::Warn:
      SDCMD_WARN("health: " << report.summary());
      return;
    case HealthPolicy::Throw:
      throw HealthError("health check failed at " + report.summary());
    case HealthPolicy::Rollback:
      break;
  }
  if (!snapshot_) {
    throw HealthError("health check failed with no snapshot to roll back"
                      " to, at " + report.summary());
  }
  if (rollbacks_ >= guard_->max_rollbacks) {
    throw HealthError("rollback budget (" +
                      std::to_string(guard_->max_rollbacks) +
                      ") exhausted at " + report.summary());
  }
  ++rollbacks_;
  obs_count(obs_handles_.rollbacks);
  obs_mark("rollback");
  if (guard_->halve_dt_on_rollback) set_dt(config_.dt * 0.5);
  SDCMD_WARN("health: " << report.summary() << "; rolling back to step "
                        << snapshot_->step << " (rollback " << rollbacks_
                        << '/' << guard_->max_rollbacks << ", dt now "
                        << config_.dt << ')');
  restore_snapshot();
}

void Simulation::step_once() {
  compute_forces();
  Atoms& atoms = system_.atoms();

  integrator_.kick_drift(atoms.position, atoms.velocity, atoms.force);

  if (deformer_ && (step_ + 1) % deform_every_ == 0) {
    deformer_->apply(system_);
    // The box changed: the cell grid and SDC decomposition are invalid.
    rebuild_geometry();
  } else if (lists_stale()) {
    // Displacement-triggered rebuilds on consecutive steps mean the skin
    // no longer buys any reuse (classic under a shrinking box, where the
    // affine remap drags every atom each barostat step): grow it with
    // bounded backoff instead of rebuilding every step. The larger skin
    // widens the interaction range, so the governor re-validates via the
    // rebuild_geometry path.
    const bool storm = config_.rebuild_interval == 0 &&
                       step_ - last_displacement_rebuild_step_ <= 1;
    last_displacement_rebuild_step_ = step_;
    if (storm && skin_backoffs_ < kMaxSkinBackoffs) {
      ++skin_backoffs_;
      skin_ *= kSkinBackoffFactor;
      obs_count(obs_handles_.skin_backoffs);
      obs_mark("neighbor.skin_backoff");
      SDCMD_WARN("neighbor: rebuild storm detected; growing skin to "
                 << skin_ << " (backoff " << skin_backoffs_ << '/'
                 << kMaxSkinBackoffs << ')');
      rebuild_geometry();
    } else {
      rebuild_lists();
    }
  }

  forces_current_ = false;
  compute_forces();
  integrator_.kick(atoms.velocity, atoms.force);

  if (thermostat_) {
    thermostat_->apply(atoms.velocity, system_.mass(), config_.dt);
  }

  ++step_;
  ++steps_since_rebuild_;

  if (barostat_ && step_ % barostat_every_ == 0) {
    const double mu = barostat_->apply(system_, sample().pressure,
                                       config_.dt * barostat_every_);
    if (mu != 1.0) {
      rebuild_geometry();
    }
  }

  if (FaultInjector::instance().armed()) {
    if (const auto spec =
            FaultInjector::instance().should_fire(faults::kBoxShrink)) {
      // Simulated barostat collapse: isotropic rescale + affine remap,
      // exactly the real barostat's box-change shape.
      const double factor = spec->magnitude > 0.0 ? spec->magnitude : 0.5;
      const Box old_box = system_.box();
      system_.box().rescale({factor, factor, factor});
      for (auto& r : system_.atoms().position) {
        r = system_.box().affine_map(r, old_box);
      }
      rebuild_geometry();
    }
  }
}

void Simulation::run(long steps, const Callback& callback,
                     long callback_every) {
  SDCMD_REQUIRE(steps >= 0, "step count must be non-negative");
  compute_forces();
  if (monitor_) guard_baseline();
  // Run to an absolute target step: a rollback rewinds step_ and the
  // rewound stretch is re-run, so a guarded run still finishes at the
  // requested step (or throws once the rollback budget is spent).
  const long target = step_ + steps;
  const bool time_steps =
      obs_.registry != nullptr || obs_.trace != nullptr;
  while (step_ < target) {
    const double t0 = time_steps ? wall_time() : 0.0;
    step_once();
    const double step_wall = time_steps ? wall_time() - t0 : 0.0;
    if (obs_.registry != nullptr) {
      obs_.registry->add(obs_handles_.steps);
      obs_.registry->observe(obs_handles_.step_seconds, step_wall);
      obs_.registry->set(obs_handles_.dt, config_.dt);
      if (governor_ != nullptr) {
        obs_.registry->set(
            obs_handles_.governor_strategy,
            static_cast<double>(StrategyGovernor::strategy_code(
                governor_->active())));
      }
      if (const EamForceComputer* computer = provider_->eam_computer()) {
        const EamKernelStats& ks = computer->stats();
        obs_.registry->set(obs_handles_.pair_cache_bytes,
                           static_cast<double>(ks.pair_cache_bytes));
        obs_.registry->add(obs_handles_.cache_stores,
                           static_cast<double>(ks.cache_store_slots -
                                               obs_handles_.prev_cache_stores));
        obs_.registry->add(obs_handles_.cache_reads,
                           static_cast<double>(ks.cache_read_slots -
                                               obs_handles_.prev_cache_reads));
        obs_handles_.prev_cache_stores = ks.cache_store_slots;
        obs_handles_.prev_cache_reads = ks.cache_read_slots;
      }
      const NeighborBuildStats ns = neighbor_stats();
      obs_.registry->add(obs_handles_.grid_reshapes,
                         static_cast<double>(ns.grid_reshapes -
                                             obs_handles_.prev_grid_reshapes));
      obs_.registry->add(
          obs_handles_.stencil_rebuilds,
          static_cast<double>(ns.stencil_rebuilds -
                              obs_handles_.prev_stencil_rebuilds));
      obs_.registry->add(
          obs_handles_.reconstructions,
          static_cast<double>(list_reconstructions_ -
                              obs_handles_.prev_reconstructions));
      obs_.registry->add(obs_handles_.bin_seconds,
                         ns.bin_seconds - obs_handles_.prev_bin_seconds);
      obs_.registry->add(obs_handles_.count_seconds,
                         ns.count_seconds - obs_handles_.prev_count_seconds);
      obs_.registry->add(obs_handles_.fill_seconds,
                         ns.fill_seconds - obs_handles_.prev_fill_seconds);
      obs_.registry->set(obs_handles_.list_bytes,
                         static_cast<double>(list_->memory_bytes()));
      obs_handles_.prev_grid_reshapes = ns.grid_reshapes;
      obs_handles_.prev_stencil_rebuilds = ns.stencil_rebuilds;
      obs_handles_.prev_reconstructions = list_reconstructions_;
      obs_handles_.prev_bin_seconds = ns.bin_seconds;
      obs_handles_.prev_count_seconds = ns.count_seconds;
      obs_handles_.prev_fill_seconds = ns.fill_seconds;
      if (obs_.profile_hw) {
        if (const EamForceComputer* computer = provider_->eam_computer()) {
          const auto hw_totals = computer->hw_profiler().phase_totals();
          const double atoms_d = static_cast<double>(system_.size());
          double cycles = 0.0, instructions = 0.0;
          for (const auto& t : hw_totals) {
            if (t.phase < 0 || t.phase >= 3) continue;
            const auto p = static_cast<std::size_t>(t.phase);
            obs_.registry->set(obs_handles_.hw_ipc[p], t.counts.ipc());
            obs_.registry->set(obs_handles_.hw_miss_rate[p],
                               t.counts.cache_miss_rate());
            obs_.registry->set(
                obs_handles_.hw_cycles_per_atom[p],
                atoms_d > 0.0 ? t.counts.cycles / atoms_d : 0.0);
            cycles += t.counts.cycles;
            instructions += t.counts.instructions;
          }
          if (!hw_totals.empty()) {
            obs_.registry->add(obs_handles_.hw_cycles, cycles);
            obs_.registry->add(obs_handles_.hw_instructions, instructions);
          }
        }
      }
      if (obs_.profile_sweep) {
        if (const obs::SdcSweepProfiler* prof = sweep_profiler()) {
          // Step-level load-balance aggregates across all (phase, color)
          // sweeps: how much the slowest threads stretched the step
          // (imbalance, 1.0 = balanced) and what fraction of the mean
          // thread's time went to the color barriers.
          double work_max_sum = 0.0, work_mean_sum = 0.0, wait_sum = 0.0;
          for (const auto& p : prof->color_profiles()) {
            work_max_sum += p.work_max;
            work_mean_sum += p.work_mean;
            wait_sum += p.wait_mean;
          }
          if (work_mean_sum > 0.0) {
            obs_.registry->set(obs_handles_.sweep_imbalance,
                               work_max_sum / work_mean_sum);
            obs_.registry->set(obs_handles_.sweep_barrier_frac,
                               wait_sum / (work_mean_sum + wait_sum));
          }
        }
      }
    }
    if (monitor_) guard_after_step();
    if (governor_) govern_after_step();
    const bool sampled = step_ % obs_.sample_every == 0;
    if (obs_.trace != nullptr && sampled) {
      obs_.trace->complete_event("step " + std::to_string(step_), "sim", t0,
                                 step_wall, kDriverTid);
      if (const obs::SdcSweepProfiler* prof = sweep_profiler()) {
        obs::append_sweep_events(*obs_.trace, *prof,
                                 "step " + std::to_string(step_) + "/");
      }
    }
    if (obs_.step_writer != nullptr && sampled) {
      obs_.step_writer->write_step(step_, *obs_.registry, sweep_profiler(),
                                   step_wall);
    }
    if (callback && callback_every > 0 && step_ % callback_every == 0) {
      callback(*this, step_);
    }
  }
  SDCMD_DEBUG("run finished at step " << step_ << " after " << rebuilds_
                                      << " neighbor rebuilds");
}

ThermoSample Simulation::sample() const {
  ThermoSample s;
  s.step = step_;
  const Atoms& atoms = system_.atoms();
  s.kinetic_energy = kinetic_energy(atoms.velocity, system_.mass());
  // Linear momentum stays zero once velocity init removed it, unless a
  // stochastic thermostat re-injects it - count DOF accordingly.
  const bool constrained =
      momentum_zeroed_ && (!thermostat_ || thermostat_->conserves_momentum());
  s.temperature = temperature_of(
      atoms.velocity, system_.mass(),
      temperature_dof(atoms.size(), constrained));
  s.pair_energy = last_result_.pair_energy;
  s.embedding_energy = last_result_.embedding_energy;
  s.pressure = pressure_of(atoms.size(), system_.box(), s.temperature,
                           last_result_.virial);
  return s;
}

}  // namespace sdcmd
