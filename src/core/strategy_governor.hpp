// StrategyGovernor: owns the reduction-strategy choice for the lifetime of
// a run.
//
// The SDC coloring is only race-free while every decomposed subdomain edge
// stays >= 2 * interaction range with an even count per dimension - an
// invariant a barostat or box deformer can silently break hundreds of steps
// into an NPT run. Instead of racing (undetected corruption) or dying with
// InfeasibleError, the governor re-validates feasibility on every box
// change and walks a graceful degradation ladder:
//
//     SDC -> CellTask -> ArrayPrivatization -> LockStriped -> Atomic -> Serial
//
// CellTask (the Mangiardi/Meyer cell-task shape) sits directly below SDC:
// it only needs two cell blocks rather than SDC's even-per-dimension split,
// so most boxes that break SDC still run lock-cheap cell tasks before the
// ladder falls back to SAP's thread-linear replicas.
//
// Demotion is immediate (the active rung's precondition just vanished);
// re-promotion is hysteretic: the box must stay feasible for
// `promote_streak * backoff` consecutive steps, and every demotion
// multiplies the backoff (capped), so a box oscillating around the
// feasibility boundary settles on the safe rung instead of thrashing.
//
// The governor is pure decision logic: it never touches kernels or
// schedules itself. The Simulation driver applies its decisions
// (ForceProvider::set_strategy + geometry rebuild) and feeds box-change /
// per-step / shadow-validation events in. See docs/robustness.md.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/cell_task_schedule.hpp"
#include "core/sdc_schedule.hpp"
#include "core/strategy.hpp"
#include "geom/box.hpp"

namespace sdcmd {

struct GovernorConfig {
  /// Top rung of the ladder; must be one of the ladder strategies
  /// (Sdc, CellTask, ArrayPrivatization, LockStriped, Atomic, Serial).
  ReductionStrategy preferred = ReductionStrategy::Sdc;
  /// SDC settings used when probing/running the Sdc rung.
  SdcConfig sdc;
  /// Consecutive feasible steps required before re-promotion (multiplied by
  /// the backoff counter).
  int promote_streak = 20;
  /// Each demotion multiplies the required streak by this factor...
  int backoff_factor = 2;
  /// ...up to this cap.
  int max_backoff = 8;
  /// ArrayPrivatization replication budget in bytes (threads * atoms *
  /// (rho + force) replicas); 0 = unlimited. Over budget, SAP is skipped
  /// and the ladder continues at LockStriped.
  std::size_t max_private_bytes = 0;
  /// Every N steps the driver recomputes rho/forces with the serial
  /// reference kernels and compares against the active strategy
  /// (demote + guard.strategy_race_suspect on mismatch); 0 = off.
  long shadow_check_every = 0;
  /// Max absolute rho / force-component deviation the shadow pass accepts.
  double shadow_tolerance = 1e-12;
};

enum class GovernorEvent { None, Demotion, Promotion };

struct GovernorDecision {
  ReductionStrategy strategy = ReductionStrategy::Serial;
  GovernorEvent event = GovernorEvent::None;
  /// Human-readable cause ("2-D SDC infeasible: ...") for logs and trace
  /// markers; empty when nothing happened.
  std::string reason;

  bool changed() const { return event != GovernorEvent::None; }
};

/// Snapshot of the governor's mutable state, so a checkpoint restart can
/// resume mid-demotion instead of blindly re-selecting the preferred rung.
struct GovernorState {
  ReductionStrategy active = ReductionStrategy::Serial;
  long demotions = 0;
  long promotions = 0;
  long race_suspects = 0;
  int feasible_streak = 0;
  int backoff = 1;
};

class StrategyGovernor {
 public:
  /// The degradation ladder, best rung first.
  static constexpr ReductionStrategy kLadder[] = {
      ReductionStrategy::Sdc,
      ReductionStrategy::CellTask,
      ReductionStrategy::ArrayPrivatization,
      ReductionStrategy::LockStriped,
      ReductionStrategy::Atomic,
      ReductionStrategy::Serial,
  };

  /// Throws PreconditionError when `config.preferred` is not a ladder rung
  /// or the hysteresis knobs are out of range.
  explicit StrategyGovernor(GovernorConfig config);

  /// Initial selection: the best feasible rung at or below `preferred`.
  /// After restore_state(), validates the restored rung instead (keeping it
  /// even when a better rung is feasible - promotion stays hysteretic
  /// across restarts) and demotes if the restored rung went infeasible.
  GovernorDecision setup(const Box& box, double interaction_range,
                         int threads, std::size_t atom_count);

  /// Re-validate after any box change (barostat step, deform event,
  /// checkpoint restore, skin growth). Demotes immediately when the active
  /// rung is no longer feasible; never promotes (that is on_step's job).
  GovernorDecision on_box_change(const Box& box, double interaction_range,
                                 int threads, std::size_t atom_count);

  /// Per-step hysteresis tick: counts consecutive steps on which a better
  /// rung is feasible and promotes once the streak reaches
  /// promote_streak * backoff.
  GovernorDecision on_step(const Box& box, double interaction_range,
                           int threads, std::size_t atom_count);

  /// Shadow validation caught the active strategy disagreeing with the
  /// serial reference (or race_check found overlapping footprints): demote
  /// one rung regardless of what the geometry claims.
  GovernorDecision on_shadow_mismatch(const std::string& detail);

  /// Non-throwing feasibility probe for one rung.
  bool rung_feasible(ReductionStrategy rung, const Box& box,
                     double interaction_range, int threads,
                     std::size_t atom_count) const;

  ReductionStrategy active() const { return state_.active; }
  const GovernorConfig& config() const { return config_; }
  const GovernorState& state() const { return state_; }
  void restore_state(const GovernorState& state);

  long demotions() const { return state_.demotions; }
  long promotions() const { return state_.promotions; }
  long race_suspects() const { return state_.race_suspects; }
  /// Feasible steps currently required before the next promotion.
  int required_streak() const;

  /// Stable numeric encoding for the governor.active_strategy gauge:
  /// serial=0, critical=1, atomic=2, locks=3, sap=4, rc=5, sdc=6,
  /// celltask=7. Codes are append-only: a new rung NEVER renumbers an old
  /// one, so sidecars written by any ladder version decode or are rejected,
  /// never misdecoded.
  static int strategy_code(ReductionStrategy s);

  /// Inverse of strategy_code, for restoring a checkpointed rung from the
  /// run_state.v1 sidecar. Throws PreconditionError on an unknown code.
  static ReductionStrategy strategy_from_code(int code);

  /// Non-throwing inverse of strategy_code: nullopt for unknown /
  /// out-of-range codes, e.g. a sidecar written by a NEWER ladder whose
  /// rung this build does not know. Callers should warn and fall back to
  /// fresh setup instead of guessing.
  static std::optional<ReductionStrategy> try_strategy_from_code(int code);

  /// True when `s` is a rung of the degradation ladder (a strategy a
  /// sidecar can legitimately carry as the governor's active rung).
  static bool on_ladder(ReductionStrategy s) { return ladder_index(s) >= 0; }

 private:
  /// Ladder index of `s`, or -1 when `s` is not on the ladder.
  static int ladder_index(ReductionStrategy s);

  /// Best feasible rung at or below the preferred one (Serial is always
  /// feasible, so this never fails).
  ReductionStrategy best_feasible(const Box& box, double interaction_range,
                                  int threads, std::size_t atom_count) const;

  GovernorDecision demote_to(ReductionStrategy rung, std::string reason);

  GovernorConfig config_;
  GovernorState state_;
  bool restored_ = false;  ///< restore_state ran before setup
};

}  // namespace sdcmd
