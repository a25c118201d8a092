#include "core/strategy_governor.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace sdcmd {

namespace {

/// Bytes one ArrayPrivatization replica set costs per thread: a rho copy
/// and a force copy per atom (see EamForceComputer::SapWorkspace).
std::size_t sap_bytes(int threads, std::size_t atom_count) {
  return static_cast<std::size_t>(threads) * atom_count *
         (sizeof(double) + sizeof(Vec3));
}

}  // namespace

StrategyGovernor::StrategyGovernor(GovernorConfig config)
    : config_(config) {
  SDCMD_REQUIRE(ladder_index(config_.preferred) >= 0,
                "governor preferred strategy must be on the ladder "
                "(sdc, celltask, sap, locks, atomic or serial), got " +
                    to_string(config_.preferred));
  SDCMD_REQUIRE(config_.promote_streak >= 1,
                "promotion streak must be >= 1");
  SDCMD_REQUIRE(config_.backoff_factor >= 1, "backoff factor must be >= 1");
  SDCMD_REQUIRE(config_.max_backoff >= 1, "backoff cap must be >= 1");
  SDCMD_REQUIRE(config_.shadow_check_every >= 0,
                "shadow-check cadence must be non-negative");
  SDCMD_REQUIRE(config_.shadow_tolerance > 0.0,
                "shadow tolerance must be positive");
  state_.active = config_.preferred;
}

int StrategyGovernor::ladder_index(ReductionStrategy s) {
  for (int i = 0; i < static_cast<int>(std::size(kLadder)); ++i) {
    if (kLadder[i] == s) return i;
  }
  return -1;
}

int StrategyGovernor::strategy_code(ReductionStrategy s) {
  switch (s) {
    case ReductionStrategy::Serial: return 0;
    case ReductionStrategy::Critical: return 1;
    case ReductionStrategy::Atomic: return 2;
    case ReductionStrategy::LockStriped: return 3;
    case ReductionStrategy::ArrayPrivatization: return 4;
    case ReductionStrategy::RedundantComputation: return 5;
    case ReductionStrategy::Sdc: return 6;
    case ReductionStrategy::CellTask: return 7;
  }
  return -1;
}

std::optional<ReductionStrategy> StrategyGovernor::try_strategy_from_code(
    int code) {
  for (const ReductionStrategy s : kAllStrategies) {
    if (strategy_code(s) == code) return s;
  }
  return std::nullopt;
}

ReductionStrategy StrategyGovernor::strategy_from_code(int code) {
  const std::optional<ReductionStrategy> s = try_strategy_from_code(code);
  if (!s) {
    throw PreconditionError("unknown reduction-strategy code " +
                            std::to_string(code));
  }
  return *s;
}

int StrategyGovernor::required_streak() const {
  return config_.promote_streak * state_.backoff;
}

bool StrategyGovernor::rung_feasible(ReductionStrategy rung, const Box& box,
                                     double interaction_range, int threads,
                                     std::size_t atom_count) const {
  switch (rung) {
    case ReductionStrategy::Sdc:
      return SdcSchedule::feasible(box, interaction_range, config_.sdc);
    case ReductionStrategy::CellTask:
      return CellTaskSchedule::feasible(box, interaction_range);
    case ReductionStrategy::ArrayPrivatization:
      return config_.max_private_bytes == 0 ||
             sap_bytes(threads, atom_count) <= config_.max_private_bytes;
    case ReductionStrategy::LockStriped:
    case ReductionStrategy::Atomic:
    case ReductionStrategy::Serial:
      return true;
    default:
      return false;  // not a ladder rung
  }
}

ReductionStrategy StrategyGovernor::best_feasible(
    const Box& box, double interaction_range, int threads,
    std::size_t atom_count) const {
  bool at_or_below_preferred = false;
  for (ReductionStrategy rung : kLadder) {
    if (rung == config_.preferred) at_or_below_preferred = true;
    if (!at_or_below_preferred) continue;
    if (rung_feasible(rung, box, interaction_range, threads, atom_count)) {
      return rung;
    }
  }
  return ReductionStrategy::Serial;  // unreachable: Serial is always feasible
}

GovernorDecision StrategyGovernor::demote_to(ReductionStrategy rung,
                                             std::string reason) {
  state_.active = rung;
  ++state_.demotions;
  state_.feasible_streak = 0;
  state_.backoff =
      std::min(state_.backoff * config_.backoff_factor, config_.max_backoff);
  GovernorDecision decision;
  decision.strategy = rung;
  decision.event = GovernorEvent::Demotion;
  decision.reason = std::move(reason);
  return decision;
}

void StrategyGovernor::restore_state(const GovernorState& state) {
  SDCMD_REQUIRE(ladder_index(state.active) >= 0,
                "restored governor strategy must be on the ladder");
  state_ = state;
  state_.backoff = std::clamp(state_.backoff, 1, config_.max_backoff);
  restored_ = true;
}

GovernorDecision StrategyGovernor::setup(const Box& box,
                                         double interaction_range,
                                         int threads,
                                         std::size_t atom_count) {
  if (restored_) {
    // Resume where the previous run left off: keep the restored rung when
    // it is still feasible (promotion stays hysteretic across restarts);
    // demote when the restored box no longer supports it.
    restored_ = false;
    if (rung_feasible(state_.active, box, interaction_range, threads,
                      atom_count)) {
      GovernorDecision decision;
      decision.strategy = state_.active;
      decision.reason = "restored " + to_string(state_.active);
      return decision;
    }
    const ReductionStrategy best =
        best_feasible(box, interaction_range, threads, atom_count);
    return demote_to(best, "restored rung " + to_string(state_.active) +
                               " infeasible for the restored box; demoting "
                               "to " + to_string(best));
  }
  state_.active = best_feasible(box, interaction_range, threads, atom_count);
  GovernorDecision decision;
  decision.strategy = state_.active;
  decision.reason = "selected " + to_string(state_.active) +
                    (state_.active == config_.preferred
                         ? ""
                         : " (" + to_string(config_.preferred) +
                               " infeasible at setup)");
  return decision;
}

GovernorDecision StrategyGovernor::on_box_change(const Box& box,
                                                 double interaction_range,
                                                 int threads,
                                                 std::size_t atom_count) {
  GovernorDecision decision;
  decision.strategy = state_.active;
  if (rung_feasible(state_.active, box, interaction_range, threads,
                    atom_count)) {
    return decision;  // still fine; promotion is on_step's job
  }
  const ReductionStrategy best =
      best_feasible(box, interaction_range, threads, atom_count);
  std::ostringstream os;
  os << to_string(state_.active) << " infeasible after box change (box "
     << box.length(0) << " x " << box.length(1) << " x " << box.length(2)
     << ", range " << interaction_range << "); demoting to "
     << to_string(best);
  return demote_to(best, os.str());
}

GovernorDecision StrategyGovernor::on_step(const Box& box,
                                           double interaction_range,
                                           int threads,
                                           std::size_t atom_count) {
  GovernorDecision decision;
  decision.strategy = state_.active;
  if (state_.active == config_.preferred) {
    state_.feasible_streak = 0;
    return decision;
  }
  // Defensive re-validation: box changes normally arrive via
  // on_box_change, but a caller mutating the box behind our back should
  // still demote rather than race.
  if (!rung_feasible(state_.active, box, interaction_range, threads,
                     atom_count)) {
    const ReductionStrategy best =
        best_feasible(box, interaction_range, threads, atom_count);
    return demote_to(best, to_string(state_.active) +
                               " went infeasible between box changes; "
                               "demoting to " + to_string(best));
  }
  const ReductionStrategy best =
      best_feasible(box, interaction_range, threads, atom_count);
  if (ladder_index(best) >= ladder_index(state_.active)) {
    // Nothing better is feasible; a recovery streak (if any) is broken.
    state_.feasible_streak = 0;
    return decision;
  }
  ++state_.feasible_streak;
  if (state_.feasible_streak < required_streak()) return decision;
  const ReductionStrategy from = state_.active;
  state_.active = best;
  ++state_.promotions;
  state_.feasible_streak = 0;
  decision.strategy = best;
  decision.event = GovernorEvent::Promotion;
  decision.reason = to_string(best) + " feasible for " +
                    std::to_string(required_streak()) +
                    " consecutive steps; promoting from " + to_string(from);
  return decision;
}

GovernorDecision StrategyGovernor::on_shadow_mismatch(
    const std::string& detail) {
  ++state_.race_suspects;
  GovernorDecision decision;
  decision.strategy = state_.active;
  if (state_.active == ReductionStrategy::Serial) {
    // The serial reference disagreeing with itself means the mismatch is
    // not a concurrency bug; nothing below Serial to demote to.
    decision.reason = "shadow mismatch on the serial rung: " + detail;
    return decision;
  }
  const int below = ladder_index(state_.active) + 1;
  // Geometry said the rung was fine and the numbers disagree anyway - do
  // not trust the feasibility probe, just step one rung down.
  const ReductionStrategy next =
      below < static_cast<int>(std::size(kLadder))
          ? kLadder[below]
          : ReductionStrategy::Serial;
  return demote_to(next, "shadow validation mismatch on " +
                             to_string(state_.active) + " (" + detail +
                             "); demoting to " + to_string(next));
}

}  // namespace sdcmd
