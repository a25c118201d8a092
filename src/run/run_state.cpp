#include "run/run_state.hpp"

#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"

namespace sdcmd::run {

namespace {

constexpr const char* kSchema = "sdcmd.run_state.v1";

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

}  // namespace

std::string to_json(const RunState& state) {
  std::string out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.member("schema", kSchema);
  json.member("step", static_cast<std::int64_t>(state.step));
  json.member("dt", state.dt);
  json.member("total_energy", state.total_energy);
  json.member("momentum_zeroed", state.momentum_zeroed);
  json.member("config_hash", hex64(state.config_hash));
  json.member("checkpoint_file", state.checkpoint_file);
  json.member("governor", state.has_governor);
  json.member("governor_strategy",
              StrategyGovernor::strategy_code(state.governor.active));
  json.member("governor_demotions",
              static_cast<std::int64_t>(state.governor.demotions));
  json.member("governor_promotions",
              static_cast<std::int64_t>(state.governor.promotions));
  json.member("governor_race_suspects",
              static_cast<std::int64_t>(state.governor.race_suspects));
  json.member("governor_feasible_streak", state.governor.feasible_streak);
  json.member("governor_backoff", state.governor.backoff);
  json.end_object();
  return out;
}

RunState parse_run_state(const std::string& json) {
  RunState state;
  std::string schema;
  int strategy_code = 0;
  bool saw_step = false, saw_dt = false;
  // Unknown members are skipped for forward compatibility (a v1.1 writer
  // may add fields this reader does not know about). A known member of
  // the wrong type, or a number outside its field's range, is refused.
  for (const auto& [key, value] : obs::parse_flat_object(json, "run_state")) {
    try {
      if (key == "schema") {
        schema = value.as_string();
      } else if (key == "step") {
        state.step = value.as_int();
        saw_step = true;
      } else if (key == "dt") {
        state.dt = value.as_double();
        saw_dt = true;
      } else if (key == "total_energy") {
        state.total_energy = value.as_double();
      } else if (key == "momentum_zeroed") {
        state.momentum_zeroed = value.as_bool();
      } else if (key == "config_hash") {
        state.config_hash = std::strtoull(value.as_string().c_str(), nullptr,
                                          16);
      } else if (key == "checkpoint_file") {
        state.checkpoint_file = value.as_string();
      } else if (key == "governor") {
        state.has_governor = value.as_bool();
      } else if (key == "governor_strategy") {
        strategy_code = value.as_int32();
      } else if (key == "governor_demotions") {
        state.governor.demotions = value.as_int();
      } else if (key == "governor_promotions") {
        state.governor.promotions = value.as_int();
      } else if (key == "governor_race_suspects") {
        state.governor.race_suspects = value.as_int();
      } else if (key == "governor_feasible_streak") {
        state.governor.feasible_streak = value.as_int32();
      } else if (key == "governor_backoff") {
        state.governor.backoff = value.as_int32();
      }
    } catch (const ParseError& e) {
      throw ParseError("run_state: member '" + key + "': " + e.what());
    }
  }
  if (schema != kSchema) {
    throw ParseError("run_state: schema mismatch: expected '" +
                     std::string(kSchema) + "', got '" + schema + "'");
  }
  if (!saw_step || !saw_dt) {
    throw ParseError("run_state: missing required member (step, dt)");
  }
  if (state.dt <= 0.0) {
    throw ParseError("run_state: dt must be positive");
  }
  if (state.step < 0) {
    throw ParseError("run_state: step must be non-negative");
  }
  // Decode the governor rung defensively: a sidecar written by a NEWER
  // ladder may carry a code this build has never heard of, and an older
  // one a retired code (7) that decodes to nothing (codes are append-only
  // and never reused, so misdecoding is impossible — but so is guessing).
  // Dropping only the governor block keeps the rest of the sidecar (step,
  // dt, momentum flag, checkpoint pointer) usable: the resumed run falls
  // back to fresh governor setup instead of discarding the whole resume.
  const std::optional<ReductionStrategy> active =
      StrategyGovernor::try_strategy_from_code(strategy_code);
  if (active && StrategyGovernor::on_ladder(*active)) {
    state.governor.active = *active;
  } else if (state.has_governor) {
    SDCMD_WARN("run_state: unknown, retired or off-ladder governor "
               "strategy code "
               << strategy_code
               << "; ignoring the saved governor state");
    state.has_governor = false;
    state.governor = GovernorState{};
  }
  return state;
}

}  // namespace sdcmd::run
