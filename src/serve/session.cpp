#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/threads.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "core/strategy_governor.hpp"
#include "md/thermostat.hpp"
#include "obs/json.hpp"
#include "serve/wire.hpp"

namespace sdcmd::serve {

namespace {

constexpr const char* kSpecSchema = "sdcmd.session.v1";
constexpr const char* kSpecName = "session.json";

/// Temp-then-rename writer for session.json, mirroring RunDir's artifact
/// discipline: a crash mid-write never clobbers the readable descriptor.
void write_spec_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << text;
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw Error("session: cannot write '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("session: cannot rename '" + tmp + "' to '" + path + "'");
  }
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("session: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::uint64_t SessionSpec::config_hash() const {
  std::uint64_t h = kFnv1a64Offset;
  h = fnv1a64_mix(h, cells);
  h = fnv1a64_mix(h, temp);
  h = fnv1a64_mix(h, seed);
  h = fnv1a64_mix(h, governed);
  h = fnv1a64_mix(h, strategy_code);
  return h;
}

std::string SessionSpec::to_json() const {
  std::string out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.member("schema", kSpecSchema);
  json.member("id", id);
  json.member("cells", cells);
  json.member("temp", temp);
  json.member("seed", static_cast<std::int64_t>(seed));
  json.member("dt_fs", dt_fs);
  json.member("governed", governed);
  json.member("strategy_code", strategy_code);
  json.member("threads", threads);
  json.member("checkpoint_every", static_cast<std::int64_t>(checkpoint_every));
  json.member("keep", keep);
  json.end_object();
  return out;
}

SessionSpec SessionSpec::parse(const std::string& json) {
  const WireMessage msg = WireMessage::parse(json);
  if (msg.get_string("schema") != kSpecSchema) {
    throw ParseError("session: schema mismatch: expected '" +
                     std::string(kSpecSchema) + "', got '" +
                     msg.get_string("schema") + "'");
  }
  SessionSpec spec;
  spec.id = msg.require_string("id");
  spec.read(msg, "strategy_code");
  spec.validate();
  return spec;
}

void SessionSpec::read(const WireMessage& msg,
                       const std::string& strategy_key) {
  const auto read_int = [&msg](const std::string& key, int& field) {
    const JsonValue* v = msg.find(key);
    if (v == nullptr || !v->is_number()) return;
    try {
      field = v->as_int32();
    } catch (const ParseError& e) {
      throw ParseError("session: " + key + ": " + e.what());
    }
  };
  read_int("cells", cells);
  temp = msg.get_double("temp", temp);
  seed = msg.get_int("seed", seed);
  dt_fs = msg.get_double("dt_fs", dt_fs);
  governed = msg.get_bool("governed", governed);
  read_int(strategy_key, strategy_code);
  read_int("threads", threads);
  checkpoint_every = msg.get_int("checkpoint_every", checkpoint_every);
  read_int("keep", keep);
}

void SessionSpec::validate(int max_threads) const {
  if (cells < 3 || cells > 64) {
    throw ParseError("session: cells out of range [3, 64]");
  }
  if (!(dt_fs > 0.0)) {
    throw ParseError("session: dt_fs must be positive");
  }
  if (threads < 1 || threads > max_threads) {
    throw ParseError("session: threads out of range [1, " +
                     std::to_string(max_threads) + "]");
  }
  if (checkpoint_every < 1) {
    throw ParseError("session: checkpoint_every must be >= 1");
  }
  if (keep < 1) {
    throw ParseError("session: keep must be >= 1");
  }
  // Reject unusable strategy codes at admission, not deep inside
  // materialize(): a client built against a newer ladder may send a code
  // this server has never heard of, and a retired code decodes to nothing.
  const std::optional<ReductionStrategy> strat =
      StrategyGovernor::try_strategy_from_code(strategy_code);
  if (!strat) {
    throw ParseError("session: unknown strategy_code " +
                     std::to_string(strategy_code));
  }
  if (governed && !StrategyGovernor::on_ladder(*strat)) {
    throw ParseError("session: strategy_code " +
                     std::to_string(strategy_code) + " (" +
                     to_string(*strat) + ") is not a governor ladder rung");
  }
}

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::Running: return "running";
    case SessionState::Paused: return "paused";
    case SessionState::Suspended: return "suspended";
    case SessionState::Quarantined: return "quarantined";
  }
  return "unknown";
}

Session::Session(SessionSpec spec, const std::string& dir_path,
                 const SessionPolicy& policy)
    : spec_(std::move(spec)),
      policy_(policy),
      dir_(dir_path, spec_.keep),
      potential_(FinnisSinclairParams::iron()) {}

std::unique_ptr<Session> Session::create(SessionSpec spec,
                                         const std::string& dir_path,
                                         const SessionPolicy& policy) {
  std::unique_ptr<Session> session(
      new Session(std::move(spec), dir_path, policy));
  std::lock_guard<std::mutex> lock(session->mutex_);
  session->materialize(std::nullopt);
  // The initial ring generation: a SIGKILL at any later moment finds a
  // resume point, even before the first cadence checkpoint.
  session->supervisor_->checkpoint_now();
  // The descriptor goes last: fleet resume skips a directory without one.
  write_spec_atomic(session->dir_.file_path(kSpecName),
                    session->spec_.to_json() + "\n");
  session->state_ = SessionState::Paused;
  return session;
}

std::unique_ptr<Session> Session::open(const std::string& dir_path,
                                       const SessionPolicy& policy) {
  const std::string spec_path = dir_path + "/" + kSpecName;
  const SessionSpec spec = SessionSpec::parse(read_text_file(spec_path));
  std::unique_ptr<Session> session(new Session(spec, dir_path, policy));
  std::lock_guard<std::mutex> lock(session->mutex_);
  const std::optional<run::ResumePoint> resume =
      session->dir_.try_resume_provable();
  if (!resume) {
    throw Error("session '" + session->spec_.id +
                "': no loadable checkpoint in '" + dir_path + "'");
  }
  session->materialize(resume);
  session->state_ = SessionState::Paused;
  return session;
}

GovernorConfig Session::governor_config() const {
  GovernorConfig gov;
  gov.preferred = StrategyGovernor::strategy_from_code(spec_.strategy_code);
  return gov;
}

void Session::materialize(const std::optional<run::ResumePoint>& resume) {
  SimulationConfig config;
  config.dt = units::fs_to_internal(spec_.dt_fs);
  const ReductionStrategy preferred =
      StrategyGovernor::strategy_from_code(spec_.strategy_code);
  config.force.strategy =
      spec_.governed ? ReductionStrategy::Serial : preferred;
  if (resume && resume->state_valid && resume->state.has_governor) {
    // Construct on the checkpointed (possibly demoted) rung: the saved box
    // may be infeasible for the preferred one.
    config.force.strategy = resume->state.governor.active;
  }

  System system = [&] {
    if (resume) return resume->checkpoint.system;
    LatticeSpec lattice;
    lattice.type = LatticeType::Bcc;
    lattice.a0 = units::kLatticeFe;
    lattice.nx = lattice.ny = lattice.nz = spec_.cells;
    return System::from_lattice(lattice, units::kMassFe);
  }();

  sim_ = std::make_unique<Simulation>(std::move(system), potential_, config);
  const GovernorConfig gov = governor_config();

  if (resume) {
    sim_->set_current_step(resume->checkpoint.step);
    if (resume->state_valid) {
      const run::RunState& state = resume->state;
      if (state.config_hash != 0 && state.config_hash != spec_.config_hash()) {
        throw Error("session '" + spec_.id +
                    "': config hash mismatch between session.json and the "
                    "run_state sidecar; refusing to resume different physics");
      }
      sim_->set_dt(state.dt);
      sim_->set_com_momentum_zeroed(state.momentum_zeroed);
      if (spec_.governed && state.has_governor) {
        sim_->set_governor(gov, state.governor);
      } else if (spec_.governed) {
        sim_->set_governor(gov);
      }
      // Continuity proof: the reloaded state must reproduce the energy
      // recorded when the checkpoint was written.
      sim_->compute_forces();
      const double now = sim_->sample().total_energy();
      const double ref = state.total_energy;
      continuity_rel_ = std::abs(now - ref) / std::max(1.0, std::abs(ref));
      if (!(continuity_rel_ <= 1e-8)) {
        sim_.reset();
        throw Error("session '" + spec_.id +
                    "': energy discontinuity across resume (rel=" +
                    std::to_string(continuity_rel_) + " > 1e-8)");
      }
    } else {
      if (spec_.governed) sim_->set_governor(gov);
      sim_->compute_forces();
      continuity_rel_ = -1.0;  // no sidecar to prove against
    }
    resumed_ = true;
  } else {
    sim_->set_temperature(spec_.temp, static_cast<std::uint64_t>(spec_.seed));
    if (spec_.governed) sim_->set_governor(gov);
    sim_->compute_forces();
  }

  run::SupervisorConfig sup;
  sup.checkpoint_every = spec_.checkpoint_every;
  sup.install_signal_handlers = false;  // the server owns signal policy
  sup.watchdog_factor = 0.0;  // the serve-level watchdog quarantines instead
  sup.config_hash = spec_.config_hash();
  supervisor_ = std::make_unique<run::RunSupervisor>(*sim_, dir_, sup);

  last_step_ = sim_->current_step();
  last_energy_ = sim_->sample().total_energy();
}

void Session::release_sim() {
  supervisor_.reset();
  sim_.reset();
}

SessionState Session::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

bool Session::runnable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_ == SessionState::Running && pending_ > 0 && sim_ != nullptr;
}

SessionStatus Session::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SessionStatus s;
  s.state = state_;
  s.step = sim_ ? sim_->current_step() : last_step_;
  s.pending = pending_;
  s.total_energy = last_energy_;
  s.continuity_rel = continuity_rel_;
  s.resumed = resumed_;
  s.quanta = quanta_;
  s.steps_run = steps_run_;
  s.watchdog_trips = trips_;
  s.quarantines = quarantines_;
  s.dt_fs = sim_ ? units::internal_to_fs(sim_->config().dt) : spec_.dt_fs;
  if (sim_) {
    s.strategy = sim_->has_governor()
                     ? sdcmd::to_string(sim_->governor()->active())
                     : "fixed";
  } else {
    s.strategy = "suspended";
  }
  return s;
}

StepBudget Session::enqueue_steps(long steps) {
  SDCMD_REQUIRE(steps > 0, "step count must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  if (sim_ == nullptr) {
    throw Error("session '" + spec_.id + "' is " +
                std::string(to_string(state_)) + "; resume it before stepping");
  }
  pending_ += steps;
  state_ = SessionState::Running;
  return StepBudget{sim_->current_step(), pending_};
}

void Session::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == SessionState::Running) state_ = SessionState::Paused;
}

void Session::steer(std::optional<double> dt_fs, std::optional<double> temp,
                    double tau_fs) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sim_ == nullptr) {
    throw Error("session '" + spec_.id + "' is " +
                std::string(to_string(state_)) + "; resume it before steering");
  }
  if (dt_fs) {
    SDCMD_REQUIRE(*dt_fs > 0.0, "dt must be positive");
    sim_->set_dt(units::fs_to_internal(*dt_fs));
    // Keep the descriptor in sync so a fleet resume without a sidecar
    // (degraded path) still starts near the steered value.
    spec_.dt_fs = *dt_fs;
    write_spec_atomic(dir_.file_path(kSpecName), spec_.to_json() + "\n");
  }
  if (temp) {
    if (*temp > 0.0) {
      sim_->set_thermostat(std::make_unique<BerendsenThermostat>(
          *temp, units::fs_to_internal(tau_fs),
          sim_->com_momentum_zeroed()));
    } else {
      sim_->set_thermostat(nullptr);
    }
  }
}

bool Session::snapshot(long& step, std::vector<double>& xyz) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sim_ == nullptr) return false;
  const Atoms& atoms = sim_->system().atoms();
  step = sim_->current_step();
  xyz.resize(atoms.size() * 3);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    xyz[3 * i + 0] = atoms.position[i].x;
    xyz[3 * i + 1] = atoms.position[i].y;
    xyz[3 * i + 2] = atoms.position[i].z;
  }
  return true;
}

void Session::suspend() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sim_ == nullptr) return;  // already suspended/quarantined
  supervisor_->checkpoint_now();
  last_step_ = sim_->current_step();
  last_energy_ = sim_->sample().total_energy();
  release_sim();
  pending_ = 0;
  state_ = SessionState::Suspended;
}

void Session::resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sim_ != nullptr) return;  // already live
  const std::optional<run::ResumePoint> resume = dir_.try_resume_provable();
  if (!resume) {
    throw Error("session '" + spec_.id + "': nothing to resume in '" +
                dir_.path() + "'");
  }
  materialize(resume);
  trip_streak_ = 0;
  state_ = SessionState::Paused;
}

void Session::quarantine(const std::string& reason) {
  // Caller holds mutex_ and sim_ is live.
  SDCMD_WARN("serve: quarantining session '" << spec_.id << "': " << reason);
  ++quarantines_;
  trip_streak_ = 0;
  if (spec_.governed && sim_->has_governor()) {
    // Demote one rung before the final checkpoint so the sidecar records
    // the demoted strategy: the session resumes on cheaper, safer footing.
    GovernorState state = sim_->governor()->state();
    const ReductionStrategy below = StrategyGovernor::rung_below(state.active);
    if (below != state.active) {
      state.active = below;
      ++state.demotions;
      sim_->set_governor(governor_config(), state);
    }
  }
  supervisor_->checkpoint_now();
  last_step_ = sim_->current_step();
  last_energy_ = sim_->sample().total_energy();
  release_sim();
  pending_ = 0;
  state_ = SessionState::Quarantined;
}

QuantumResult Session::run_quantum() {
  std::lock_guard<std::mutex> lock(mutex_);
  QuantumResult result;
  if (state_ != SessionState::Running || pending_ <= 0 || sim_ == nullptr) {
    return result;
  }
  const long quantum = std::min(pending_, policy_.quantum_steps);
  // Size this worker's OpenMP team for the session: many small sessions
  // share the machine as workers × threads, never oversubscribing it with
  // one team per live session. A spec from a larger host is held to this
  // one's cores.
  set_threads(std::min(spec_.threads, hardware_threads()));
  const double t0 = wall_time();
  try {
    if (FaultInjector::instance().should_fire(faults::kServeSessionOom)) {
      throw std::bad_alloc();
    }
    supervisor_->advance(quantum);
  } catch (const std::exception& e) {
    quarantine(std::string("step quantum failed: ") + e.what());
    result.quarantined = true;
    return result;
  }
  const double wall = wall_time() - t0;
  result.steps_done = quantum;
  pending_ -= quantum;
  ++quanta_;
  steps_run_ += quantum;
  last_step_ = sim_->current_step();
  last_energy_ = sim_->sample().total_energy();

  // Quarantine watchdog: judge this quantum's per-step time against the
  // deadline derived from the *previous* EWMA (one pathological quantum
  // cannot hide by inflating the average it is judged against).
  const double per_step = wall / static_cast<double>(quantum);
  if (!ewma_seeded_) {
    ewma_ = per_step;
    ewma_seeded_ = true;
  } else {
    const double deadline = std::max(policy_.watchdog_min_seconds,
                                     ewma_ * policy_.watchdog_factor);
    if (policy_.watchdog_factor > 0.0 && per_step > deadline) {
      ++trips_;
      ++trip_streak_;
      result.tripped = true;
      SDCMD_WARN("serve: session '"
                 << spec_.id << "' step time " << per_step << " s/step blew "
                 << deadline << " s deadline (trip " << trip_streak_ << "/"
                 << policy_.quarantine_after_trips << ")");
      if (trip_streak_ >= policy_.quarantine_after_trips) {
        quarantine("pathological step times (EWMA watchdog)");
        result.quarantined = true;
        return result;
      }
    } else {
      trip_streak_ = 0;
    }
    ewma_ += policy_.ewma_alpha * (per_step - ewma_);
  }

  // An exhausted budget parks the session: Paused is the idle state, so
  // `status` distinguishes "working" from "waiting for more steps".
  if (pending_ <= 0 && state_ == SessionState::Running) {
    state_ = SessionState::Paused;
  }
  result.more = pending_ > 0 && state_ == SessionState::Running;
  return result;
}

}  // namespace sdcmd::serve
