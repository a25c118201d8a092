// Run supervisor: retention ring rotation, MANIFEST verification and
// fallback, run_state.v1 round trips, auto-resume corruption handling,
// disk-full retry/backoff, signal-driven shutdown, the wall-clock budget,
// and the step-time watchdog.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "potential/finnis_sinclair.hpp"
#include "run/run_dir.hpp"
#include "run/run_state.hpp"
#include "run/supervisor.hpp"

namespace sdcmd::run {
namespace {

namespace fs = std::filesystem;

const FinnisSinclair& iron() {
  static FinnisSinclair fe{FinnisSinclairParams::iron()};
  return fe;
}

System make_system(int cells = 3) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = cells;
  return System::from_lattice(spec, units::kMassFe);
}

SimulationConfig serial_config() {
  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Serial;
  return cfg;
}

/// Fresh scratch run directory (wiped on entry, not on exit so a failing
/// test leaves its evidence behind).
std::string scratch_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("sdcmd_run_test_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::size_t count_ring_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    const std::string name = de.path().filename().string();
    if (name.rfind("ckpt_", 0) == 0 && name.size() > 4 &&
        name.substr(name.size() - 4) == ".chk") {
      ++n;
    }
  }
  return n;
}

class RunSupervisorTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    RunSupervisor::clear_shutdown_request();
    saved_level_ = log_level();
    set_log_level(LogLevel::Error);  // retry/fallback warnings are expected
  }
  void TearDown() override {
    set_log_level(saved_level_);
    RunSupervisor::clear_shutdown_request();
    FaultInjector::instance().disarm_all();
  }
  LogLevel saved_level_ = LogLevel::Warn;
};

// ---------------------------------------------------------------- run_state

TEST_F(RunSupervisorTest, RunStateJsonRoundTrip) {
  RunState state;
  state.step = 1200;
  state.dt = 0.0010180505710774743;
  state.total_energy = -547.33129882812502;
  state.momentum_zeroed = true;
  state.config_hash = 0x9e107d9d372bb682ull;
  state.checkpoint_file = "ckpt_0000001200.chk";
  state.has_governor = true;
  state.governor.active = ReductionStrategy::LockStriped;
  state.governor.demotions = 2;
  state.governor.promotions = 1;
  state.governor.race_suspects = 1;
  state.governor.feasible_streak = 7;
  state.governor.backoff = 4;

  const RunState back = parse_run_state(to_json(state));
  EXPECT_EQ(back.step, state.step);
  EXPECT_EQ(back.dt, state.dt);  // 17-digit text round-trips exactly
  EXPECT_EQ(back.total_energy, state.total_energy);
  EXPECT_EQ(back.momentum_zeroed, state.momentum_zeroed);
  EXPECT_EQ(back.config_hash, state.config_hash);
  EXPECT_EQ(back.checkpoint_file, state.checkpoint_file);
  ASSERT_TRUE(back.has_governor);
  EXPECT_EQ(back.governor.active, ReductionStrategy::LockStriped);
  EXPECT_EQ(back.governor.demotions, 2);
  EXPECT_EQ(back.governor.promotions, 1);
  EXPECT_EQ(back.governor.race_suspects, 1);
  EXPECT_EQ(back.governor.feasible_streak, 7);
  EXPECT_EQ(back.governor.backoff, 4);
}

TEST_F(RunSupervisorTest, RunStateWithoutGovernorRoundTrips) {
  RunState state;
  state.step = 5;
  state.dt = 0.5;
  const RunState back = parse_run_state(to_json(state));
  EXPECT_FALSE(back.has_governor);
  EXPECT_EQ(back.config_hash, 0u);
}

TEST_F(RunSupervisorTest, RunStateParseErrorsCarryByteOffsets) {
  try {
    parse_run_state("{\"schema\": \"sdcmd.run_state.v1\", \"step\": }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_run_state("{\"schema\": \"other.v9\", \"step\": 1, "
                               "\"dt\": 0.5}"),
               ParseError);
  EXPECT_THROW(parse_run_state("{\"schema\": \"sdcmd.run_state.v1\", "
                               "\"step\": 1, \"dt\": -0.5}"),
               ParseError);
  // Malformed numbers, trailing bytes and out-of-range values are refused
  // with an offset or the member's name, never read as a prefix, ignored
  // or narrowed by an undefined cast.
  const std::string head = "{\"schema\": \"sdcmd.run_state.v1\", \"dt\": 0.5, ";
  for (const std::string& bad :
       {head + "\"step\": 1-2-3}", head + "\"step\": 1} trailing",
        head + "\"step\": 1, \"governor_backoff\": 1e300}",
        head + "\"step\": 1e300}"}) {
    SCOPED_TRACE(bad);
    try {
      parse_run_state(bad);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what.find("byte") != std::string::npos ||
                  what.find("member") != std::string::npos)
          << what;
    }
  }
}

TEST_F(RunSupervisorTest, RunStateSkipsUnknownMembersOfEveryScalarType) {
  // A newer writer may add members this reader does not know; each
  // scalar type is skipped and the known members still load.
  const RunState state = parse_run_state(
      "{\"schema\": \"sdcmd.run_state.v1\", \"step\": 12, \"dt\": 0.5, "
      "\"new_text\": \"x\", \"new_number\": 2.5e3, \"new_flag\": true, "
      "\"new_nothing\": null, \"checkpoint_file\": \"ckpt.chk\"}");
  EXPECT_EQ(state.step, 12);
  EXPECT_EQ(state.dt, 0.5);
  EXPECT_EQ(state.checkpoint_file, "ckpt.chk");
}

TEST_F(RunSupervisorTest, RunStateDemotedSapRungRoundTrips) {
  // A demoted rung (sap = 4) must survive the sidecar.
  RunState state;
  state.step = 42;
  state.dt = 0.5;
  state.has_governor = true;
  state.governor.active = ReductionStrategy::ArrayPrivatization;
  state.governor.demotions = 1;
  state.governor.backoff = 2;
  const RunState back = parse_run_state(to_json(state));
  ASSERT_TRUE(back.has_governor);
  EXPECT_EQ(back.governor.active, ReductionStrategy::ArrayPrivatization);
  EXPECT_EQ(back.governor.demotions, 1);
  EXPECT_EQ(back.governor.backoff, 2);
}

TEST_F(RunSupervisorTest, UnknownGovernorCodeDropsGovernorKeepsSidecar) {
  // A sidecar written by a NEWER ladder carries a strategy code this build
  // does not know, and one written before CellTask retired carries its
  // code 7, which decodes to nothing now. The old behavior threw, which
  // made the resume machinery discard the whole sidecar; the contract is
  // to drop only the governor block (fresh setup on resume) and keep
  // every other restored field.
  for (const char* code : {"99", "7"}) {
    SCOPED_TRACE(code);
    const std::string json =
        std::string("{\"schema\": \"sdcmd.run_state.v1\", \"step\": 77, "
                    "\"dt\": 0.5, \"total_energy\": -12.25, "
                    "\"momentum_zeroed\": true, "
                    "\"checkpoint_file\": \"ckpt_0000000077.chk\", "
                    "\"governor\": true, \"governor_strategy\": ") +
        code + ", \"governor_demotions\": 3, \"governor_backoff\": 4}";
    const RunState back = parse_run_state(json);
    EXPECT_FALSE(back.has_governor);
    EXPECT_EQ(back.governor.demotions, 0);  // reset, not half-restored
    EXPECT_EQ(back.step, 77);
    EXPECT_EQ(back.dt, 0.5);
    EXPECT_EQ(back.total_energy, -12.25);
    EXPECT_TRUE(back.momentum_zeroed);
    EXPECT_EQ(back.checkpoint_file, "ckpt_0000000077.chk");
  }
}

TEST_F(RunSupervisorTest, OffLadderGovernorCodeIsAlsoRejected) {
  // Code 5 (RedundantComputation) decodes, but it is not a ladder rung; a
  // sidecar claiming the governor sat there is corrupt. Restoring it would
  // make StrategyGovernor::restore_state throw mid-resume.
  const std::string json =
      "{\"schema\": \"sdcmd.run_state.v1\", \"step\": 9, \"dt\": 0.5, "
      "\"governor\": true, \"governor_strategy\": 5}";
  const RunState back = parse_run_state(json);
  EXPECT_FALSE(back.has_governor);
  EXPECT_EQ(back.step, 9);
}

// ------------------------------------------------------------------ run_dir

TEST_F(RunSupervisorTest, RetentionRingKeepsLastK) {
  const std::string dir = scratch_dir("ring");
  RunDir rd(dir, 3);
  const System system = make_system();
  for (long step : {10, 20, 30, 40, 50}) {
    RunState state;
    state.step = step;
    state.dt = 0.5;
    rd.commit(system, state);
  }
  EXPECT_EQ(count_ring_files(dir), 3u);
  const std::vector<RingEntry> ring = rd.read_manifest();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].step, 50);
  EXPECT_EQ(ring[1].step, 40);
  EXPECT_EQ(ring[2].step, 30);
  EXPECT_EQ(ring[0].file, RunDir::checkpoint_name(50));
  EXPECT_FALSE(fs::exists(rd.file_path(RunDir::checkpoint_name(10))));
  // Sidecar follows the newest generation.
  std::ifstream in(rd.file_path("run_state.json"));
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(parse_run_state(json).step, 50);
}

TEST_F(RunSupervisorTest, RecommittingSameStepDoesNotDuplicate) {
  const std::string dir = scratch_dir("same_step");
  RunDir rd(dir, 3);
  const System system = make_system();
  RunState state;
  state.step = 7;
  state.dt = 0.5;
  rd.commit(system, state);
  rd.commit(system, state);
  EXPECT_EQ(rd.read_manifest().size(), 1u);
  EXPECT_EQ(count_ring_files(dir), 1u);
}

TEST_F(RunSupervisorTest, TornManifestFallsBackToDirectoryScan) {
  const std::string dir = scratch_dir("torn");
  RunDir rd(dir, 3);
  const System system = make_system();
  RunState state;
  state.dt = 0.5;
  state.step = 10;
  rd.commit(system, state);
  state.step = 20;
  FaultSpec torn;
  torn.countdown = 0;
  FaultInjector::instance().arm(faults::kManifestTornWrite, torn);
  rd.commit(system, state);  // MANIFEST lands truncated, no rename barrier
  FaultInjector::instance().disarm_all();

  EXPECT_THROW(rd.read_manifest(), ParseError);
  // The scan still sees both generations and resume picks the newest.
  const std::vector<RingEntry> scanned = rd.scan_ring();
  ASSERT_EQ(scanned.size(), 2u);
  EXPECT_EQ(scanned[0].step, 20);
  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 20);
  EXPECT_TRUE(resume->manifest_fallback);
  EXPECT_EQ(resume->discarded, 0);
  // The next successful commit heals the MANIFEST.
  state.step = 30;
  rd.commit(system, state);
  EXPECT_EQ(rd.read_manifest().size(), 3u);
}

TEST_F(RunSupervisorTest, ResumeSkipsCorruptNewestCandidate) {
  const std::string dir = scratch_dir("corrupt_newest");
  RunDir rd(dir, 3);
  const System system = make_system();
  RunState state;
  state.dt = 0.5;
  for (long step : {10, 20, 30}) {
    state.step = step;
    rd.commit(system, state);
  }
  // Truncate the newest generation to half its bytes: the checksum
  // fast-fail must discard it and resume from step 20.
  const std::string newest = rd.file_path(RunDir::checkpoint_name(30));
  std::ifstream in(newest, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(newest, std::ios::binary | std::ios::trunc);
  out << bytes.substr(0, bytes.size() / 2);
  out.close();

  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 20);
  EXPECT_EQ(resume->discarded, 1);
  // The sidecar describes step 30, not the surviving step 20 checkpoint:
  // it must be ignored rather than trusted.
  EXPECT_FALSE(resume->state_valid);
}

TEST_F(RunSupervisorTest, ResumeOnEmptyDirectoryIsNullopt) {
  RunDir rd(scratch_dir("empty"), 2);
  EXPECT_FALSE(rd.try_resume().has_value());
}

TEST_F(RunSupervisorTest, MissingManifestStillResumesFromScan) {
  const std::string dir = scratch_dir("no_manifest");
  RunDir rd(dir, 2);
  RunState state;
  state.dt = 0.5;
  state.step = 10;
  rd.commit(make_system(), state);
  fs::remove(rd.file_path("MANIFEST"));
  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 10);
  EXPECT_TRUE(resume->state_valid);
}

// --------------------------------------------------------------- supervisor

TEST_F(RunSupervisorTest, SupervisorWritesRingOnCadence) {
  const std::string dir = scratch_dir("cadence");
  RunDir rd(dir, 3);
  Simulation sim(make_system(), iron(), serial_config());
  SupervisorConfig cfg;
  cfg.checkpoint_every = 4;
  cfg.install_signal_handlers = false;
  RunSupervisor sup(sim, rd, cfg);

  EXPECT_EQ(sup.run_to(10), RunOutcome::Completed);
  EXPECT_EQ(sim.current_step(), 10);
  // Generations at steps 0, 4, 8 and the final one at 10, pruned to 3.
  EXPECT_EQ(sup.checkpoints_written(), 4);
  const std::vector<RingEntry> ring = rd.read_manifest();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring[0].step, 10);
}

TEST_F(RunSupervisorTest, DiskFullRetriesThenRecovers) {
  const std::string dir = scratch_dir("disk_full");
  RunDir rd(dir, 3);
  Simulation sim(make_system(), iron(), serial_config());
  obs::MetricsRegistry registry;
  SupervisorConfig cfg;
  cfg.checkpoint_every = 100;
  cfg.install_signal_handlers = false;
  cfg.retry_backoff_initial_s = 0.0;  // no sleeping in tests
  cfg.registry = &registry;
  RunSupervisor sup(sim, rd, cfg);

  FaultSpec fault;
  fault.shots = 2;  // two attempts fail, the third lands
  FaultInjector::instance().arm(faults::kDiskFull, fault);
  EXPECT_TRUE(sup.checkpoint_now());
  EXPECT_EQ(sup.checkpoint_retries(), 2);
  EXPECT_EQ(sup.checkpoint_failures(), 0);
  EXPECT_EQ(registry.value(registry.counter("run.checkpoint_retries")), 2.0);
  EXPECT_EQ(registry.value(registry.counter("run.checkpoint_failures")), 0.0);
  EXPECT_EQ(sup.checkpoint_interval(), 100);  // cadence untouched
  EXPECT_TRUE(rd.try_resume().has_value());
}

TEST_F(RunSupervisorTest, DiskFullExhaustionWidensIntervalAndRunSurvives) {
  const std::string dir = scratch_dir("disk_full_exhausted");
  RunDir rd(dir, 3);
  Simulation sim(make_system(), iron(), serial_config());
  obs::MetricsRegistry registry;
  SupervisorConfig cfg;
  cfg.checkpoint_every = 10;
  cfg.max_write_retries = 1;
  cfg.retry_backoff_initial_s = 0.0;
  cfg.install_signal_handlers = false;
  cfg.registry = &registry;
  RunSupervisor sup(sim, rd, cfg);

  FaultSpec fault;
  fault.shots = -1;  // the disk stays full
  FaultInjector::instance().arm(faults::kDiskFull, fault);
  EXPECT_FALSE(sup.checkpoint_now());
  EXPECT_EQ(sup.checkpoint_failures(), 1);
  EXPECT_EQ(sup.checkpoint_retries(), 1);
  EXPECT_EQ(sup.checkpoint_interval(), 20);  // widened, not dead
  EXPECT_EQ(registry.value(registry.gauge("run.checkpoint_interval")), 20.0);

  // The disk recovers: the next success restores the configured cadence.
  FaultInjector::instance().disarm_all();
  EXPECT_TRUE(sup.checkpoint_now());
  EXPECT_EQ(sup.checkpoint_interval(), 10);
}

TEST_F(RunSupervisorTest, ShutdownRequestCheckpointsAndStops) {
  const std::string dir = scratch_dir("shutdown");
  RunDir rd(dir, 3);
  Simulation sim(make_system(), iron(), serial_config());
  SupervisorConfig cfg;
  cfg.checkpoint_every = 1000;
  cfg.install_signal_handlers = false;
  RunSupervisor sup(sim, rd, cfg);

  RunSupervisor::request_shutdown();  // what the SIGTERM handler does
  EXPECT_EQ(sup.run_to(1000), RunOutcome::SignalShutdown);
  EXPECT_EQ(sim.current_step(), 0);  // stopped at the first boundary
  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 0);
}

TEST_F(RunSupervisorTest, WallClockBudgetStopsWithCheckpoint) {
  const std::string dir = scratch_dir("wall");
  RunDir rd(dir, 3);
  Simulation sim(make_system(), iron(), serial_config());
  SupervisorConfig cfg;
  cfg.checkpoint_every = 1000;
  cfg.max_wall_seconds = 1e-9;  // expires before the first step
  cfg.install_signal_handlers = false;
  RunSupervisor sup(sim, rd, cfg);

  EXPECT_EQ(sup.run_to(1000), RunOutcome::WallClockExpired);
  EXPECT_LT(sim.current_step(), 1000);
  EXPECT_TRUE(rd.try_resume().has_value());
}

TEST_F(RunSupervisorTest, WatchdogTripsOnPathologicalStep) {
  const std::string dir = scratch_dir("watchdog");
  RunDir rd(dir, 3);
  Simulation sim(make_system(), iron(), serial_config());
  SupervisorConfig cfg;
  cfg.checkpoint_every = 1000;
  cfg.install_signal_handlers = false;
  cfg.watchdog_factor = 3.0;
  cfg.watchdog_min_seconds = 0.02;
  RunSupervisor sup(sim, rd, cfg);

  // Step 3 stalls for ~25x the floor; every other step is ordinary.
  const Simulation::Callback stall = [](const Simulation&, long step) {
    if (step == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  };
  EXPECT_EQ(sup.run_to(5, stall), RunOutcome::Completed);
  EXPECT_GE(sup.watchdog_trips(), 1);
  EXPECT_GT(sup.step_ewma_seconds(), 0.0);
}

TEST_F(RunSupervisorTest, ResumeRestoresStepDtAndEnergy) {
  const std::string dir = scratch_dir("resume_energy");
  const std::uint64_t config_hash = fnv1a64("resume_energy fixture");

  double saved_energy = 0.0;
  {
    RunDir rd(dir, 3);
    Simulation sim(make_system(), iron(), serial_config());
    sim.set_temperature(60.0, 99);
    SupervisorConfig cfg;
    cfg.checkpoint_every = 5;
    cfg.install_signal_handlers = false;
    cfg.config_hash = config_hash;
    RunSupervisor sup(sim, rd, cfg);
    EXPECT_EQ(sup.run_to(12), RunOutcome::Completed);
    sim.compute_forces();
    saved_energy = sim.sample().total_energy();
  }  // original process "dies" here

  RunDir rd(dir, 3);
  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 12);
  ASSERT_TRUE(resume->state_valid);
  EXPECT_EQ(resume->state.config_hash, config_hash);
  EXPECT_TRUE(resume->state.momentum_zeroed);
  EXPECT_EQ(resume->state.checkpoint_file, RunDir::checkpoint_name(12));

  Simulation restarted(resume->checkpoint.system, iron(), serial_config());
  restarted.set_current_step(resume->checkpoint.step);
  restarted.set_dt(resume->state.dt);
  restarted.set_com_momentum_zeroed(resume->state.momentum_zeroed);
  EXPECT_EQ(restarted.current_step(), 12);
  restarted.compute_forces();
  const double resumed_energy = restarted.sample().total_energy();
  const double rel = std::abs(resumed_energy - saved_energy) /
                     std::max(1.0, std::abs(saved_energy));
  EXPECT_LE(rel, 1e-12);  // 17-digit text round-trip: near-exact
  EXPECT_EQ(resume->state.total_energy, saved_energy);

  // And the run continues with the original numbering.
  restarted.run(3);
  EXPECT_EQ(restarted.current_step(), 15);
}

// ------------------------------------------------- resume hardening (PR 9)

TEST_F(RunSupervisorTest, ZeroByteSidecarDegradesToCheckpointOnlyResume) {
  const std::string dir = scratch_dir("zero_sidecar");
  RunDir rd(dir, 3);
  RunState state;
  state.dt = 0.5;
  state.step = 10;
  rd.commit(make_system(), state);
  // A crash can leave the sidecar as an empty file (inode created, no
  // bytes flushed). Resume must degrade, never refuse.
  std::ofstream(rd.file_path("run_state.json"),
                std::ios::binary | std::ios::trunc);
  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 10);
  EXPECT_FALSE(resume->state_valid);
  // The provable variant has no older generation to prefer: same answer.
  const auto provable = rd.try_resume_provable();
  ASSERT_TRUE(provable.has_value());
  EXPECT_EQ(provable->checkpoint.step, 10);
  EXPECT_FALSE(provable->state_valid);
}

TEST_F(RunSupervisorTest, ManifestNamingOnlyDeletedCheckpointsScansInstead) {
  const std::string dir = scratch_dir("manifest_deleted");
  RunDir rd(dir, 3);
  RunState state;
  state.dt = 0.5;
  state.step = 10;
  rd.commit(make_system(), state);
  // Forge a MANIFEST that verifies its checksum but names only a
  // checkpoint that no longer exists (operator cleanup, rogue sweep).
  // The directory scan must win: the unlisted step-10 file still resumes.
  const std::string body =
      "sdcmd-manifest 1\nentry 99 ckpt_0000000099.chk 0000000000000000\n";
  std::ostringstream forged;
  forged << body << "checksum fnv1a64 " << std::hex << std::setw(16)
         << std::setfill('0') << fnv1a64(body) << "\n";
  std::ofstream(rd.file_path("MANIFEST"), std::ios::binary | std::ios::trunc)
      << forged.str();

  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 10);
  EXPECT_TRUE(resume->manifest_fallback);
  EXPECT_GE(resume->discarded, 1);
  EXPECT_TRUE(resume->state_valid);
}

TEST_F(RunSupervisorTest, ProvableResumeFindsGenerationTheManifestMissed) {
  const std::string dir = scratch_dir("manifest_behind");
  RunDir rd(dir, 3);
  RunState state;
  state.dt = 0.5;
  std::string manifest_after_10;
  for (long step : {10, 20}) {
    state.step = step;
    rd.commit(make_system(), state);
    if (step == 10) {
      std::ifstream in(rd.file_path("MANIFEST"), std::ios::binary);
      manifest_after_10.assign(std::istreambuf_iterator<char>(in), {});
    }
  }
  // Crash window between the sidecar rename and the MANIFEST rename:
  // ckpt_20 and its sidecar are on disk but the (verified!) index still
  // lists only step 10. try_resume trusts the index and degrades; the
  // provable variant must notice the sidecar names an unlisted newer
  // generation and resume it with the proof intact.
  std::ofstream(rd.file_path("MANIFEST"), std::ios::binary | std::ios::trunc)
      << manifest_after_10;

  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 10);
  EXPECT_FALSE(resume->state_valid);

  const auto provable = rd.try_resume_provable();
  ASSERT_TRUE(provable.has_value());
  EXPECT_EQ(provable->checkpoint.step, 20);
  EXPECT_TRUE(provable->state_valid);
  EXPECT_EQ(provable->state.step, 20);
}

TEST_F(RunSupervisorTest, DeletedNewestManifestEntryFallsToOlderListed) {
  const std::string dir = scratch_dir("manifest_hole");
  RunDir rd(dir, 3);
  RunState state;
  state.dt = 0.5;
  for (long step : {10, 20}) {
    state.step = step;
    rd.commit(make_system(), state);
  }
  // The MANIFEST stays intact but its newest file is deleted out from
  // under it. The missing file costs one candidate, not the whole resume.
  fs::remove(rd.file_path(RunDir::checkpoint_name(20)));
  const auto resume = rd.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 10);
  EXPECT_EQ(resume->discarded, 1);
  EXPECT_FALSE(resume->state_valid);  // sidecar describes step 20
}

TEST_F(RunSupervisorTest, ProvableResumePrefersGenerationSidecarDescribes) {
  const std::string dir = scratch_dir("provable");
  RunDir rd(dir, 3);
  RunState state;
  state.dt = 0.5;
  state.step = 10;
  rd.commit(make_system(), state);
  std::ifstream in(rd.file_path("run_state.json"));
  const std::string sidecar_for_10((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  state.step = 20;
  rd.commit(make_system(), state);
  // Reproduce a crash between the step-20 checkpoint rename and the
  // sidecar rename: checkpoint 20 on disk, sidecar still describing 10.
  std::ofstream(rd.file_path("run_state.json"),
                std::ios::binary | std::ios::trunc)
      << sidecar_for_10;

  // Plain resume takes the newest checkpoint, losing the proof...
  const auto degraded = rd.try_resume();
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(degraded->checkpoint.step, 20);
  EXPECT_FALSE(degraded->state_valid);
  // ...while the provable variant trades one cadence for a verified state.
  const auto provable = rd.try_resume_provable();
  ASSERT_TRUE(provable.has_value());
  EXPECT_EQ(provable->checkpoint.step, 10);
  ASSERT_TRUE(provable->state_valid);
  EXPECT_EQ(provable->state.step, 10);
}

TEST_F(RunSupervisorTest, ConstructorSweepsStaleTmpFiles) {
  const std::string dir = scratch_dir("tmp_sweep");
  {
    RunDir rd(dir, 3);
    RunState state;
    state.dt = 0.5;
    state.step = 10;
    rd.commit(make_system(), state);
    std::ofstream(rd.file_path("run_state.json.tmp")) << "torn";
    std::ofstream(rd.file_path("MANIFEST.tmp")) << "torn";
    std::ofstream(rd.file_path("ckpt_0000000099.chk.tmp")) << "torn";
  }
  RunDir reopened(dir, 3);  // the sweep runs here
  for (const auto& de : fs::directory_iterator(dir)) {
    EXPECT_NE(de.path().extension(), ".tmp") << de.path();
  }
  const auto resume = reopened.try_resume();
  ASSERT_TRUE(resume.has_value());
  EXPECT_EQ(resume->checkpoint.step, 10);
  EXPECT_TRUE(resume->state_valid);
}

// ----------------------------------------------- concurrent supervisors

TEST_F(RunSupervisorTest, TwoSupervisorsOnDistinctDirsDoNotInterleave) {
  // Two supervisors in one process (the session-server layout) must keep
  // their rings, manifests, and temp files strictly inside their own run
  // directories.
  const std::string dir_a = scratch_dir("pair_a");
  const std::string dir_b = scratch_dir("pair_b");
  const auto drive = [](const std::string& dir, int seed) {
    RunDir rd(dir, 2);
    Simulation sim(make_system(3), iron(), serial_config());
    sim.set_temperature(50.0, seed);
    SupervisorConfig cfg;
    cfg.checkpoint_every = 2;
    cfg.install_signal_handlers = false;
    RunSupervisor sup(sim, rd, cfg);
    EXPECT_EQ(sup.run_to(8), RunOutcome::Completed);
  };
  std::thread ta(drive, dir_a, 11);
  std::thread tb(drive, dir_b, 22);
  ta.join();
  tb.join();

  for (const std::string& dir : {dir_a, dir_b}) {
    EXPECT_LE(count_ring_files(dir), 2u) << dir;  // retention ring intact
    for (const auto& de : fs::directory_iterator(dir)) {
      EXPECT_NE(de.path().extension(), ".tmp") << de.path();
    }
    RunDir rd(dir, 2);
    const auto resume = rd.try_resume();
    ASSERT_TRUE(resume.has_value()) << dir;
    EXPECT_EQ(resume->checkpoint.step, 8) << dir;
    EXPECT_TRUE(resume->state_valid) << dir;
    EXPECT_FALSE(resume->manifest_fallback) << dir;
  }
}

TEST_F(RunSupervisorTest, SupervisorRejectsNonsenseConfig) {
  RunDir rd(scratch_dir("badcfg"), 1);
  Simulation sim(make_system(), iron(), serial_config());
  SupervisorConfig cfg;
  cfg.checkpoint_every = 0;
  EXPECT_THROW(RunSupervisor(sim, rd, cfg), PreconditionError);
  SupervisorConfig cfg2;
  cfg2.ewma_alpha = 0.0;
  EXPECT_THROW(RunSupervisor(sim, rd, cfg2), PreconditionError);
  EXPECT_THROW(RunDir(scratch_dir("badkeep"), 0), PreconditionError);
}

}  // namespace
}  // namespace sdcmd::run
