// StrategyGovernor: ladder selection, mid-run demotion/promotion with
// hysteresis, shadow validation, checkpoint-restart state, and the
// governor.box_shrink fault drill.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "core/strategy_governor.hpp"
#include "md/simulation.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/lennard_jones.hpp"
#include "run/run_state.hpp"

namespace sdcmd {
namespace {

const FinnisSinclair& iron() {
  static FinnisSinclair fe{FinnisSinclairParams::iron()};
  return fe;
}

System make_system(int cells) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = cells;
  return System::from_lattice(spec, units::kMassFe);
}

SimulationConfig sdc_config() {
  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Sdc;
  return cfg;
}

/// 6^3 bcc cells: edge 17.2 A, comfortably feasible for 2-D SDC with the
/// iron range (~4 A; feasibility bound 4 * range ~ 15.9 A), and a 0.9x
/// shrink drops below the bound.
constexpr int kCells = 6;
constexpr double kShrink = 0.9;

class GovernorTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    saved_level_ = log_level();
    set_log_level(LogLevel::Error);  // demotion warnings are expected noise
  }
  void TearDown() override {
    set_log_level(saved_level_);
    FaultInjector::instance().disarm_all();
  }

 private:
  LogLevel saved_level_ = LogLevel::Info;
};

// ---------------------------------------------------------------------------
// Pure decision logic.

TEST_F(GovernorTest, SetupSelectsPreferredWhenFeasible) {
  StrategyGovernor gov(GovernorConfig{});
  const Box box = Box::cubic(40.0);
  const GovernorDecision d = gov.setup(box, 4.0, 4, 1000);
  EXPECT_EQ(d.strategy, ReductionStrategy::Sdc);
  EXPECT_EQ(d.event, GovernorEvent::None);
  EXPECT_EQ(gov.active(), ReductionStrategy::Sdc);
}

TEST_F(GovernorTest, SetupFallsDownLadderWhenSdcInfeasible) {
  StrategyGovernor gov(GovernorConfig{});
  // < 4 * range: no 2-way SDC split, but floor(10/4) = 2 blocks per axis
  // still gives the cell-task shape 8 blocks.
  const Box box = Box::cubic(10.0);
  const GovernorDecision d = gov.setup(box, 4.0, 4, 1000);
  EXPECT_EQ(d.strategy, ReductionStrategy::CellTask);
  EXPECT_EQ(gov.active(), ReductionStrategy::CellTask);
}

TEST_F(GovernorTest, CellTaskRungInfeasibleOnlyBelowOneBlockPair) {
  // CellTask needs >= 2 blocks total, not SDC's even split per axis: a
  // 10 x 4 x 4 slab splits 2 x 1 x 1 and stays on the rung...
  StrategyGovernor gov(GovernorConfig{});
  const Box slab({0.0, 0.0, 0.0}, {10.0, 4.0, 4.0});
  EXPECT_TRUE(gov.rung_feasible(ReductionStrategy::CellTask, slab, 4.0, 4,
                                1000));
  // ...while a box under the range in every dimension yields one block and
  // falls through.
  const Box tiny = Box::cubic(3.0);
  EXPECT_FALSE(gov.rung_feasible(ReductionStrategy::CellTask, tiny, 4.0, 4,
                                 1000));
  EXPECT_EQ(gov.setup(tiny, 4.0, 4, 1000).strategy,
            ReductionStrategy::ArrayPrivatization);
}

TEST_F(GovernorTest, SapBudgetSkipsToLockStriped) {
  GovernorConfig cfg;
  // 4 threads x 1000 atoms x (8 + 24) bytes = 128 kB replicas; budget 1 kB.
  // The box is under the range in every dimension, so SDC and CellTask are
  // both infeasible and the blown budget is what decides the rung.
  cfg.max_private_bytes = 1024;
  StrategyGovernor gov(cfg);
  const GovernorDecision d = gov.setup(Box::cubic(3.0), 4.0, 4, 1000);
  EXPECT_EQ(d.strategy, ReductionStrategy::LockStriped);
}

TEST_F(GovernorTest, BoxChangeDemotesAndStepPromotesWithHysteresis) {
  GovernorConfig cfg;
  cfg.promote_streak = 3;
  cfg.backoff_factor = 2;
  StrategyGovernor gov(cfg);
  const Box big = Box::cubic(40.0);
  const Box small = Box::cubic(10.0);
  gov.setup(big, 4.0, 4, 1000);

  const GovernorDecision demote = gov.on_box_change(small, 4.0, 4, 1000);
  EXPECT_EQ(demote.event, GovernorEvent::Demotion);
  EXPECT_EQ(demote.strategy, ReductionStrategy::CellTask);
  EXPECT_EQ(gov.demotions(), 1);
  // One demotion doubled the backoff: 3 * 2 = 6 feasible steps required.
  EXPECT_EQ(gov.required_streak(), 6);

  // Feasible again, but promotion waits for the full streak.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gov.on_step(big, 4.0, 4, 1000).event, GovernorEvent::None);
  }
  const GovernorDecision promote = gov.on_step(big, 4.0, 4, 1000);
  EXPECT_EQ(promote.event, GovernorEvent::Promotion);
  EXPECT_EQ(promote.strategy, ReductionStrategy::Sdc);
  EXPECT_EQ(gov.promotions(), 1);
}

TEST_F(GovernorTest, InfeasibleStepBreaksThePromotionStreak) {
  GovernorConfig cfg;
  cfg.promote_streak = 3;
  StrategyGovernor gov(cfg);
  const Box big = Box::cubic(40.0);
  const Box small = Box::cubic(10.0);
  gov.setup(big, 4.0, 4, 1000);
  gov.on_box_change(small, 4.0, 4, 1000);

  // streak 2 of 6, then the box dips infeasible again: streak resets.
  gov.on_step(big, 4.0, 4, 1000);
  gov.on_step(big, 4.0, 4, 1000);
  gov.on_step(small, 4.0, 4, 1000);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(gov.on_step(big, 4.0, 4, 1000).event, GovernorEvent::None);
  }
  EXPECT_EQ(gov.on_step(big, 4.0, 4, 1000).event, GovernorEvent::Promotion);
}

TEST_F(GovernorTest, BackoffEscalatesAndCaps) {
  GovernorConfig cfg;
  cfg.promote_streak = 2;
  cfg.backoff_factor = 2;
  cfg.max_backoff = 4;
  StrategyGovernor gov(cfg);
  const Box big = Box::cubic(40.0);
  const Box small = Box::cubic(10.0);
  const auto promote = [&] {
    GovernorDecision d;
    do {
      d = gov.on_step(big, 4.0, 4, 1000);
    } while (d.event != GovernorEvent::Promotion);
  };
  gov.setup(big, 4.0, 4, 1000);

  // Each demote/promote oscillation escalates the backoff until the cap.
  gov.on_box_change(small, 4.0, 4, 1000);
  EXPECT_EQ(gov.required_streak(), 4);  // backoff 2
  promote();
  gov.on_box_change(small, 4.0, 4, 1000);
  EXPECT_EQ(gov.required_streak(), 8);  // backoff 4 = cap
  promote();
  gov.on_box_change(small, 4.0, 4, 1000);
  EXPECT_EQ(gov.required_streak(), 8);  // would be 16 without the cap
  EXPECT_EQ(gov.demotions(), 3);
  EXPECT_EQ(gov.promotions(), 2);
}

TEST_F(GovernorTest, ShadowMismatchDemotesOneRung) {
  StrategyGovernor gov(GovernorConfig{});
  gov.setup(Box::cubic(40.0), 4.0, 4, 1000);
  ASSERT_EQ(gov.active(), ReductionStrategy::Sdc);

  const GovernorDecision d = gov.on_shadow_mismatch("test mismatch");
  EXPECT_EQ(d.event, GovernorEvent::Demotion);
  EXPECT_EQ(d.strategy, ReductionStrategy::CellTask);
  EXPECT_EQ(gov.race_suspects(), 1);

  // Again and again: walks the whole ladder (CellTask -> SAP -> Locks ->
  // Atomic -> Serial), then sticks at Serial.
  gov.on_shadow_mismatch("again");
  gov.on_shadow_mismatch("again");
  gov.on_shadow_mismatch("again");
  EXPECT_EQ(gov.on_shadow_mismatch("again").strategy,
            ReductionStrategy::Serial);
  EXPECT_EQ(gov.on_shadow_mismatch("again").event, GovernorEvent::None);
  EXPECT_EQ(gov.active(), ReductionStrategy::Serial);
}

TEST_F(GovernorTest, RestoredStateKeepsDemotedRungAcrossSetup) {
  GovernorConfig cfg;
  StrategyGovernor first(cfg);
  const Box big = Box::cubic(40.0);
  first.setup(big, 4.0, 4, 1000);
  first.on_box_change(Box::cubic(10.0), 4.0, 4, 1000);
  ASSERT_EQ(first.active(), ReductionStrategy::CellTask);

  StrategyGovernor second(cfg);
  second.restore_state(first.state());
  // The box recovered, but the restored governor must NOT jump straight
  // back to SDC: promotion stays hysteretic across restarts.
  const GovernorDecision d = second.setup(big, 4.0, 4, 1000);
  EXPECT_EQ(d.strategy, ReductionStrategy::CellTask);
  EXPECT_EQ(d.event, GovernorEvent::None);
  EXPECT_EQ(second.demotions(), 1);
  EXPECT_EQ(second.required_streak(), first.required_streak());
}

TEST_F(GovernorTest, RestoredRungInfeasibleForRestoredBoxDemotes) {
  GovernorConfig cfg;
  StrategyGovernor first(cfg);
  first.setup(Box::cubic(40.0), 4.0, 4, 1000);
  ASSERT_EQ(first.active(), ReductionStrategy::Sdc);

  StrategyGovernor second(cfg);
  second.restore_state(first.state());
  const GovernorDecision d = second.setup(Box::cubic(10.0), 4.0, 4, 1000);
  EXPECT_EQ(d.event, GovernorEvent::Demotion);
  EXPECT_EQ(d.strategy, ReductionStrategy::CellTask);
}

TEST_F(GovernorTest, ConfigValidation) {
  GovernorConfig bad;
  bad.preferred = ReductionStrategy::RedundantComputation;  // not on ladder
  EXPECT_THROW(StrategyGovernor{bad}, PreconditionError);
  GovernorConfig zero;
  zero.promote_streak = 0;
  EXPECT_THROW(StrategyGovernor{zero}, PreconditionError);
}

TEST_F(GovernorTest, StrategyCodesAreStable) {
  EXPECT_EQ(StrategyGovernor::strategy_code(ReductionStrategy::Serial), 0);
  EXPECT_EQ(StrategyGovernor::strategy_code(ReductionStrategy::Critical), 1);
  EXPECT_EQ(StrategyGovernor::strategy_code(ReductionStrategy::Atomic), 2);
  EXPECT_EQ(StrategyGovernor::strategy_code(ReductionStrategy::LockStriped),
            3);
  EXPECT_EQ(
      StrategyGovernor::strategy_code(ReductionStrategy::ArrayPrivatization),
      4);
  EXPECT_EQ(
      StrategyGovernor::strategy_code(ReductionStrategy::RedundantComputation),
      5);
  EXPECT_EQ(StrategyGovernor::strategy_code(ReductionStrategy::Sdc), 6);
  EXPECT_EQ(StrategyGovernor::strategy_code(ReductionStrategy::CellTask), 7);
}

TEST_F(GovernorTest, UnknownStrategyCodeIsRejectedNotMisdecoded) {
  // A sidecar written by a NEWER ladder can carry a code this build has
  // never heard of; the decode must fail loudly (or softly via the
  // try_ variant), never alias onto a known rung.
  for (int code = 0; code <= 7; ++code) {
    const auto s = StrategyGovernor::try_strategy_from_code(code);
    ASSERT_TRUE(s.has_value()) << "code " << code;
    EXPECT_EQ(StrategyGovernor::strategy_code(*s), code);
  }
  EXPECT_FALSE(StrategyGovernor::try_strategy_from_code(8).has_value());
  EXPECT_FALSE(StrategyGovernor::try_strategy_from_code(99).has_value());
  EXPECT_FALSE(StrategyGovernor::try_strategy_from_code(-1).has_value());
  EXPECT_THROW(StrategyGovernor::strategy_from_code(99), PreconditionError);
}

// ---------------------------------------------------------------------------
// Simulation integration.

TEST_F(GovernorTest, BoxShrinkFaultTriggersExactlyOneDemotion) {
  Simulation sim(make_system(kCells), iron(), sdc_config());
  obs::MetricsRegistry registry;
  obs::TraceWriter trace;
  InstrumentationConfig inst;
  inst.registry = &registry;
  inst.trace = &trace;
  sim.set_instrumentation(inst);
  sim.set_governor(GovernorConfig{});
  ASSERT_EQ(sim.governor()->active(), ReductionStrategy::Sdc);

  FaultSpec fault;
  fault.countdown = 4;  // fires inside step 5
  fault.magnitude = kShrink;
  FaultInjector::instance().arm(faults::kBoxShrink, fault);

  sim.run(20);

  EXPECT_EQ(sim.current_step(), 20);
  EXPECT_EQ(FaultInjector::instance().fire_count(faults::kBoxShrink), 1);
  EXPECT_EQ(sim.governor()->demotions(), 1);
  EXPECT_EQ(sim.governor()->active(), ReductionStrategy::CellTask);
  // Metrics + trace carry the event.
  EXPECT_EQ(registry.value(registry.counter("governor.demotions")), 1.0);
  EXPECT_EQ(registry.value(registry.gauge("governor.active_strategy")),
            StrategyGovernor::strategy_code(ReductionStrategy::CellTask));
  // The demoted shape spawned block tasks and reported its queue shape.
  EXPECT_GT(registry.value(registry.counter("task.spawned")), 0.0);
  EXPECT_GE(registry.value(registry.gauge("task.max_queue_depth")), 1.0);
  EXPECT_NE(trace.to_json().find("governor.demote"), std::string::npos);
}

TEST_F(GovernorTest, PairBackendDemotesOntoCellTask) {
  // The pair backend runs the whole ladder: the same SDC-breaking shrink
  // lands it on CellTask, not on SAP, and the run carries on.
  const LennardJones lj(0.1, 2.2, iron().cutoff());
  Simulation sim(make_system(kCells), lj, sdc_config());
  sim.set_governor(GovernorConfig{});
  ASSERT_EQ(sim.governor()->active(), ReductionStrategy::Sdc);

  FaultSpec fault;
  fault.countdown = 4;  // fires inside step 5
  fault.magnitude = kShrink;
  FaultInjector::instance().arm(faults::kBoxShrink, fault);
  sim.run(20);

  EXPECT_EQ(sim.current_step(), 20);
  EXPECT_EQ(sim.governor()->demotions(), 1);
  EXPECT_EQ(sim.governor()->active(), ReductionStrategy::CellTask);
  EXPECT_TRUE(std::isfinite(sim.sample().total_energy()));
}

TEST_F(GovernorTest, DemotedForcesMatchSerialReference) {
  Simulation sim(make_system(kCells), iron(), sdc_config());
  sim.set_temperature(100.0, 42);
  sim.set_governor(GovernorConfig{});

  FaultSpec fault;
  fault.countdown = 4;
  fault.magnitude = kShrink;
  FaultInjector::instance().arm(faults::kBoxShrink, fault);
  sim.run(10);
  ASSERT_EQ(sim.governor()->active(), ReductionStrategy::CellTask);

  sim.compute_forces();
  const Atoms& atoms = sim.system().atoms();
  const std::size_t n = atoms.size();
  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> force(n);
  sim.force_computer().compute_serial_reference(
      sim.system().box(), atoms.position, sim.neighbor_list(), rho, fp,
      force);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(atoms.rho[i], rho[i], 1e-12);
    EXPECT_NEAR(atoms.force[i].x, force[i].x, 1e-12);
    EXPECT_NEAR(atoms.force[i].y, force[i].y, 1e-12);
    EXPECT_NEAR(atoms.force[i].z, force[i].z, 1e-12);
  }
}

TEST_F(GovernorTest, NptShrinkCompletesAndEnergyStaysFinite) {
  // The acceptance scenario shape: a run whose box drops below the SDC
  // bound mid-flight completes without InfeasibleError.
  Simulation sim(make_system(kCells), iron(), sdc_config());
  sim.set_temperature(50.0, 7);
  sim.set_governor(GovernorConfig{});
  // Aggressive compression: ~0.7% per step crosses the feasibility bound
  // within ~12 steps.
  sim.set_deformer(BoxDeformer({-0.007, -0.007, -0.007}), 1);

  EXPECT_NO_THROW(sim.run(30));
  EXPECT_EQ(sim.current_step(), 30);
  EXPECT_GE(sim.governor()->demotions(), 1);
  EXPECT_NE(sim.governor()->active(), ReductionStrategy::Sdc);
  const ThermoSample s = sim.sample();
  EXPECT_TRUE(std::isfinite(s.kinetic_energy));
  EXPECT_TRUE(std::isfinite(s.pair_energy + s.embedding_energy));
}

TEST_F(GovernorTest, RecoveredBoxRepromotesAfterStreak) {
  Simulation sim(make_system(kCells), iron(), sdc_config());
  GovernorConfig cfg;
  cfg.promote_streak = 3;  // demoted once -> 6 feasible steps to promote
  sim.set_governor(cfg);

  // The shrink fires at the end of step 1 (before the deformer has grown
  // the box much); regrowing 1% per step restores feasibility within a
  // few steps and the 6-step streak promotes well inside the run.
  FaultSpec fault;
  fault.countdown = 0;
  fault.magnitude = kShrink;
  FaultInjector::instance().arm(faults::kBoxShrink, fault);
  sim.set_deformer(BoxDeformer({0.01, 0.01, 0.01}), 1);

  sim.run(30);

  EXPECT_GE(sim.governor()->demotions(), 1);
  EXPECT_GE(sim.governor()->promotions(), 1);
  EXPECT_EQ(sim.governor()->active(), ReductionStrategy::Sdc);
}

TEST_F(GovernorTest, GovernorStateSurvivesCheckpointRestart) {
  Simulation sim(make_system(kCells), iron(), sdc_config());
  sim.set_governor(GovernorConfig{});
  FaultSpec fault;
  fault.countdown = 2;
  fault.magnitude = kShrink;
  FaultInjector::instance().arm(faults::kBoxShrink, fault);
  sim.run(10);
  FaultInjector::instance().disarm_all();
  ASSERT_EQ(sim.governor()->active(), ReductionStrategy::CellTask);

  // "Restart": a new Simulation from the saved System + governor state.
  // The restart config carries the checkpointed (demoted) strategy — the
  // shrunk box would make an SDC constructor throw before the governor
  // could take over.
  SimulationConfig restart_cfg = sdc_config();
  restart_cfg.force.strategy = ReductionStrategy::CellTask;
  Simulation restarted(sim.system(), iron(), restart_cfg);
  restarted.set_governor(GovernorConfig{}, sim.governor()->state());
  EXPECT_EQ(restarted.governor()->active(), ReductionStrategy::CellTask);
  EXPECT_EQ(restarted.governor()->demotions(), 1);
  EXPECT_EQ(restarted.governor()->required_streak(),
            sim.governor()->required_streak());
  EXPECT_NO_THROW(restarted.run(5));
}

TEST_F(GovernorTest, RunStateRoundTripRestoresDemotedRungAndBackoff) {
  // The infeasible-SDC demotion lands on CellTask (the shrunk box still
  // holds 3 x 3 x 3 cell blocks) and doubles the backoff: exactly the
  // mid-ladder state a checkpoint must preserve.
  const GovernorConfig config;
  Simulation sim(make_system(kCells), iron(), sdc_config());
  sim.set_governor(config);
  FaultSpec fault;
  fault.countdown = 2;
  fault.magnitude = kShrink;
  FaultInjector::instance().arm(faults::kBoxShrink, fault);
  sim.run(10);
  FaultInjector::instance().disarm_all();
  ASSERT_EQ(sim.governor()->active(), ReductionStrategy::CellTask);
  ASSERT_GT(sim.governor()->required_streak(), config.promote_streak);

  // Persist through the run_state.v1 sidecar, the way the run supervisor
  // does (run/run_dir.hpp), instead of handing the state across in memory.
  run::RunState state;
  state.step = sim.current_step();
  state.dt = sim.config().dt;
  state.has_governor = true;
  state.governor = sim.governor()->state();
  const run::RunState back = run::parse_run_state(run::to_json(state));
  ASSERT_TRUE(back.has_governor);

  SimulationConfig restart_cfg = sdc_config();
  restart_cfg.force.strategy = back.governor.active;
  Simulation restarted(sim.system(), iron(), restart_cfg);
  restarted.set_governor(config, back.governor);
  restarted.set_current_step(back.step);
  EXPECT_EQ(restarted.current_step(), sim.current_step());
  EXPECT_EQ(restarted.governor()->active(), ReductionStrategy::CellTask);
  EXPECT_EQ(restarted.governor()->demotions(),
            sim.governor()->demotions());
  EXPECT_EQ(restarted.governor()->required_streak(),
            sim.governor()->required_streak());
  EXPECT_NO_THROW(restarted.run(5));
}

TEST_F(GovernorTest, ShadowValidationPassesOnHealthyRun) {
  Simulation sim(make_system(kCells), iron(), sdc_config());
  sim.set_temperature(100.0, 3);
  obs::MetricsRegistry registry;
  InstrumentationConfig inst;
  inst.registry = &registry;
  sim.set_instrumentation(inst);
  GovernorConfig cfg;
  cfg.shadow_check_every = 5;
  sim.set_governor(cfg);

  sim.run(20);

  EXPECT_EQ(registry.value(registry.counter("governor.shadow_checks")), 4.0);
  EXPECT_EQ(registry.value(registry.counter("guard.strategy_race_suspect")),
            0.0);
  EXPECT_EQ(sim.governor()->demotions(), 0);
  EXPECT_EQ(sim.governor()->active(), ReductionStrategy::Sdc);
}

TEST_F(GovernorTest, GovernorWorksNextToHealthMonitor) {
  Simulation sim(make_system(kCells), iron(), sdc_config());
  sim.set_temperature(100.0, 11);
  GuardrailConfig guard;
  guard.health.cadence = 1;
  guard.health.policy = HealthPolicy::Rollback;
  sim.set_guardrails(guard);
  sim.set_governor(GovernorConfig{});

  FaultSpec fault;
  fault.countdown = 6;
  fault.magnitude = kShrink;
  FaultInjector::instance().arm(faults::kBoxShrink, fault);

  EXPECT_NO_THROW(sim.run(20));
  EXPECT_EQ(sim.current_step(), 20);
  EXPECT_GE(sim.governor()->demotions(), 1);
}

TEST_F(GovernorTest, SkinBackoffBoundsRebuildStorms) {
  SimulationConfig cfg = sdc_config();
  cfg.force.strategy = ReductionStrategy::Serial;
  cfg.skin = 0.01;  // absurdly thin: hot atoms cross skin/2 every step
  Simulation sim(make_system(4), iron(), cfg);
  sim.set_temperature(1500.0, 9);
  obs::MetricsRegistry registry;
  InstrumentationConfig inst;
  inst.registry = &registry;
  sim.set_instrumentation(inst);

  sim.run(40);

  EXPECT_GE(sim.skin_backoff_count(), 1);
  EXPECT_LE(sim.skin_backoff_count(), 3);
  EXPECT_GT(sim.effective_skin(), cfg.skin);
  EXPECT_LE(sim.effective_skin(), cfg.skin * 1.5 * 1.5 * 1.5 + 1e-12);
  EXPECT_EQ(registry.value(registry.counter("neighbor.skin_backoffs")),
            static_cast<double>(sim.skin_backoff_count()));
}

TEST_F(GovernorTest, GovernorEventsAppearInStepMetricsJsonl) {
  const std::string path = testing::TempDir() + "/governor_steps.jsonl";
  {
    Simulation sim(make_system(kCells), iron(), sdc_config());
    obs::MetricsRegistry registry;
    obs::StepMetricsWriter writer(path);
    InstrumentationConfig inst;
    inst.registry = &registry;
    inst.step_writer = &writer;
    sim.set_instrumentation(inst);
    sim.set_governor(GovernorConfig{});

    FaultSpec fault;
    fault.countdown = 3;
    fault.magnitude = kShrink;
    FaultInjector::instance().arm(faults::kBoxShrink, fault);
    sim.run(10);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("governor.active_strategy"), std::string::npos);
  EXPECT_NE(content.find("governor.demotions"), std::string::npos);
}

}  // namespace
}  // namespace sdcmd
