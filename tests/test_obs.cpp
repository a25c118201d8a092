// Observability subsystem: metrics registry semantics, JSON emission,
// JSONL / Chrome-trace exporters, SDC sweep profiling (including numerics
// parity between the profiled and plain kernel paths), simulation wiring,
// and the ThermoLog CSV round-trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "core/eam_force.hpp"
#include "geom/lattice.hpp"
#include "md/simulation.hpp"
#include "md/thermo_log.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/sweep_profile.hpp"
#include "obs/trace.hpp"
#include "core/strategy_governor.hpp"
#include "potential/finnis_sinclair.hpp"
#include "run/run_dir.hpp"
#include "run/supervisor.hpp"

namespace sdcmd {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistry, InterningIsIdempotentPerKind) {
  obs::MetricsRegistry reg;
  const auto a = reg.counter("x");
  EXPECT_EQ(reg.counter("x"), a);
  EXPECT_NE(reg.gauge("g"), a);
  EXPECT_THROW(reg.gauge("x"), PreconditionError);
  EXPECT_THROW(reg.stats("x"), PreconditionError);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(a), "x");
  EXPECT_EQ(reg.kind(a), obs::MetricKind::Counter);
}

TEST(MetricsRegistry, StepSnapshotReportsDeltas) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  reg.add(c, 3.0);
  reg.set(g, 42.0);

  auto snap = reg.step_snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "c");
  EXPECT_DOUBLE_EQ(snap[0].value, 3.0);  // delta
  EXPECT_DOUBLE_EQ(snap[1].value, 42.0);

  reg.add(c, 2.0);
  snap = reg.step_snapshot();
  // Counter delta is 2 (not 5); the unchanged gauge is still reported.
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[0].value, 2.0);
  EXPECT_DOUBLE_EQ(reg.value(c), 5.0);  // cumulative survives

  // Nothing moved: only the gauge appears.
  snap = reg.step_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "g");
}

TEST(MetricsRegistry, StatsWindowsResetAtSnapshot) {
  obs::MetricsRegistry reg;
  const auto s = reg.stats("t");
  reg.observe(s, 1.0);
  reg.observe(s, 3.0);

  auto snap = reg.step_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].window.count(), 2u);
  EXPECT_DOUBLE_EQ(snap[0].window.mean(), 2.0);

  reg.observe(s, 10.0);
  snap = reg.step_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].window.count(), 1u);  // window reset between snapshots
  EXPECT_DOUBLE_EQ(snap[0].window.mean(), 10.0);
  EXPECT_EQ(reg.total_stats(s).count(), 3u);  // cumulative keeps everything
}

TEST(MetricsRegistry, DisabledMutationsAreDropped) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("c");
  const auto s = reg.stats("s");
  reg.set_enabled(false);
  reg.add(c, 5.0);
  reg.observe(s, 1.0);
  EXPECT_DOUBLE_EQ(reg.value(c), 0.0);
  EXPECT_EQ(reg.total_stats(s).count(), 0u);
  reg.set_enabled(true);
  reg.add(c);
  EXPECT_DOUBLE_EQ(reg.value(c), 1.0);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("c");
  reg.add(c, 9.0);
  (void)reg.step_snapshot();
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.value(c), 0.0);
  reg.add(c, 1.0);
  auto snap = reg.step_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].value, 1.0);
}

TEST(MetricSpan, ObservesElapsedAndToleratesNullRegistry) {
  obs::MetricsRegistry reg;
  const auto s = reg.stats("span");
  {
    obs::MetricSpan span(&reg, s);
  }
  EXPECT_EQ(reg.total_stats(s).count(), 1u);
  EXPECT_GE(reg.total_stats(s).min(), 0.0);
  {
    obs::MetricSpan null_span(nullptr, 0);  // must not crash
  }
  reg.set_enabled(false);
  {
    obs::MetricSpan span(&reg, s);
  }
  EXPECT_EQ(reg.total_stats(s).count(), 1u);  // disabled: no observation
}

// ------------------------------------------------------------------- json

TEST(Json, StringEscaping) {
  std::string out;
  obs::append_json_string(out, "a\"b\\c\n\t\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  std::string out;
  obs::append_json_number(out, std::numeric_limits<double>::quiet_NaN());
  out += ",";
  obs::append_json_number(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null,null");
}

TEST(Json, WriterBuildsNestedDocument) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.member("a", 1);
  w.key("list");
  w.begin_array();
  w.value(2.5);
  w.value("x");
  w.value(true);
  w.value(obs::JsonValue());
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.member("b", std::string("q"));
  w.end_object();
  w.end_object();
  EXPECT_EQ(out, R"({"a":1,"list":[2.5,"x",true,null],"nested":{"b":"q"}})");
}

// ---------------------------------------------------------- sweep profile

TEST(SdcSweepProfiler, ColorProfileMath) {
  obs::SdcSweepProfiler prof;
  prof.configure({"density", "force"}, 2, 3);
  prof.set_enabled(true);
  prof.begin_step();

  // Color 0 of "density": thread work 1.0 / 3.0 / 2.0 -> mean 2, max 3.
  for (int t = 0; t < 3; ++t) {
    obs::SweepSample s;
    s.start = 0.0;
    s.work = 1.0 + ((t * 2) % 3);  // 1, 3, 2
    s.wait = 3.0 - s.work;         // 2, 0, 1
    s.valid = true;
    prof.record(0, 0, t, s);
  }
  // Color 1 untouched; phase "force" gets one single-thread sample.
  obs::SweepSample f;
  f.work = 4.0;
  f.valid = true;
  prof.record(1, 1, 2, f);

  const auto profiles = prof.color_profiles();
  ASSERT_EQ(profiles.size(), 2u);

  EXPECT_EQ(profiles[0].phase, 0);
  EXPECT_EQ(profiles[0].color, 0);
  EXPECT_EQ(profiles[0].threads, 3);
  EXPECT_DOUBLE_EQ(profiles[0].work_max, 3.0);
  EXPECT_DOUBLE_EQ(profiles[0].work_mean, 2.0);
  EXPECT_DOUBLE_EQ(profiles[0].work_min, 1.0);
  EXPECT_DOUBLE_EQ(profiles[0].imbalance, 1.5);
  EXPECT_DOUBLE_EQ(profiles[0].wait_max, 2.0);
  EXPECT_DOUBLE_EQ(profiles[0].wait_mean, 1.0);

  EXPECT_EQ(profiles[1].phase, 1);
  EXPECT_EQ(profiles[1].color, 1);
  EXPECT_EQ(profiles[1].threads, 1);
  EXPECT_DOUBLE_EQ(profiles[1].imbalance, 1.0);

  prof.begin_step();
  EXPECT_TRUE(prof.color_profiles().empty());  // samples invalidated
}

TEST(SdcSweepProfiler, ConfigureIsIdempotentOnSameShape) {
  obs::SdcSweepProfiler prof;
  prof.configure({"a"}, 2, 2);
  obs::SweepSample s;
  s.work = 1.0;
  s.valid = true;
  prof.record(0, 1, 1, s);
  prof.configure({"a"}, 2, 2);  // same shape: samples survive
  EXPECT_EQ(prof.color_profiles().size(), 1u);
  prof.configure({"a"}, 3, 2);  // new shape: reallocated
  EXPECT_EQ(prof.colors(), 3);
  EXPECT_TRUE(prof.color_profiles().empty());
}

// -------------------------------------------------------------- exporters

TEST(StepMetricsWriter, EmitsOneSchemaTaggedLinePerStep) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("sim.steps");
  const std::string path = temp_path("sdcmd_steps.jsonl");
  {
    obs::StepMetricsWriter w(path);
    ASSERT_TRUE(w.ok());
    reg.add(c, 1.0);
    w.write_step(1, reg, nullptr, 0.25);
    reg.add(c, 1.0);
    w.write_step(2, reg);
    EXPECT_EQ(w.records(), 2u);
    w.flush();
  }
  std::ifstream in(path);
  std::string l1, l2, extra;
  ASSERT_TRUE(std::getline(in, l1));
  ASSERT_TRUE(std::getline(in, l2));
  EXPECT_FALSE(std::getline(in, extra));

  EXPECT_NE(l1.find("\"schema\":\"sdcmd.step_metrics.v1\""), std::string::npos);
  EXPECT_NE(l1.find("\"step\":1"), std::string::npos);
  EXPECT_NE(l1.find("\"wall_s\":0.25"), std::string::npos);
  EXPECT_NE(l1.find("\"sim.steps\":1"), std::string::npos);
  EXPECT_EQ(l1.find("\"sweep\""), std::string::npos);  // no profiler given
  EXPECT_NE(l2.find("\"step\":2"), std::string::npos);
  EXPECT_EQ(l2.find("wall_s"), std::string::npos);  // no wall time given
  std::remove(path.c_str());
}

TEST(StepMetricsWriter, EmbedsSweepProfiles) {
  obs::MetricsRegistry reg;
  obs::SdcSweepProfiler prof;
  prof.configure({"density"}, 1, 2);
  obs::SweepSample s;
  s.work = 2.0;
  s.wait = 0.5;
  s.valid = true;
  prof.record(0, 0, 0, s);
  s.work = 1.0;
  s.wait = 1.5;
  prof.record(0, 0, 1, s);

  const std::string path = temp_path("sdcmd_sweep.jsonl");
  obs::StepMetricsWriter w(path);
  ASSERT_TRUE(w.ok());
  w.write_step(5, reg, &prof, 0.0);
  w.flush();
  const std::string line = slurp(path);
  EXPECT_NE(line.find("\"sweep\":[{"), std::string::npos);
  EXPECT_NE(line.find("\"phase\":\"density\""), std::string::npos);
  EXPECT_NE(line.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(line.find("\"work_max_s\":2"), std::string::npos);
  EXPECT_NE(line.find("\"imbalance\":1.33"), std::string::npos);
  EXPECT_NE(line.find("\"wait_max_s\":1.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StepMetricsWriter, SummaryRecordCarriesCumulativeTotals) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("work.items");
  const auto s = reg.stats("work.seconds");
  const std::string path = temp_path("sdcmd_summary.jsonl");
  {
    obs::StepMetricsWriter w(path);
    ASSERT_TRUE(w.ok());
    reg.add(c, 2.0);
    reg.observe(s, 1.0);
    w.write_step(1, reg);
    reg.add(c, 3.0);
    reg.observe(s, 5.0);
    w.write_step(2, reg);
    // The summary must report run totals, not the last step's deltas,
    // and must leave the step windows alone.
    w.write_summary(2, reg, 0.5);
    EXPECT_EQ(w.records(), 3u);
  }
  std::ifstream in(path);
  std::string l1, l2, l3;
  ASSERT_TRUE(std::getline(in, l1));
  ASSERT_TRUE(std::getline(in, l2));
  ASSERT_TRUE(std::getline(in, l3));
  EXPECT_EQ(l1.find("\"kind\""), std::string::npos);
  EXPECT_NE(l2.find("\"work.items\":3"), std::string::npos);  // step delta
  EXPECT_NE(l3.find("\"schema\":\"sdcmd.step_metrics.v1\""),
            std::string::npos);
  EXPECT_NE(l3.find("\"kind\":\"summary\""), std::string::npos);
  EXPECT_NE(l3.find("\"step\":2"), std::string::npos);
  EXPECT_NE(l3.find("\"wall_s\":0.5"), std::string::npos);
  EXPECT_NE(l3.find("\"work.items\":5"), std::string::npos);  // run total
  EXPECT_NE(l3.find("\"count\":2"), std::string::npos);  // whole-run stats
  EXPECT_NE(l3.find("\"sum\":6"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StepMetricsWriter, UnopenablePathReportsNotOk) {
  obs::MetricsRegistry reg;
  obs::StepMetricsWriter w("/nonexistent-dir/x.jsonl");
  EXPECT_FALSE(w.ok());
  w.write_step(1, reg);  // dropped, must not crash
  EXPECT_EQ(w.records(), 0u);
}

TEST(TraceWriter, ChromeTraceEnvelope) {
  obs::TraceWriter trace;
  trace.set_time_origin(100.0);
  trace.set_thread_name(3, "omp thread 3");
  trace.complete_event("work", "sweep", 100.0, 0.002, 3);
  trace.instant_event("rollback", "guardrail", 100.001, 1000);
  trace.counter_event("steps", 100.002, 7.0);
  EXPECT_EQ(trace.size(), 3u);

  const std::string json = trace.to_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  // Thread metadata first so viewers name tracks before slices arrive.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_LT(json.find("thread_name"), json.find("\"ph\":\"X\""));
  // Microsecond timestamps relative to the origin.
  EXPECT_NE(json.find("\"ts\":0,\"dur\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);

  const std::string path = temp_path("sdcmd_trace.json");
  ASSERT_TRUE(trace.write(path));
  EXPECT_EQ(slurp(path), json + "\n");
  std::remove(path.c_str());
  EXPECT_FALSE(trace.write("/nonexistent-dir/x.json"));
}

TEST(TraceWriter, EmptyTraceIsStillWellFormed) {
  // A run that never produced an event (e.g. instrumentation attached but
  // zero steps taken) must still write a document Perfetto can load.
  obs::TraceWriter trace;
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.to_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
  const std::string path = temp_path("sdcmd_empty_trace.json");
  ASSERT_TRUE(trace.write(path));
  EXPECT_EQ(slurp(path), trace.to_json() + "\n");
  std::remove(path.c_str());
}

TEST(TraceWriter, AppendSweepEventsBuildsThreadTracks) {
  obs::SdcSweepProfiler prof;
  prof.configure({"force"}, 1, 2);
  obs::SweepSample s;
  s.start = 10.0;
  s.work = 0.5;
  s.wait = 0.25;
  s.valid = true;
  prof.record(0, 0, 0, s);

  obs::TraceWriter trace;
  trace.set_time_origin(10.0);
  obs::append_sweep_events(trace, prof, "step 3/");
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("step 3/force/c0"), std::string::npos);
  EXPECT_NE(json.find("barrier"), std::string::npos);
  EXPECT_NE(json.find("omp thread 0"), std::string::npos);
}

TEST(BenchReport, VersionedEnvelope) {
  obs::BenchReport report("demo");
  report.set_context("scale", "tiny");
  report.set_context("steps", 2);
  report.set_context("steps", 3);  // upsert, not duplicate
  report.add_result({{"case", "small"},
                     {"speedup", 1.5},
                     {"feasible", true},
                     {"blank", obs::JsonValue()}});
  EXPECT_EQ(report.results(), 1u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":\"sdcmd.bench.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"steps\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"steps\":2"), std::string::npos);
  EXPECT_NE(json.find("\"blank\":null"), std::string::npos);
}

// ------------------------------------------------------- perf counters

TEST(HwCounts, DerivedRatesAndAccumulate) {
  obs::HwCounts a;
  a.cycles = 100.0;
  a.instructions = 250.0;
  a.cache_refs = 50.0;
  a.cache_misses = 5.0;
  a.fp_scalar = 10.0;
  a.fp_vector = 30.0;
  a.has_fp = true;
  a.valid = true;
  EXPECT_DOUBLE_EQ(a.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(a.cache_miss_rate(), 0.1);
  EXPECT_DOUBLE_EQ(a.fp_vector_frac(), 0.75);

  obs::HwCounts zero;
  EXPECT_DOUBLE_EQ(zero.ipc(), 0.0);  // no division by zero
  EXPECT_DOUBLE_EQ(zero.cache_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(zero.fp_vector_frac(), 0.0);

  obs::HwCounts sum;
  sum.accumulate(a);
  sum.accumulate(a);
  EXPECT_TRUE(sum.valid);
  EXPECT_TRUE(sum.has_fp);
  EXPECT_DOUBLE_EQ(sum.cycles, 200.0);
  EXPECT_DOUBLE_EQ(sum.instructions, 500.0);
  sum.accumulate(zero);  // invalid samples are skipped, not zero-added
  EXPECT_DOUBLE_EQ(sum.cycles, 200.0);
}

TEST(PerfPhaseProfiler, DegradesToNoOpWhenUnavailable) {
  // The availability probe is ground truth for this host (it is denied in
  // containers/CI); both branches of this test must pass everywhere.
  obs::PerfPhaseProfiler prof;
  EXPECT_FALSE(prof.enabled());
  prof.set_enabled(true);
  EXPECT_EQ(prof.enabled(), obs::PerfPhaseProfiler::available());

  prof.configure({"density", "embed", "force"}, 2);
  EXPECT_EQ(prof.phases(), 3);
  EXPECT_EQ(prof.threads(), 2);
  EXPECT_EQ(prof.phase_name(1), "embed");

  // The full per-step protocol must be safe whether or not counters
  // opened; with them closed it must simply produce nothing.
  prof.begin_step();
  prof.thread_begin(0);
  volatile int spin = 0;
  for (int i = 0; i < 100000; ++i) spin = spin + 1;
  prof.thread_mark(0, 0);
  prof.thread_mark(1, 0);
  prof.thread_mark(2, 0);
  const auto totals = prof.phase_totals();
  if (prof.enabled()) {
    ASSERT_FALSE(totals.empty());
    for (const auto& t : totals) {
      EXPECT_TRUE(t.counts.valid);
      EXPECT_GT(t.counts.cycles, 0.0);
      EXPECT_GT(t.counts.instructions, 0.0);
    }
  } else {
    EXPECT_TRUE(totals.empty());
  }

  prof.set_enabled(false);
  EXPECT_FALSE(prof.enabled());
}

// ----------------------------------------------------- profiled EAM sweep

struct EamWorkload {
  Box box;
  std::vector<Vec3> positions;
  FinnisSinclair potential{FinnisSinclairParams::iron()};
  std::unique_ptr<NeighborList> half;

  explicit EamWorkload(int cells) : box(Box::cubic(cells * units::kLatticeFe)) {
    LatticeSpec spec;
    spec.type = LatticeType::Bcc;
    spec.a0 = units::kLatticeFe;
    spec.nx = spec.ny = spec.nz = cells;
    positions = build_lattice(spec);
    NeighborListConfig cfg;
    cfg.cutoff = potential.cutoff();
    cfg.skin = 0.4;
    half = std::make_unique<NeighborList>(box, cfg);
    half->build(positions);
  }
};

TEST(PerfPhaseProfiler, ComputerWiringSurvivesBothAvailabilities) {
  EamWorkload w(6);
  const std::size_t n = w.positions.size();
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  cfg.sdc.dimensionality = 2;
  EamForceComputer computer(w.potential, cfg);
  computer.attach_schedule(w.box, w.potential.cutoff() + 0.4);
  computer.on_neighbor_rebuild(w.positions);
  computer.hw_profiler().set_enabled(true);

  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> force(n);
  computer.compute(w.box, w.positions, *w.half, rho, fp, force);

  if (computer.hw_profiler().enabled()) {
    const auto totals = computer.hw_profiler().phase_totals();
    bool saw[3] = {false, false, false};
    for (const auto& t : totals) {
      ASSERT_GE(t.phase, 0);
      ASSERT_LT(t.phase, 3);
      saw[t.phase] = true;
      EXPECT_GT(t.counts.cycles, 0.0);
    }
    EXPECT_TRUE(saw[0] && saw[1] && saw[2]);
  } else {
    EXPECT_TRUE(computer.hw_profiler().phase_totals().empty());
  }
}

TEST(ProfiledSweep, MatchesPlainKernelBitwise) {
  // 6 cells: smallest bcc cube whose edge fits two SDC subdomains of
  // 2 x (cutoff + skin).
  EamWorkload w(6);
  const std::size_t n = w.positions.size();

  auto run = [&](bool profiled) {
    EamForceConfig cfg;
    cfg.strategy = ReductionStrategy::Sdc;
    cfg.sdc.dimensionality = 2;
    EamForceComputer computer(w.potential, cfg);
    computer.attach_schedule(w.box, w.potential.cutoff() + 0.4);
    computer.on_neighbor_rebuild(w.positions);
    computer.sweep_profiler().set_enabled(profiled);
    std::vector<double> rho(n), fp(n);
    std::vector<Vec3> force(n);
    const EamForceResult r =
        computer.compute(w.box, w.positions, *w.half, rho, fp, force);
    if (profiled) {
      // Profiler shaped to the schedule with all three phases recorded.
      const auto& prof = computer.sweep_profiler();
      EXPECT_EQ(prof.phases(), 3);
      const auto profiles = prof.color_profiles();
      EXPECT_FALSE(profiles.empty());
      bool saw[3] = {false, false, false};
      for (const auto& p : profiles) {
        saw[p.phase] = true;
        EXPECT_GE(p.work_max, p.work_mean);
        EXPECT_GE(p.work_mean, p.work_min);
        EXPECT_GE(p.imbalance, 1.0);
        EXPECT_GE(p.wait_max, 0.0);
      }
      EXPECT_TRUE(saw[0]);  // density
      EXPECT_TRUE(saw[1]);  // embed
      EXPECT_TRUE(saw[2]);  // force
    }
    return std::make_pair(r, force);
  };

  const auto [plain_result, plain_force] = run(false);
  const auto [prof_result, prof_force] = run(true);
  // The profiled variant keeps the same static schedule, so every atom's
  // force is accumulated in the same order: forces must match bitwise.
  // The scalar energy/virial go through an OpenMP reduction whose combine
  // order is thread-arrival order, so those get an ULP-scale tolerance.
  EXPECT_NEAR(prof_result.pair_energy, plain_result.pair_energy,
              1e-12 * std::abs(plain_result.pair_energy));
  EXPECT_NEAR(prof_result.embedding_energy, plain_result.embedding_energy,
              1e-12 * std::abs(plain_result.embedding_energy));
  EXPECT_NEAR(prof_result.virial, plain_result.virial,
              1e-12 * std::abs(plain_result.virial) + 1e-15);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(prof_force[i].x, plain_force[i].x);
    EXPECT_EQ(prof_force[i].y, plain_force[i].y);
    EXPECT_EQ(prof_force[i].z, plain_force[i].z);
  }
}

// ------------------------------------------------------ simulation wiring

TEST(SimulationInstrumentation, CountersJsonlAndTrace) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 6;  // big enough for 2-D SDC
  System system = System::from_lattice(spec, units::kMassFe);
  FinnisSinclair iron(FinnisSinclairParams::iron());

  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Sdc;
  cfg.force.sdc.dimensionality = 2;
  cfg.rebuild_interval = 2;  // deterministic rebuilds for the counter check
  Simulation sim(std::move(system), iron, cfg);
  sim.set_temperature(50.0, 1234);

  obs::MetricsRegistry registry;
  const std::string jsonl_path = temp_path("sdcmd_sim_steps.jsonl");
  obs::StepMetricsWriter jsonl(jsonl_path);
  ASSERT_TRUE(jsonl.ok());
  obs::TraceWriter trace;

  InstrumentationConfig instr;
  instr.registry = &registry;
  instr.step_writer = &jsonl;
  instr.trace = &trace;
  instr.profile_sweep = true;
  sim.set_instrumentation(instr);
  EXPECT_TRUE(sim.has_instrumentation());

  sim.run(5);

  EXPECT_DOUBLE_EQ(registry.value(registry.counter("sim.steps")), 5.0);
  EXPECT_EQ(registry.total_stats(registry.stats("sim.step_seconds")).count(),
            5u);
  EXPECT_GE(registry.value(registry.counter("sim.neighbor_rebuilds")), 1.0);
  EXPECT_EQ(jsonl.records(), 5u);
  EXPECT_GT(trace.size(), 5u);  // 5 step spans + sweep slices

  jsonl.flush();
  const std::string body = slurp(jsonl_path);
  EXPECT_NE(body.find("\"sim.steps\":1"), std::string::npos);
  EXPECT_NE(body.find("\"sweep\":[{"), std::string::npos);
  EXPECT_NE(body.find("\"phase\":\"density\""), std::string::npos);
  const std::string trace_json = trace.to_json();
  EXPECT_NE(trace_json.find("\"step 1\""), std::string::npos);
  EXPECT_NE(trace_json.find("omp thread 0"), std::string::npos);

  sim.clear_instrumentation();
  EXPECT_FALSE(sim.has_instrumentation());
  sim.run(1);  // uninstrumented run keeps working
  EXPECT_EQ(jsonl.records(), 5u);
  std::remove(jsonl_path.c_str());
}

TEST(SimulationInstrumentation, CacheCountersMeasureFromAttach) {
  // Regression: set_instrumentation seeds the pair-cache delta trackers
  // like every other EAM counter. Attaching after stepping (or again after
  // clear_instrumentation) used to charge every earlier compute's slots to
  // the first instrumented step: 7 computes x the pair count here.
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 6;
  System system = System::from_lattice(spec, units::kMassFe);
  FinnisSinclair iron(FinnisSinclairParams::iron());
  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Sdc;
  Simulation sim(std::move(system), iron, cfg);
  sim.run(5);

  for (int attach = 0; attach < 2; ++attach) {
    obs::MetricsRegistry registry;
    InstrumentationConfig instr;
    instr.registry = &registry;
    sim.set_instrumentation(instr);
    sim.run(1);
    const double pairs =
        static_cast<double>(sim.neighbor_list().pair_count());
    EXPECT_DOUBLE_EQ(registry.value(registry.counter("eam.cache_store_slots")),
                     pairs)
        << "attach " << attach;
    EXPECT_DOUBLE_EQ(registry.value(registry.counter("eam.cache_read_slots")),
                     pairs)
        << "attach " << attach;
    sim.clear_instrumentation();
    sim.run(2);
  }
}

TEST(SimulationInstrumentation, HwAndSweepGaugesRoundTripThroughJsonl) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 6;
  System system = System::from_lattice(spec, units::kMassFe);
  FinnisSinclair iron(FinnisSinclairParams::iron());

  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Sdc;
  cfg.force.sdc.dimensionality = 2;
  Simulation sim(std::move(system), iron, cfg);
  sim.set_temperature(50.0, 7);

  obs::MetricsRegistry registry;
  const std::string jsonl_path = temp_path("sdcmd_hw_gauges.jsonl");
  obs::StepMetricsWriter jsonl(jsonl_path);
  ASSERT_TRUE(jsonl.ok());

  InstrumentationConfig instr;
  instr.registry = &registry;
  instr.step_writer = &jsonl;
  instr.profile_sweep = true;
  instr.profile_hw = true;
  sim.set_instrumentation(instr);
  sim.run(3);

  // hw.available reports what the probe found; on denied hosts every hw
  // gauge stays 0 but the family is still present in the stream.
  const double avail = registry.value(registry.gauge("hw.available"));
  EXPECT_EQ(avail, obs::PerfPhaseProfiler::available() ? 1.0 : 0.0);
  if (avail == 1.0) {
    EXPECT_GT(registry.value(registry.gauge("hw.force.ipc")), 0.0);
    EXPECT_GT(
        registry.value(registry.gauge("hw.force.cycles_per_atom")), 0.0);
    EXPECT_GT(registry.value(registry.counter("hw.cycles")), 0.0);
  }
  // The SDC sweep ran, so the derived load-balance gauges must be live:
  // imbalance >= 1 by construction, barrier fraction in [0, 1).
  EXPECT_GE(registry.value(registry.gauge("sweep.imbalance")), 1.0);
  const double bf = registry.value(registry.gauge("sweep.barrier_frac"));
  EXPECT_GE(bf, 0.0);
  EXPECT_LT(bf, 1.0);

  jsonl.flush();
  const std::string body = slurp(jsonl_path);
  EXPECT_NE(body.find("\"hw.available\":"), std::string::npos);
  EXPECT_NE(body.find("\"hw.force.ipc\":"), std::string::npos);
  EXPECT_NE(body.find("\"sweep.imbalance\":"), std::string::npos);
  EXPECT_NE(body.find("\"sweep.barrier_frac\":"), std::string::npos);
  std::remove(jsonl_path.c_str());
}

TEST(SimulationInstrumentation, HwGaugesStayOutOfUnprofiledStreams) {
  // The hw./sweep. families are interned only when requested: a plain
  // instrumented run must not carry them (gauges always re-report, so
  // unconditional interning would pollute every record).
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 3;
  System system = System::from_lattice(spec, units::kMassFe);
  FinnisSinclair iron(FinnisSinclairParams::iron());
  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Serial;
  Simulation sim(std::move(system), iron, cfg);

  obs::MetricsRegistry registry;
  InstrumentationConfig instr;
  instr.registry = &registry;
  sim.set_instrumentation(instr);
  sim.run(2);

  for (std::size_t h = 0; h < registry.size(); ++h) {
    EXPECT_NE(registry.name(h).rfind("hw.", 0), 0u) << registry.name(h);
    EXPECT_NE(registry.name(h).rfind("sweep.", 0), 0u) << registry.name(h);
  }
}

namespace {

/// Pull every `"key":value` number out of one JSONL line.
double json_number(const std::string& line, const std::string& key,
                   double fallback) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

/// Split the `"sweep":[...]` array of one JSONL line into its `{...}`
/// record substrings (empty if the line carries no sweep array).
std::vector<std::string> sweep_records(const std::string& line) {
  std::vector<std::string> records;
  const std::size_t start = line.find("\"sweep\":[");
  if (start == std::string::npos) return records;
  std::size_t pos = start;
  while (true) {
    const std::size_t open = line.find('{', pos);
    const std::size_t close = line.find('}', open);
    if (open == std::string::npos || close == std::string::npos) break;
    records.push_back(line.substr(open, close - open + 1));
    pos = close + 1;
    if (pos < line.size() && line[pos] == ']') break;
  }
  return records;
}

}  // namespace

TEST(SimulationInstrumentation, SweepProfilerReshapesWhenGovernorDropsColors) {
  // A governor demotion from SDC to the cell-task shape collapses the
  // profiler's (colors x threads) sample store to the colorless 1-color
  // shape MID-RUN. Every JSONL record on both sides of the collapse must
  // be complete — a torn record (stale color indices surviving the
  // reshape, or a partially-populated slot store) is exactly the latent
  // bug this seam invites.
  FaultInjector::instance().disarm_all();
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Error);  // the demotion warning is expected

  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 6;
  System system = System::from_lattice(spec, units::kMassFe);
  FinnisSinclair iron(FinnisSinclairParams::iron());

  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Sdc;
  Simulation sim(std::move(system), iron, cfg);
  sim.set_temperature(50.0, 99);

  obs::MetricsRegistry registry;
  const std::string jsonl_path = temp_path("sdcmd_sweep_reshape.jsonl");
  obs::StepMetricsWriter jsonl(jsonl_path);
  ASSERT_TRUE(jsonl.ok());
  InstrumentationConfig instr;
  instr.registry = &registry;
  instr.step_writer = &jsonl;
  instr.profile_sweep = true;
  sim.set_instrumentation(instr);
  sim.set_governor(GovernorConfig{});
  ASSERT_EQ(sim.governor()->active(), ReductionStrategy::Sdc);

  FaultSpec fault;
  fault.countdown = 4;  // fires inside step 5
  fault.magnitude = 0.9;
  FaultInjector::instance().arm(faults::kBoxShrink, fault);
  sim.run(12);
  FaultInjector::instance().disarm_all();
  set_log_level(saved);
  ASSERT_EQ(sim.governor()->active(), ReductionStrategy::CellTask);

  jsonl.flush();
  std::ifstream in(jsonl_path);
  std::string line;
  const double celltask_code = static_cast<double>(
      StrategyGovernor::strategy_code(ReductionStrategy::CellTask));
  const char* keys[] = {"\"phase\":",      "\"color\":",      "\"threads\":",
                        "\"work_max_s\":", "\"work_mean_s\":", "\"work_min_s\":",
                        "\"imbalance\":",  "\"wait_max_s\":",  "\"wait_mean_s\":"};
  int sdc_steps = 0, task_steps = 0;
  bool saw_task_shape = false, saw_gauge_flip = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '}') << "torn (truncated) JSONL record: " << line;
    const auto records = sweep_records(line);
    ASSERT_FALSE(records.empty()) << "profiled step lost its sweep: " << line;
    int max_color = 0;
    for (const auto& rec : records) {
      for (const char* key : keys) {
        EXPECT_NE(rec.find(key), std::string::npos)
            << "torn sweep record " << rec;
      }
      const int color = static_cast<int>(json_number(rec, "color", -1.0));
      ASSERT_GE(color, 0) << rec;
      max_color = std::max(max_color, color);
    }
    // The demotion fires at the END of the fault step (the box-shrink is a
    // barostat-shaped end-of-step event), so that one line carries the new
    // gauge value alongside the last SDC-shaped sweep. The collapse itself
    // must be monotone: once the 1-color task shape appears, no later step
    // may emit a multi-color record (a stale color index surviving the
    // reshape is exactly the torn-record bug this test pins).
    if (max_color == 0) {
      saw_task_shape = true;
      ++task_steps;
    } else {
      EXPECT_FALSE(saw_task_shape)
          << "multi-color sweep after the colorless collapse: " << line;
      ++sdc_steps;
    }
    if (json_number(line, "governor.active_strategy", -1.0) ==
        celltask_code) {
      saw_gauge_flip = true;
    } else {
      EXPECT_FALSE(saw_gauge_flip) << "gauge flipped back: " << line;
      EXPECT_EQ(max_color == 0, false)
          << "task-shaped sweep before the demotion: " << line;
    }
  }
  EXPECT_TRUE(saw_gauge_flip);
  EXPECT_GE(sdc_steps, 4);   // steps before the fault fired
  EXPECT_GE(task_steps, 6);  // steps after the collapse
  std::remove(jsonl_path.c_str());
}

TEST(RunSupervisorObs, NamesItsTraceTrackAndFlushesSummary) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 3;
  System system = System::from_lattice(spec, units::kMassFe);
  FinnisSinclair iron(FinnisSinclairParams::iron());
  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Serial;
  Simulation sim(std::move(system), iron, cfg);
  sim.set_temperature(50.0, 3);

  obs::MetricsRegistry registry;
  const std::string jsonl_path = temp_path("sdcmd_sup_summary.jsonl");
  obs::StepMetricsWriter jsonl(jsonl_path);
  ASSERT_TRUE(jsonl.ok());
  obs::TraceWriter trace;

  InstrumentationConfig instr;
  instr.registry = &registry;
  instr.step_writer = &jsonl;
  sim.set_instrumentation(instr);

  const std::string dir = testing::TempDir() + "sdcmd_sup_obs_run.d";
  std::filesystem::remove_all(dir);
  run::RunDir run_dir(dir, 2);
  run::SupervisorConfig sup;
  sup.checkpoint_every = 2;
  sup.install_signal_handlers = false;
  sup.registry = &registry;
  sup.trace = &trace;
  sup.step_writer = &jsonl;
  run::RunSupervisor supervisor(sim, run_dir, sup);

  // The supervisor's track is named at construction so even a run that
  // never emits a marker gets a labelled tid 1001 in the viewer.
  const std::string before = trace.to_json();
  EXPECT_NE(before.find("\"tid\":1001"), std::string::npos);
  EXPECT_NE(before.find("\"name\":\"supervisor\""), std::string::npos);

  EXPECT_EQ(supervisor.run_to(3), run::RunOutcome::Completed);
  jsonl.flush();
  const std::string body = slurp(jsonl_path);
  const auto pos = body.rfind("\"kind\":\"summary\"");
  ASSERT_NE(pos, std::string::npos);
  // The summary is the stream's last record.
  EXPECT_EQ(body.find('\n', body.rfind("{\"schema\"")),
            body.size() - 1);
  EXPECT_NE(body.find("\"run.checkpoints\":", pos), std::string::npos);
  std::remove(jsonl_path.c_str());
}

TEST(SimulationInstrumentation, GuardrailEventsBecomeCounters) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 3;
  System system = System::from_lattice(spec, units::kMassFe);
  FinnisSinclair iron(FinnisSinclairParams::iron());

  SimulationConfig cfg;
  cfg.dt = units::fs_to_internal(1.0);
  cfg.force.strategy = ReductionStrategy::Serial;
  Simulation sim(std::move(system), iron, cfg);
  sim.set_temperature(50.0, 99);

  GuardrailConfig guard;
  guard.health.cadence = 1;
  guard.checkpoint_every = 2;
  sim.set_guardrails(guard);

  obs::MetricsRegistry registry;
  InstrumentationConfig instr;
  instr.registry = &registry;
  sim.set_instrumentation(instr);

  sim.run(4);
  EXPECT_GE(registry.value(registry.counter("guard.health_checks")), 4.0);
  EXPECT_GE(registry.value(registry.counter("guard.checkpoints")), 2.0);
  EXPECT_DOUBLE_EQ(registry.value(registry.counter("guard.rollbacks")), 0.0);
}

TEST(SimulationInstrumentation, RejectsInvalidConfig) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 3;
  System system = System::from_lattice(spec, units::kMassFe);
  FinnisSinclair iron(FinnisSinclairParams::iron());
  SimulationConfig cfg;
  cfg.force.strategy = ReductionStrategy::Serial;  // box too small for SDC
  Simulation sim(std::move(system), iron, cfg);

  InstrumentationConfig bad;
  bad.registry = nullptr;
  obs::StepMetricsWriter w(temp_path("sdcmd_reject.jsonl"));
  bad.step_writer = &w;  // writer without a registry
  EXPECT_THROW(sim.set_instrumentation(bad), PreconditionError);

  InstrumentationConfig zero;
  obs::MetricsRegistry reg;
  zero.registry = &reg;
  zero.sample_every = 0;
  EXPECT_THROW(sim.set_instrumentation(zero), PreconditionError);
}

// ----------------------------------------------------------- phase timers

TEST(PhaseTimers, SlotHandlesMatchNameLookup) {
  PhaseTimers timers;
  const std::size_t h = timers.index("force");
  EXPECT_EQ(timers.index("force"), h);  // interning is stable
  timers.slot(h).start();
  timers.slot(h).stop();
  EXPECT_EQ(timers["force"].laps(), 1u);
  timers["force"].start();
  timers["force"].stop();
  EXPECT_EQ(timers.slot(h).laps(), 2u);
  EXPECT_NE(timers.index("density"), h);
  ASSERT_EQ(timers.entries().size(), 2u);
  EXPECT_EQ(timers.entries()[0].name, "force");
}

// -------------------------------------------------------------- thermolog

TEST(ThermoLog, CsvRoundTripsEveryColumn) {
  ThermoLog log;
  ThermoSample a;
  a.step = 3;
  a.temperature = 297.125;
  a.kinetic_energy = 1.5;
  a.pair_energy = -10.25;
  a.embedding_energy = -4.75;
  a.pressure = 0.0625;
  ThermoSample b = a;
  b.step = 4;
  b.temperature = 301.5;
  log.record(a);
  log.record(b);

  const std::string path = temp_path("sdcmd_thermo_roundtrip.csv");
  ASSERT_TRUE(log.write_csv(path));

  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "step,temperature,kinetic,pair,embedding,total,pressure");

  std::vector<ThermoSample> parsed;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::string field;
    ThermoSample s;
    std::getline(is, field, ',');
    s.step = std::stol(field);
    std::getline(is, field, ',');
    s.temperature = std::stod(field);
    std::getline(is, field, ',');
    s.kinetic_energy = std::stod(field);
    std::getline(is, field, ',');
    s.pair_energy = std::stod(field);
    std::getline(is, field, ',');
    s.embedding_energy = std::stod(field);
    std::getline(is, field, ',');
    const double total = std::stod(field);
    std::getline(is, field, ',');
    s.pressure = std::stod(field);
    EXPECT_NEAR(total, s.total_energy(), 1e-3);
    parsed.push_back(s);
  }
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const ThermoSample& want = log.samples()[i];
    EXPECT_EQ(parsed[i].step, want.step);
    // write_csv prints %.4f-style fixed columns; round-trip to that grain.
    EXPECT_NEAR(parsed[i].temperature, want.temperature, 1e-3);
    EXPECT_NEAR(parsed[i].kinetic_energy, want.kinetic_energy, 1e-3);
    EXPECT_NEAR(parsed[i].pair_energy, want.pair_energy, 1e-3);
    EXPECT_NEAR(parsed[i].embedding_energy, want.embedding_energy, 1e-3);
    EXPECT_NEAR(parsed[i].pressure, want.pressure, 1e-3);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdcmd
