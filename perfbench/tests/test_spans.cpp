// The benchmark's own tests: the tracing decorators forward every virtual
// and leave the physics bitwise unchanged, and every step's child spans fit
// inside it.
//
//   python3 perfbench/run.py --test
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "common/error.hpp"
#include "md_workload.hpp"
#include "spans.hpp"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/// Scratch directory under the working directory, removed on destruction.
class ScratchDir {
 public:
  ScratchDir() : path_("perfbench_test_scratch_" + std::to_string(getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// A ForceProvider whose every virtual answers something distinctive and
/// counts its calls, so a decorator that drops a forward is caught.
class ProbeProvider final : public sdcmd::ForceProvider {
 public:
  double cutoff() const override { ++calls.cutoff; return 4.25; }
  sdcmd::NeighborMode required_mode() const override {
    ++calls.mode;
    return sdcmd::NeighborMode::Full;
  }
  void attach_schedule(const sdcmd::Box&, double range) override {
    ++calls.attach;
    last_range = range;
  }
  void on_neighbor_rebuild(std::span<const sdcmd::Vec3> p) override {
    ++calls.rebuild;
    last_positions = p.size();
  }
  sdcmd::EamForceResult compute(const sdcmd::Box&, sdcmd::Atoms&,
                                const sdcmd::NeighborList&) override {
    ++calls.compute;
    sdcmd::EamForceResult r;
    r.pair_energy = -1.5;
    r.embedding_energy = -2.5;
    r.virial = 3.5;
    return r;
  }
  sdcmd::PhaseTimers& timers() override { ++calls.timers; return timers_; }
  int neighbor_pad_width() const override { ++calls.pad; return 8; }
  sdcmd::EamForceComputer* eam_computer() override {
    ++calls.eam;
    return reinterpret_cast<sdcmd::EamForceComputer*>(&timers_);
  }
  std::optional<sdcmd::ReductionStrategy> strategy() const override {
    ++calls.strategy;
    return sdcmd::ReductionStrategy::CellTask;
  }
  bool set_strategy(sdcmd::ReductionStrategy s) override {
    ++calls.set_strategy;
    last_set = s;
    return true;
  }
  std::optional<sdcmd::SdcConfig> sdc_config() const override {
    ++calls.sdc;
    sdcmd::SdcConfig c;
    c.dimensionality = 3;
    return c;
  }

  struct Calls {
    int cutoff = 0, mode = 0, attach = 0, rebuild = 0, compute = 0,
        timers = 0, pad = 0, eam = 0, strategy = 0, set_strategy = 0, sdc = 0;
  };
  mutable Calls calls;
  double last_range = 0.0;
  std::size_t last_positions = 0;
  sdcmd::ReductionStrategy last_set = sdcmd::ReductionStrategy::Serial;
  sdcmd::PhaseTimers timers_;
};

class ProbeThermostat final : public sdcmd::Thermostat {
 public:
  void apply(std::span<sdcmd::Vec3> v, double mass, double dt) override {
    ++applies;
    last = v.size() + mass + dt;
  }
  double target_temperature() const override { ++targets; return 123.0; }
  bool conserves_momentum() const override { ++conserves; return false; }

  int applies = 0;
  mutable int targets = 0;
  mutable int conserves = 0;
  double last = 0.0;
};

MdSpec small_spec(bool npt) {
  MdSpec spec;
  spec.cells = 8;
  spec.npt = npt;
  spec.temperature = npt ? 900.0 : 300.0;
  spec.void_fraction = npt ? 0.3 : 0.0;
  spec.checkpoint_every = 10;
  return spec;
}

}  // namespace

TEST(TracingForceProvider, ForwardsEveryVirtualAndTimesTheBoundaries) {
  auto owned = std::make_unique<ProbeProvider>();
  ProbeProvider& inner = *owned;
  SpanRecorder rec;
  TracingForceProvider traced(std::move(owned), rec);

  EXPECT_EQ(traced.cutoff(), 4.25);
  EXPECT_EQ(traced.required_mode(), sdcmd::NeighborMode::Full);
  EXPECT_EQ(traced.neighbor_pad_width(), 8);
  EXPECT_EQ(&traced.timers(), &inner.timers_);
  EXPECT_EQ(traced.eam_computer(),
            reinterpret_cast<sdcmd::EamForceComputer*>(&inner.timers_));
  EXPECT_EQ(traced.strategy(), sdcmd::ReductionStrategy::CellTask);
  ASSERT_TRUE(traced.sdc_config().has_value());
  EXPECT_EQ(traced.sdc_config()->dimensionality, 3);
  EXPECT_TRUE(traced.set_strategy(sdcmd::ReductionStrategy::Atomic));
  EXPECT_EQ(inner.last_set, sdcmd::ReductionStrategy::Atomic);

  const sdcmd::Box box({0, 0, 0}, {10, 10, 10});
  traced.attach_schedule(box, 5.5);
  EXPECT_EQ(inner.last_range, 5.5);
  const std::vector<sdcmd::Vec3> positions(7);
  traced.on_neighbor_rebuild(positions);
  EXPECT_EQ(inner.last_positions, 7u);
  sdcmd::Atoms atoms(positions);
  sdcmd::NeighborListConfig nl;
  nl.cutoff = 2.0;
  const sdcmd::NeighborList list(box, nl);
  const sdcmd::EamForceResult r = traced.compute(box, atoms, list);
  EXPECT_EQ(r.pair_energy, -1.5);
  EXPECT_EQ(r.embedding_energy, -2.5);
  EXPECT_EQ(r.virial, 3.5);

  const ProbeProvider::Calls& c = inner.calls;
  EXPECT_EQ(c.cutoff, 1);
  EXPECT_EQ(c.mode, 1);
  EXPECT_EQ(c.pad, 1);
  EXPECT_EQ(c.timers, 1);
  EXPECT_EQ(c.eam, 1);
  EXPECT_EQ(c.strategy, 1);
  EXPECT_EQ(c.sdc, 2);
  EXPECT_EQ(c.set_strategy, 1);
  EXPECT_EQ(c.attach, 1);
  EXPECT_EQ(c.rebuild, 1);
  EXPECT_EQ(c.compute, 1);

  EXPECT_EQ(rec.count(Span::Compute), 1u);
  EXPECT_EQ(rec.count(Span::Attach), 1u);
  EXPECT_EQ(rec.count(Span::Partition), 1u);
  EXPECT_EQ(rec.count(Span::SetStrategy), 1u);
  EXPECT_EQ(rec.spans().size(), 4u);
}

TEST(TracingThermostat, ForwardsEveryVirtualAndTimesApply) {
  auto owned = std::make_unique<ProbeThermostat>();
  ProbeThermostat& inner = *owned;
  SpanRecorder rec;
  TracingThermostat traced(std::move(owned), rec);
  std::vector<sdcmd::Vec3> v(3);
  traced.apply(v, 2.0, 0.5);
  EXPECT_EQ(inner.applies, 1);
  EXPECT_EQ(inner.last, 3 + 2.0 + 0.5);
  EXPECT_EQ(traced.target_temperature(), 123.0);
  EXPECT_FALSE(traced.conserves_momentum());
  EXPECT_EQ(inner.targets, 1);
  EXPECT_EQ(inner.conserves, 1);
  EXPECT_EQ(rec.count(Span::Thermostat), 1u);
}

class TracedRun : public ::testing::TestWithParam<bool> {};

TEST_P(TracedRun, ReachesBitwiseEqualEnergiesAndCounts) {
  const MdSpec spec = small_spec(GetParam());
  ScratchDir dir;
  SpanRecorder rec;
  MdInstance plain(spec, 42, dir.sub("plain"), nullptr);
  MdInstance traced(spec, 42, dir.sub("traced"), &rec);
  for (int i = 0; i < 60; ++i) {
    plain.step();
    traced.step();
  }
  const ExactCounts a = plain.counts();
  const ExactCounts b = traced.counts();
  EXPECT_EQ(a, b) << a.str() << " | " << b.str();
  EXPECT_GT(a.rebuilds, 1u);
  EXPECT_EQ(a.checkpoints, 6);
  const auto& pa = plain.sim().system().atoms().position;
  const auto& pb = traced.sim().system().atoms().position;
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].x, pb[i].x);
    ASSERT_EQ(pa[i].y, pb[i].y);
    ASSERT_EQ(pa[i].z, pb[i].z);
  }
}

TEST_P(TracedRun, ChildSpansFitInsideTheirStep) {
  const MdSpec spec = small_spec(GetParam());
  ScratchDir dir;
  SpanRecorder rec;
  MdInstance inst(spec, 7, dir.sub("run"), &rec);
  rec.reset();
  const LayerSnapshot a = layer_snapshot(inst);
  const double ckpt0 = inst.registry()
                           .total_stats(inst.registry().stats("run.checkpoint_seconds"))
                           .sum();
  for (int i = 0; i < 80; ++i) inst.step();
  const LayerSnapshot b = layer_snapshot(inst);
  const LayerTable t = layer_table(rec, b.step - a.step);

  EXPECT_EQ(t.steps, 80);
  EXPECT_EQ(rec.count(Span::Step), 80u);
  EXPECT_NEAR(t.step_ms, rec.total(Span::Step) * 1e3 / 80, 1e-12);
  EXPECT_GE(t.self_ms, 0.0);
  EXPECT_GT(t.core_ms, 0.0);
  EXPECT_GT(t.neighbor_ms, 0.0);
  EXPECT_GT(t.domain_ms, 0.0);
  EXPECT_GT(t.run_ms, 0.0);
  if (spec.npt) {
    EXPECT_GT(t.thermostat_ms, 0.0);
    EXPECT_EQ(rec.count(Span::Thermostat), 80u);
  } else {
    EXPECT_EQ(t.thermostat_ms, 0.0);
  }

  // The layer-clock spans carry exactly the layers' own totals.
  const double nb = (b.neighbor.bin_seconds - a.neighbor.bin_seconds) +
                    (b.neighbor.count_seconds - a.neighbor.count_seconds) +
                    (b.neighbor.fill_seconds - a.neighbor.fill_seconds);
  EXPECT_NEAR(rec.total(Span::NeighborBuild), nb, 1e-9);
  const double ckpt1 = inst.registry()
                           .total_stats(inst.registry().stats("run.checkpoint_seconds"))
                           .sum();
  EXPECT_NEAR(rec.total(Span::Checkpoint), ckpt1 - ckpt0, 1e-9);
  EXPECT_EQ(b.checkpoints - a.checkpoints, 8);

  // Per step: every child lies inside its step, and the children's
  // durations add up to no more than the step's.
  EXPECT_TRUE(spans_fit_in_steps(rec));

  const std::string trace = dir.sub("trace.json");
  ASSERT_TRUE(rec.write_chrome_trace(trace));
  std::ifstream in(trace);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("md.step"), std::string::npos);
  EXPECT_NE(text.str().find("core.compute"), std::string::npos);
}

TEST(MdInstance, ResumesFromItsCheckpointWithEnergyContinuity) {
  const MdSpec spec = small_spec(true);
  ScratchDir dir;
  long step = 0;
  {
    MdInstance run(spec, 3, dir.sub("run"), nullptr);
    for (int i = 0; i < 15; ++i) run.step();
    ASSERT_TRUE(run.supervisor().checkpoint_now());
    step = run.sim().current_step();
  }
  MdInstance resumed(spec, dir.sub("run"));
  EXPECT_EQ(resumed.sim().current_step(), step);
  EXPECT_LE(resumed.continuity_rel(), 1e-8);
  EXPECT_GT(resumed.continuity_rel(), -1.0);
  resumed.step();
  EXPECT_EQ(resumed.sim().current_step(), step + 1);
  EXPECT_THROW(MdInstance(spec, dir.sub("empty")), sdcmd::Error);
}

TEST(SpansFitInSteps, RejectsChildrenThatOutlastTheirStep) {
  SpanRecorder fits;
  fits.record(Span::Compute, 1.0, 1.6);
  fits.record(Span::NeighborBuild, 1.6, 1.9);
  fits.record(Span::Step, 1.0, 2.0);
  EXPECT_TRUE(spans_fit_in_steps(fits));

  // Each child inside the step, but together longer than it: a layer
  // clock counted twice.
  SpanRecorder overlapping;
  overlapping.record(Span::Compute, 1.0, 1.8);
  overlapping.record(Span::NeighborBuild, 1.3, 1.9);
  overlapping.record(Span::Step, 1.0, 2.0);
  EXPECT_FALSE(spans_fit_in_steps(overlapping));

  // A child that ends after its step.
  SpanRecorder late;
  late.record(Span::Checkpoint, 1.5, 2.5);
  late.record(Span::Step, 1.0, 2.0);
  EXPECT_FALSE(spans_fit_in_steps(late));
}

INSTANTIATE_TEST_SUITE_P(NveAndNpt, TracedRun, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "npt_void" : "nve";
                         });
