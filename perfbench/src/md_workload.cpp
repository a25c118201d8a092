#include "md_workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "geom/defects.hpp"
#include "geom/lattice.hpp"
#include "md/health.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sdcmd;

namespace {

/// Steps of the exact-count self-test; covers at least one neighbor
/// rebuild on both workloads and four barostat applications under NPT.
constexpr long kProbeSteps = 40;
/// Instances of the exact-count self-test: the run's seed, another seed,
/// the run's seed again. The last one goes on to the timed phase.
constexpr int kProbeInstances = 3;
/// Stepping segments of the untraced timed phase. Between two, the run is
/// checkpointed, freed and resumed, and one set-up sample is built while
/// it is down, so set-up and resume samples spread over the whole run. A
/// 54,000-atom resume moves by a third between two samples a few seconds
/// apart on a shared host, so the median needs ten of them.
constexpr int kSegments = 11;
/// Final forces against a Serial-strategy computer on the same list.
constexpr double kForceTolerance = 1e-12;
/// |E(end) - E(set-up)| / N for the NVE workload, eV/atom. Velocity Verlet
/// at dt = 1 fs and 300 K fluctuates around 1e-6 eV/atom over a few
/// thousand steps; a broken integrator or force path misses it by orders
/// of magnitude.
constexpr double kNveDriftPerAtom = 1e-4;
/// Energy continuity across a resume, as sdcmd-run and sdcmd-serve prove.
constexpr double kContinuityTolerance = 1e-8;
constexpr double kMiB = 1024.0 * 1024.0;

System make_system(const MdSpec& spec) {
  LatticeSpec lattice;
  lattice.type = LatticeType::Bcc;
  lattice.a0 = units::kLatticeFe;
  lattice.nx = lattice.ny = lattice.nz = spec.cells;
  System system = System::from_lattice(lattice, units::kMassFe);
  if (spec.void_fraction <= 0.0) return system;
  const Box box = system.box();
  const Vec3 center = (box.lo() + box.hi()) * 0.5;
  const double edge = std::min({box.length(0), box.length(1), box.length(2)});
  std::vector<Vec3> positions = system.atoms().position;
  carve_sphere(positions, box, center, spec.void_fraction * edge);
  return System(box, Atoms(std::move(positions)), units::kMassFe);
}

/// The production batch configuration (sdcmd-run): construct on Serial and
/// let the governor select SDC.
SimulationConfig sim_config() {
  SimulationConfig config;
  config.dt = units::fs_to_internal(1.0);
  config.force.strategy = ReductionStrategy::Serial;
  return config;
}

void install_npt(Simulation& sim, const MdSpec& spec, SpanRecorder* rec) {
  if (!spec.npt) return;
  std::unique_ptr<Thermostat> thermostat =
      std::make_unique<BerendsenThermostat>(spec.temperature,
                                            units::fs_to_internal(100.0));
  if (rec != nullptr) {
    thermostat = std::make_unique<TracingThermostat>(std::move(thermostat), *rec);
  }
  sim.set_thermostat(std::move(thermostat));
  sim.set_barostat(BerendsenBarostat(0.0, units::fs_to_internal(500.0)), 10);
  sim.set_guardrails(GuardrailConfig{});
}

/// Stepping samples of a timed phase, accumulated over its segments.
struct Timed {
  std::vector<double> step_ms;
  long steps = 0;
  double wall = 0.0;  ///< stepping time only
  std::string error;
};

/// Step `inst` one RunSupervisor::advance(1) at a time until `seconds`
/// have elapsed, appending to `t`.
void step_for(MdInstance& inst, double seconds, Timed& t) {
  const double start = now();
  double end = start;
  try {
    do {
      const double a = now();
      inst.step();
      end = now();
      t.step_ms.push_back((end - a) * 1e3);
      ++t.steps;
    } while (end - start < seconds);
  } catch (const std::exception& e) {
    t.error = e.what();
    end = now();
  }
  t.wall += end - start;
}

/// Set-up and resume samples of one run.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> resume_ms;
  double worst_rel = 0.0;  ///< worst resume energy continuity
  long failed_commits = 0;
};

/// Stop the run between two segments the way a preempted batch job stops
/// (a checkpoint, then its memory is gone), build and free one set-up
/// sample while it is down, and resume it as `sdcmd-run --resume` does.
void restart(const MdSpec& spec, const Options& opt, int k,
             std::unique_ptr<MdInstance>& inst, Samples& s, Result& r) {
  ++r.attempted;
  if (!inst->supervisor().checkpoint_now()) {
    ++r.failed;
    ++s.failed_commits;
  }
  const std::string run_dir = inst->run_dir();
  inst.reset();

  const std::string dir = opt.scratch + "/setup" + std::to_string(k);
  const double t0 = now();
  auto fresh = std::make_unique<MdInstance>(spec, opt.seed, dir, nullptr);
  s.setup_s.push_back(now() - t0);
  fresh.reset();
  remove_tree(dir);

  ++r.attempted;
  const double t1 = now();
  inst = std::make_unique<MdInstance>(spec, run_dir);
  s.resume_ms.push_back((now() - t1) * 1e3);
  s.worst_rel = std::max(s.worst_rel, inst->continuity_rel());
}

/// Fraction of stored list pairs inside the potential cutoff: the rest are
/// skin pairs the kernels walk for nothing.
double in_range_fraction(Simulation& sim) {
  const NeighborList& list = sim.neighbor_list();
  const std::vector<Vec3>& pos = sim.system().atoms().position;
  const Box& box = sim.system().box();
  const double rc = sim.force_provider().cutoff();
  std::size_t useful = 0;
  for (std::size_t i = 0; i < list.atom_count(); ++i) {
    for (const std::uint32_t j : list.neighbors(i)) {
      const Vec3 d = box.minimum_image(pos[i], pos[j]);
      useful += d.x * d.x + d.y * d.y + d.z * d.z < rc * rc ? 1 : 0;
    }
  }
  return list.pair_count() > 0 ? static_cast<double>(useful) /
                                     static_cast<double>(list.pair_count())
                               : 0.0;
}

/// Median seconds of `reps` calls of `fn`.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now();
    fn();
    s.push_back(now() - t0);
  }
  return sdcmd::median(s);
}

std::string hex(std::uint64_t v) {
  std::ostringstream o;
  o << std::hex << v;
  return o.str();
}

double newest_checkpoint_mb(const std::string& run_dir) {
  const run::RunDir dir(run_dir, 3);
  const std::vector<run::RingEntry> ring = dir.scan_ring();
  if (ring.empty()) return 0.0;
  std::error_code ec;
  const auto bytes = fs::file_size(dir.file_path(ring.front().file), ec);
  return ec ? 0.0 : static_cast<double>(bytes) / kMiB;
}

}  // namespace

MdSpec md_spec(const std::string& workload) {
  MdSpec spec;
  if (workload == "fe54k_nve") return spec;
  if (workload == "void48k_npt") {
    spec.void_fraction = 0.3;
    spec.temperature = 900.0;
    spec.npt = true;
    return spec;
  }
  throw Error("unknown MD workload '" + workload + "'");
}

std::string ExactCounts::str() const {
  std::ostringstream o;
  o << "rebuilds=" << rebuilds << " pair_visits=" << pair_visits
    << " barriers=" << barriers << " governor_swaps=" << governor_swaps
    << " checkpoints=" << checkpoints << " quanta=" << quanta
    << " energy_bits=" << hex(energy_bits);
  return o.str();
}

MdInstance::MdInstance(const MdSpec& spec, std::uint64_t seed,
                       const std::string& run_dir, SpanRecorder* recorder)
    : spec_(spec),
      potential_(FinnisSinclairParams::iron()),
      rec_(recorder) {
  const SimulationConfig config = sim_config();
  System system = make_system(spec);
  if (rec_ != nullptr) {
    sim_ = std::make_unique<Simulation>(
        std::move(system),
        std::make_unique<TracingForceProvider>(
            std::make_unique<EamForceProvider>(potential_, config.force), *rec_),
        config);
  } else {
    sim_ = std::make_unique<Simulation>(std::move(system), potential_, config);
  }
  sim_->set_temperature(spec.temperature, seed);
  sim_->set_governor(GovernorConfig{});
  finish_setup(run_dir, false);
}

MdInstance::MdInstance(const MdSpec& spec, const std::string& run_dir)
    : spec_(spec),
      potential_(FinnisSinclairParams::iron()),
      rec_(nullptr) {
  std::optional<run::ResumePoint> point =
      run::RunDir(run_dir, 3).try_resume_provable();
  if (!point || !point->state_valid) {
    throw Error("no provable resume point in " + run_dir);
  }
  SimulationConfig config = sim_config();
  if (point->state.has_governor) {
    config.force.strategy = point->state.governor.active;
  }
  sim_ = std::make_unique<Simulation>(std::move(point->checkpoint.system),
                                      potential_, config);
  sim_->set_current_step(point->checkpoint.step);
  sim_->set_dt(point->state.dt);
  sim_->set_com_momentum_zeroed(point->state.momentum_zeroed);
  if (point->state.has_governor) {
    sim_->set_governor(GovernorConfig{}, point->state.governor);
  } else {
    sim_->set_governor(GovernorConfig{});
  }
  finish_setup(run_dir, true);
  const double ref = point->state.total_energy;
  continuity_rel_ = std::abs(sim_->sample().total_energy() - ref) /
                    std::max(1.0, std::abs(ref));
}

void MdInstance::finish_setup(const std::string& run_dir, bool resumed) {
  install_npt(*sim_, spec_, rec_);

  InstrumentationConfig inst;
  inst.registry = &registry_;
  inst.profile_sweep = rec_ != nullptr;
  sim_->set_instrumentation(inst);

  dir_ = std::make_unique<run::RunDir>(run_dir, 3);
  if (!resumed && !dir_->scan_ring().empty()) {
    throw Error("run directory " + run_dir + " already holds checkpoints");
  }
  run::SupervisorConfig sup;
  sup.checkpoint_every = spec_.checkpoint_every;
  sup.registry = &registry_;
  sup.install_signal_handlers = false;
  sup_ = std::make_unique<run::RunSupervisor>(*sim_, *dir_, sup);
  ckpt_handle_ = registry_.stats("run.checkpoint_seconds");
  if (rec_ != nullptr) {
    imbalance_handle_ = registry_.gauge("sweep.imbalance");
    barrier_handle_ = registry_.gauge("sweep.barrier_frac");
  }

  sim_->compute_forces();
  const NeighborBuildStats nb = sim_->neighbor_stats();
  prev_neighbor_s_ = nb.bin_seconds + nb.count_seconds + nb.fill_seconds;
  prev_builds_ = nb.builds;
}

void MdInstance::step() {
  if (rec_ == nullptr) {
    sup_->advance(1);
    ++quanta_;
    return;
  }
  const double t0 = now();
  sup_->advance(1);
  const double t1 = now();
  ++quanta_;

  // The list build runs privately inside the step; its duration comes from
  // the neighbor layer's own clock and is placed just before the partition
  // span that follows every build.
  const NeighborBuildStats nb = sim_->neighbor_stats();
  const double nb_s = nb.bin_seconds + nb.count_seconds + nb.fill_seconds;
  if (nb.builds != prev_builds_) {
    const double dur = nb_s - prev_neighbor_s_;
    const double end = std::max(t0 + dur, rec_->last_start(Span::Partition));
    rec_->record(Span::NeighborBuild, end - dur, end);
  }
  prev_neighbor_s_ = nb_s;
  prev_builds_ = nb.builds;

  // Checkpoint commits run at the end of advance() on the run layer's clock.
  const double ck = registry_.total_stats(ckpt_handle_).sum();
  if (ck != prev_ckpt_s_) rec_->record(Span::Checkpoint, t1 - (ck - prev_ckpt_s_), t1);
  prev_ckpt_s_ = ck;

  // Recorded last, so a step's children precede it in the span list.
  rec_->record(Span::Step, t0, t1);

  imbalance_sum_ += registry_.value(imbalance_handle_);
  barrier_sum_ += registry_.value(barrier_handle_);
  ++sweep_samples_;
}

ExactCounts MdInstance::counts() const {
  ExactCounts c;
  const Simulation& sim = *sim_;
  c.rebuilds = sim.rebuild_count();
  const EamKernelStats& ks = sim.force_computer().stats();
  c.pair_visits = ks.density_pair_visits + ks.force_pair_visits;
  c.barriers = ks.color_sweeps;
  if (const StrategyGovernor* g = sim.governor()) {
    c.governor_swaps = g->demotions() + g->promotions();
  }
  c.checkpoints = sup_->checkpoints_written();
  c.quanta = quanta_;
  c.energy_bits = std::bit_cast<std::uint64_t>(sim.sample().total_energy());
  return c;
}

double MdInstance::imbalance_mean() const {
  return sweep_samples_ > 0 ? imbalance_sum_ / sweep_samples_ : 0.0;
}

double MdInstance::barrier_frac_mean() const {
  return sweep_samples_ > 0 ? barrier_sum_ / sweep_samples_ : 0.0;
}

void MdInstance::reset_sweep_means() {
  imbalance_sum_ = 0.0;
  barrier_sum_ = 0.0;
  sweep_samples_ = 0;
}

LayerSnapshot layer_snapshot(MdInstance& inst) {
  LayerSnapshot s;
  Simulation& sim = inst.sim();
  s.step = sim.current_step();
  for (const PhaseTimers::Entry& e : sim.force_provider().timers().entries()) {
    if (e.name == "density") s.density_s = e.seconds;
    if (e.name == "embed") s.embed_s = e.seconds;
    if (e.name == "force") s.force_s = e.seconds;
  }
  const EamKernelStats& ks = sim.force_computer().stats();
  s.pair_visits = ks.density_pair_visits + ks.force_pair_visits;
  s.barriers = ks.color_sweeps;
  s.neighbor = sim.neighbor_stats();
  s.checkpoints = inst.supervisor().checkpoints_written();
  return s;
}

LayerTable layer_table(const SpanRecorder& rec, long steps) {
  LayerTable t;
  t.steps = steps;
  if (steps <= 0) return t;
  const double per = 1e3 / static_cast<double>(steps);
  t.step_ms = rec.total(Span::Step) * per;
  t.core_ms = (rec.total(Span::Compute) + rec.total(Span::SetStrategy)) * per;
  t.domain_ms = (rec.total(Span::Attach) + rec.total(Span::Partition)) * per;
  t.neighbor_ms = rec.total(Span::NeighborBuild) * per;
  t.thermostat_ms = rec.total(Span::Thermostat) * per;
  t.run_ms = rec.total(Span::Checkpoint) * per;
  t.self_ms = t.step_ms - (t.core_ms + t.domain_ms + t.neighbor_ms +
                           t.thermostat_ms + t.run_ms);
  return t;
}

bool spans_fit_in_steps(const SpanRecorder& rec) {
  // Clock reads of one span and of its step may round apart by this much.
  constexpr double kSlack = 1e-9;
  const std::vector<SpanRecorder::Event>& spans = rec.spans();
  std::size_t first_child = 0;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const SpanRecorder::Event& step = spans[k];
    if (step.kind != Span::Step) continue;
    double children = 0.0;
    for (std::size_t c = first_child; c < k; ++c) {
      if (spans[c].start < step.start - kSlack ||
          spans[c].end > step.end + kSlack) {
        return false;
      }
      children += spans[c].end - spans[c].start;
    }
    if (children > step.end - step.start + kSlack) return false;
    first_child = k + 1;
  }
  return true;
}

namespace {

/// Per-layer metrics of the traced phase between snapshots `a` and `b`.
void layer_metrics(Result& r, MdInstance& inst, const SpanRecorder& rec,
                   const LayerSnapshot& a, const LayerSnapshot& b) {
  Simulation& sim = inst.sim();
  const long steps = b.step - a.step;
  const double s = static_cast<double>(std::max(1L, steps));
  const LayerTable t = layer_table(rec, steps);
  const auto per_call = [](double total_s, std::size_t n) {
    return n > 0 ? total_s * 1e3 / static_cast<double>(n) : 0.0;
  };

  r.metric("md.step_ms", t.step_ms, "ms");
  r.metric("md.self_ms_per_step", t.self_ms, "ms");
  r.metric("md.thermostat_ms_per_step", t.thermostat_ms, "ms");

  const std::size_t builds = b.neighbor.builds - a.neighbor.builds;
  const double bin = b.neighbor.bin_seconds - a.neighbor.bin_seconds;
  const double count = b.neighbor.count_seconds - a.neighbor.count_seconds;
  const double fill = b.neighbor.fill_seconds - a.neighbor.fill_seconds;
  const NeighborList& list = sim.neighbor_list();
  r.metric("neighbor.ms_per_step", t.neighbor_ms, "ms");
  r.metric("neighbor.build_ms", per_call(bin + count + fill, builds), "ms");
  r.metric("neighbor.builds_per_kstep", 1e3 * builds / s, "count");
  r.metric("neighbor.bin_ms", per_call(bin, builds), "ms");
  r.metric("neighbor.count_ms", per_call(count, builds), "ms");
  r.metric("neighbor.fill_ms", per_call(fill, builds), "ms");
  r.metric("neighbor.pairs_per_atom",
           static_cast<double>(list.pair_count()) /
               static_cast<double>(list.atom_count()),
           "count");
  r.metric("neighbor.in_range_frac", in_range_fraction(sim), "ratio");
  r.metric("neighbor.list_mb", list.memory_bytes() / kMiB, "MiB");

  r.metric("domain.ms_per_step", t.domain_ms, "ms");
  r.metric("domain.attach_ms",
           per_call(rec.total(Span::Attach), rec.count(Span::Attach)), "ms");
  r.metric("domain.attaches_per_kstep", 1e3 * rec.count(Span::Attach) / s,
           "count");
  r.metric("domain.partition_ms",
           per_call(rec.total(Span::Partition), rec.count(Span::Partition)),
           "ms");

  const std::size_t visits = b.pair_visits - a.pair_visits;
  r.metric("core.ms_per_step", t.core_ms, "ms");
  r.metric("core.density_ms", (b.density_s - a.density_s) * 1e3 / s, "ms");
  r.metric("core.embed_ms", (b.embed_s - a.embed_s) * 1e3 / s, "ms");
  r.metric("core.force_ms", (b.force_s - a.force_s) * 1e3 / s, "ms");
  r.metric("core.pair_visits_per_step", visits / s, "count");
  r.metric("core.ns_per_pair_visit",
           visits > 0 ? rec.total(Span::Compute) * 1e9 / visits : 0.0, "ns");
  r.metric("core.barriers_per_step", (b.barriers - a.barriers) / s, "count");
  r.metric("core.imbalance", inst.imbalance_mean(), "ratio");
  r.metric("core.barrier_wait_frac", inst.barrier_frac_mean(), "ratio");
  const ExactCounts c = inst.counts();
  r.metric("core.governor_swaps", static_cast<double>(c.governor_swaps),
           "count");
  r.metric("core.pair_cache_mb",
           sim.force_computer().stats().pair_cache_bytes / kMiB, "MiB");

  r.metric("run.checkpoints_per_kstep", 1e3 * (b.checkpoints - a.checkpoints) / s,
           "count");
}

}  // namespace

namespace {

/// The exact-count self-test: kProbeInstances fresh instances, each
/// stepped kProbeSteps. Every one runs the run's seed except the second,
/// which runs another one. Every set-up but the first, which pays the
/// process's cold start, is a set-up sample. Returns the last instance,
/// which goes on to the timed phase.
std::unique_ptr<MdInstance> probe_instances(const MdSpec& spec,
                                            const Options& opt, Result& r,
                                            Samples& samples,
                                            ExactCounts& counts0,
                                            double& e_setup) {
  ExactCounts counts[kProbeInstances];
  std::unique_ptr<MdInstance> inst;
  for (int k = 0; k < kProbeInstances; ++k) {
    const std::string dir = opt.scratch + "/run" + std::to_string(k);
    const double t0 = now();
    inst = std::make_unique<MdInstance>(spec, sample_seed(opt.seed, k), dir,
                                        nullptr);
    if (k > 0) samples.setup_s.push_back(now() - t0);
    e_setup = inst->sim().sample().total_energy();
    for (long i = 0; i < kProbeSteps; ++i) inst->step();
    counts[k] = inst->counts();
    if (k + 1 < kProbeInstances) {
      inst.reset();
      remove_tree(dir);
    }
  }
  bool repeat = true;
  for (int k = 2; k < kProbeInstances; ++k) repeat = repeat && counts[k] == counts[0];
  r.gate("counts.repeat", repeat,
         counts[0].str() + " | " + counts[kProbeInstances - 1].str());
  r.gate("counts.seed_sensitive", !(counts[0] == counts[1]),
         counts[0].str() + " | " + counts[1].str());
  r.note("exact_counts", counts[0].str());
  counts0 = counts[0];
  return inst;
}

/// Forces against a Serial-strategy computer on the same list, energy
/// drift (NVE), health and a final checkpoint. Returns the Serial
/// computer's median compute seconds over `reps` calls.
double final_gates(MdInstance& inst, Result& r, double e_setup, int reps) {
  Simulation& sim = inst.sim();
  sim.compute_forces();
  const Atoms& at = sim.system().atoms();
  const std::size_t n = at.size();
  EamForceConfig serial_cfg;
  serial_cfg.strategy = ReductionStrategy::Serial;
  const FinnisSinclair potential(FinnisSinclairParams::iron());
  EamForceComputer serial(potential, serial_cfg);
  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> force(n);
  const double serial_s = median_seconds(reps, [&] {
    serial.compute(sim.system().box(), at.position, sim.neighbor_list(), rho,
                   fp, force);
  });
  double max_dev = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 d = at.force[i] - force[i];
    max_dev = std::max({max_dev, std::abs(d.x), std::abs(d.y), std::abs(d.z)});
  }
  r.gate("forces.match_serial", max_dev <= kForceTolerance,
         "max |dF| = " + short_num(max_dev) + " eV/A");

  const double drift =
      std::abs(sim.sample().total_energy() - e_setup) / static_cast<double>(n);
  r.note("energy_drift_per_atom", drift);
  if (!inst.spec().npt) {
    r.gate("nve.drift", drift <= kNveDriftPerAtom,
           short_num(drift) + " eV/atom (bound " +
               short_num(kNveDriftPerAtom) + ")");
  }

  HealthMonitor monitor{HealthConfig{}};
  const HealthReport health =
      monitor.check(sim.system(), sim.last_force_result(), sim.current_step(),
                    sim.config().dt, sim.effective_skin());
  const double trips = inst.registry().value(
      inst.registry().counter("guard.health_failures"));
  r.gate("health.no_trip", health.ok() && trips == 0.0,
         health.ok() ? "health_failures=" + std::to_string(trips)
                     : health.summary());

  const bool committed = inst.supervisor().checkpoint_now();
  r.gate("checkpoint.final",
         committed && inst.supervisor().checkpoint_failures() == 0,
         "retries=" + std::to_string(inst.supervisor().checkpoint_retries()));
  return serial_s;
}

}  // namespace

void run_md(const Options& opt, Result& r) {
  const MdSpec spec = md_spec(opt.workload);
  Samples samples;
  ExactCounts counts0;
  double e_setup = 0.0;
  std::unique_ptr<MdInstance> inst =
      probe_instances(spec, opt, r, samples, counts0, e_setup);
  const std::size_t atoms = inst->sim().system().size();
  r.note("atoms", static_cast<double>(atoms));

  // Untraced timed phase (the whole run, or its first half when traced).
  Timed timed;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  for (int k = 0; k < kSegments && timed.error.empty(); ++k) {
    if (k > 0) restart(spec, opt, k, inst, samples, r);
    step_for(*inst, untraced_s / kSegments, timed);
  }
  r.attempted += timed.steps;
  r.gate("timed_phase.no_error", timed.error.empty(), timed.error);
  r.gate("checkpoint.restarts", samples.failed_commits == 0,
         std::to_string(samples.failed_commits) + " commits failed");
  r.gate("resume.continuity", samples.worst_rel <= kContinuityTolerance,
         "worst rel=" + short_num(samples.worst_rel) + " over " +
             std::to_string(samples.resume_ms.size()) + " resumes");
  const double rate = static_cast<double>(atoms) * timed.steps /
                      std::max(timed.wall, 1e-9);

  SpanRecorder rec;
  if (opt.trace) {
    // Traced half on a fresh decorated instance of the same seed: it must
    // reach the untraced instance's exact counts and energy bits.
    inst.reset();
    inst = std::make_unique<MdInstance>(spec, opt.seed,
                                        opt.scratch + "/run_traced", &rec);
    // List builds set-up paid (the Simulation constructor and set_governor
    // each build once), timed on the neighbor layer's clock.
    const NeighborBuildStats setup_nb = inst->sim().neighbor_stats();
    r.note("setup_list_builds", static_cast<double>(setup_nb.builds));
    r.note("setup_list_build_ms", (setup_nb.bin_seconds + setup_nb.count_seconds +
                                   setup_nb.fill_seconds) * 1e3);
    e_setup = inst->sim().sample().total_energy();
    for (long i = 0; i < kProbeSteps; ++i) inst->step();
    const ExactCounts traced = inst->counts();
    r.gate("trace.bitwise_equal", traced == counts0,
           traced.str() + " | " + counts0.str());
    rec.reset();
    inst->reset_sweep_means();
    const LayerSnapshot a = layer_snapshot(*inst);
    Timed t;
    step_for(*inst, opt.seconds / 2, t);
    r.attempted += t.steps;
    r.gate("timed_phase.traced_no_error", t.error.empty(), t.error);
    const LayerSnapshot b = layer_snapshot(*inst);
    const double traced_rate =
        static_cast<double>(atoms) * t.steps / std::max(t.wall, 1e-9);
    layer_metrics(r, *inst, rec, a, b);
    const bool fit = spans_fit_in_steps(rec);
    r.gate("trace.spans_fit_in_step", fit,
           fit ? "" : "a step's child spans outlast it");
    r.metric("trace.overhead_frac", 1.0 - traced_rate / rate, "ratio");
  }

  const double serial_s = final_gates(*inst, r, e_setup, opt.trace ? 3 : 1);
  if (opt.trace) {
    Simulation& sim = inst->sim();
    const Atoms& at = sim.system().atoms();
    std::vector<double> rho(atoms), fp(atoms);
    std::vector<Vec3> force(atoms);
    const double active_s = median_seconds(3, [&] {
      sim.force_computer().compute(sim.system().box(), at.position,
                                   sim.neighbor_list(), rho, fp, force);
    });
    r.metric("core.speedup_vs_serial", serial_s / active_s, "x");
    const std::size_t h = inst->registry().stats("run.checkpoint_seconds");
    r.metric("run.checkpoint_ms",
             inst->registry().total_stats(h).mean() * 1e3, "ms");
    r.metric("run.checkpoint_mb", newest_checkpoint_mb(inst->run_dir()), "MiB");
    r.metric("run.checkpoint_retries",
             static_cast<double>(inst->supervisor().checkpoint_retries()),
             "count");
    r.metric("run.resume_ms", sdcmd::median(samples.resume_ms), "ms");
    if (!opt.trace_out.empty() && !rec.write_chrome_trace(opt.trace_out)) {
      r.note("trace_write_error", opt.trace_out);
    }
  } else {
    r.metric("setup_s", sdcmd::median(samples.setup_s), "s");
    r.metric("atom_steps_per_s", rate, "1/s");
    latency_metrics(r, "advance_ms", timed.step_ms);
  }
  r.note("setup_samples_s", join(samples.setup_s));
  r.note("resume_samples_ms", join(samples.resume_ms));
  r.note("timed_steps", static_cast<double>(timed.steps));
  r.note("timed_wall_s", timed.wall);
}

}  // namespace perfbench
