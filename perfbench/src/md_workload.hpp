// The two MD batch workloads (fe54k_nve, void48k_npt): a supervised
// Simulation set up as sdcmd-run sets it up (governor, registry, checkpoint
// ring), stepped one RunSupervisor::advance(1) at a time and restarted from
// its checkpoint the way `sdcmd-run --resume` restarts it, optionally
// traced from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "potential/finnis_sinclair.hpp"
#include "report.hpp"
#include "run/run_dir.hpp"
#include "run/supervisor.hpp"
#include "spans.hpp"

namespace perfbench {

struct MdSpec {
  int cells = 30;  ///< bcc Fe cells per box edge
  /// Radius of the carved spherical void as a fraction of the box edge
  /// (0 = homogeneous crystal).
  double void_fraction = 0.0;
  double temperature = 300.0;  ///< initial (and NPT target) temperature, K
  /// NPT: Berendsen thermostat, Berendsen barostat every 10 steps and the
  /// default guardrails (Throw policy). Otherwise plain NVE.
  bool npt = false;
  /// RunSupervisor checkpoint cadence (steps).
  long checkpoint_every = 500;
};

/// The named workloads; throws sdcmd::Error for an unknown name.
MdSpec md_spec(const std::string& workload);

/// Counts that a deterministic run repeats exactly for one seed.
struct ExactCounts {
  std::size_t rebuilds = 0;
  std::size_t pair_visits = 0;
  std::size_t barriers = 0;
  long governor_swaps = 0;
  long checkpoints = 0;
  long quanta = 0;
  std::uint64_t energy_bits = 0;  ///< bit pattern of the total energy

  bool operator==(const ExactCounts&) const = default;
  std::string str() const;
};

/// One supervised simulation, ready to step.
class MdInstance {
 public:
  /// A fresh run from the lattice. `recorder` non-null builds the traced
  /// variant: the force backend and thermostat are wrapped in forwarding
  /// decorators and the sweep profiler is on. `run_dir` must not hold
  /// another run's checkpoints.
  MdInstance(const MdSpec& spec, std::uint64_t seed, const std::string& run_dir,
             SpanRecorder* recorder);
  /// The run in `run_dir` resumed from its newest provable ring generation,
  /// as `sdcmd-run --resume` resumes it. Throws sdcmd::Error when there is
  /// no provable resume point.
  MdInstance(const MdSpec& spec, const std::string& run_dir);
  MdInstance(const MdInstance&) = delete;
  MdInstance& operator=(const MdInstance&) = delete;

  /// One step through RunSupervisor::advance(1).
  void step();

  ExactCounts counts() const;

  /// |E(resumed) - E(checkpointed)| / max(1, |E|) proved by the resume
  /// constructor (0 for a fresh run).
  double continuity_rel() const { return continuity_rel_; }

  sdcmd::Simulation& sim() { return *sim_; }
  sdcmd::run::RunSupervisor& supervisor() { return *sup_; }
  sdcmd::obs::MetricsRegistry& registry() { return registry_; }
  const MdSpec& spec() const { return spec_; }
  const std::string& run_dir() const { return dir_->path(); }

  /// Mean of the per-step sweep.imbalance / sweep.barrier_frac gauges over
  /// traced steps since the last reset_sweep_means().
  double imbalance_mean() const;
  double barrier_frac_mean() const;
  void reset_sweep_means();

 private:
  /// Set-up shared by both constructors once the Simulation exists.
  void finish_setup(const std::string& run_dir, bool resumed);

  MdSpec spec_;
  sdcmd::FinnisSinclair potential_;
  sdcmd::obs::MetricsRegistry registry_;
  SpanRecorder* rec_;
  std::unique_ptr<sdcmd::Simulation> sim_;
  std::unique_ptr<sdcmd::run::RunDir> dir_;
  std::unique_ptr<sdcmd::run::RunSupervisor> sup_;
  long quanta_ = 0;
  double continuity_rel_ = 0.0;
  // Layer-clock bookkeeping for the traced variant.
  std::size_t ckpt_handle_ = 0;
  double prev_neighbor_s_ = 0.0;
  std::size_t prev_builds_ = 0;
  double prev_ckpt_s_ = 0.0;
  std::size_t imbalance_handle_ = 0;
  std::size_t barrier_handle_ = 0;
  double imbalance_sum_ = 0.0;
  double barrier_sum_ = 0.0;
  long sweep_samples_ = 0;
};

/// Cumulative layer counters at one instant; per-layer numbers are
/// differences of two snapshots divided by the steps between them.
struct LayerSnapshot {
  long step = 0;
  double density_s = 0.0;
  double embed_s = 0.0;
  double force_s = 0.0;
  std::size_t pair_visits = 0;
  std::size_t barriers = 0;
  sdcmd::NeighborBuildStats neighbor;
  long checkpoints = 0;
};

LayerSnapshot layer_snapshot(MdInstance& inst);

/// Per-step time of each layer over a traced phase. md.self is the step
/// time no child span covers.
struct LayerTable {
  long steps = 0;
  double step_ms = 0.0;
  double core_ms = 0.0;     ///< compute + set_strategy spans
  double domain_ms = 0.0;   ///< attach_schedule + on_neighbor_rebuild spans
  double neighbor_ms = 0.0; ///< neighbor build (layer clock)
  double thermostat_ms = 0.0;
  double run_ms = 0.0;      ///< checkpoint commits (layer clock)
  double self_ms = 0.0;
};

LayerTable layer_table(const SpanRecorder& rec, long steps);

/// True when, for every step span, each child span recorded since the
/// previous step lies inside it and the children's durations add up to no
/// more than the step's own.
bool spans_fit_in_steps(const SpanRecorder& rec);

/// Run a whole MD workload (exact-count self-test, timed phase with its
/// set-up and resume samples, gates) and fill `result`.
void run_md(const Options& opt, Result& result);

}  // namespace perfbench
