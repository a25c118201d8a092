// Three-phase EAM force evaluation with pluggable irregular-reduction
// strategies (the paper's Section II.C).
//
// compute() runs the paper's phases in order:
//   1. density   : rho_i = sum_j phi(r_ij)            [irregular reduction]
//   2. embedding : F(rho_i), fp_i = dF/drho, E_embed  [embarrassingly parallel]
//   3. force     : f_i -= (V' + (fp_i + fp_j) phi') r_ij / r
//                                                     [irregular reduction]
// Phases 1 and 3 scatter through the half neighbor list (except under
// RedundantComputation, which gathers through a full list), and each runs
// under the strategy chosen at construction, through the shared kernel
// skeleton (core/detail/skeleton.hpp). Per-phase wall time and exact
// work counters are recorded so benches can report both the paper's timings
// and the mechanism-level evidence (RC doing 2x the pair visits, SAP's
// thread-linear memory, ...).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "common/vec3.hpp"
#include "core/cell_task_schedule.hpp"
#include "core/sdc_schedule.hpp"
#include "core/strategy.hpp"
#include "neighbor/neighbor_list.hpp"
#include "obs/perf_counters.hpp"
#include "obs/sweep_profile.hpp"
#include "potential/potential.hpp"

namespace sdcmd {

struct EamForceResult {
  double pair_energy = 0.0;       ///< sum of V over pairs
  double embedding_energy = 0.0;  ///< sum of F(rho_i)
  double virial = 0.0;            ///< sum over pairs of r_ij . f_ij

  double total_energy() const { return pair_energy + embedding_energy; }
};

/// Exact (not sampled) work accounting for one compute() call.
struct EamKernelStats {
  std::size_t density_pair_visits = 0;  ///< neighbor-list entries walked
  std::size_t force_pair_visits = 0;
  std::size_t scatter_updates = 0;      ///< writes to rho[j] / force[j]
  std::size_t color_sweeps = 0;         ///< SDC barriers taken
  std::size_t private_array_bytes = 0;  ///< SAP replication footprint
  std::size_t cache_store_slots = 0;    ///< pair-cache slots written (phase 1)
  std::size_t cache_read_slots = 0;     ///< pair-cache slots read (phase 3)
  std::size_t pair_cache_bytes = 0;     ///< high-water pair-cache footprint
  std::size_t soa_steps = 0;            ///< compute() calls on the SoA path
  /// Tile-padding overhead of the SoA path at the last compute():
  /// padded slots / real pairs - 1 (0 when the path is inactive).
  double soa_pad_fraction = 0.0;
  // CellTask work-stealing accounting (0 unless the strategy is CellTask).
  std::size_t task_spawned = 0;         ///< block tasks run (both phases)
  std::size_t task_steals = 0;          ///< of those, claimed from a foreign queue
  std::size_t task_max_queue_depth = 0; ///< longest initial per-thread queue
  /// Per-thread busy fraction over the two scatter phases at the last
  /// compute(): each thread's kernel seconds divided by the slowest
  /// thread's (1.0 = perfectly balanced; 0 when the shape is inactive).
  double task_busy_min = 0.0;
  double task_busy_mean = 0.0;
};

struct EamForceConfig {
  ReductionStrategy strategy = ReductionStrategy::Sdc;
  SdcConfig sdc;  ///< used when strategy == Sdc
};

namespace detail {
class ReductionEngine;
}

class EamForceComputer {
 public:
  EamForceComputer(const EamPotential& potential, EamForceConfig config);
  ~EamForceComputer();

  EamForceComputer(const EamForceComputer&) = delete;
  EamForceComputer& operator=(const EamForceComputer&) = delete;

  /// Build the strategy's spatial schedule for `box`: the SDC
  /// decomposition/coloring under Sdc, the cell-task block grid + per-block
  /// lock pool under CellTask; a no-op otherwise. Required before compute()
  /// for both scheduled strategies. `interaction_range` must be >=
  /// potential cutoff + neighbor skin.
  void attach_schedule(const Box& box, double interaction_range);

  /// Re-partition atoms over subdomains/blocks; call after every
  /// neighbor-list rebuild (the paper rebuilds SDC state exactly then).
  /// No-op for unscheduled strategies.
  void on_neighbor_rebuild(std::span<const Vec3> positions);

  /// Evaluate densities, embedding and forces. `list.mode()` must match
  /// required_mode(strategy). Outputs:
  ///   rho[i]   - electron density (phase 1)
  ///   fp[i]    - dF/drho at rho[i] (phase 2)
  ///   force[i] - total EAM force (phase 3; overwritten, not accumulated)
  EamForceResult compute(const Box& box, std::span<const Vec3> positions,
                         const NeighborList& list, std::span<double> rho,
                         std::span<double> fp, std::span<Vec3> force);

  /// Hot-swap the reduction strategy mid-run (the StrategyGovernor's
  /// degradation ladder). Allocates the new strategy's workspace (SAP
  /// replicas, lock pool) on the next compute() and drops a stale SDC
  /// schedule / cell-task grid when leaving Sdc / CellTask; the pair cache
  /// and fused one-region pipeline carry over untouched. The caller must
  /// re-run attach_schedule + on_neighbor_rebuild before the next compute()
  /// when swapping TO Sdc or CellTask. No-op when `strategy` is already
  /// active.
  /// Throws PreconditionError on a swap that changes the required
  /// neighbor-list mode (to or from RedundantComputation) - the ladder
  /// never does that.
  void set_strategy(ReductionStrategy strategy);

  const EamForceConfig& config() const { return config_; }
  const EamPotential& potential() const { return potential_; }

  /// Tile pad width the neighbor list must be built with for compute() to
  /// take the SoA fast path: the SIMD vector width under RC with a
  /// potential that has packed spline tables, else 0. compute() takes the
  /// SoA path exactly when the full list it is given carries padded tiles
  /// and the tables are there. Stable across governor hot-swaps (the
  /// ladder never crosses the RC mode boundary).
  int neighbor_pad_width() const;

  /// Wall time per phase ("density", "embed", "force"), cumulative.
  PhaseTimers& timers() { return timers_; }
  const EamKernelStats& stats() const { return stats_; }
  void reset_instrumentation();

  /// Per-thread x per-color span profiler for the SDC sweep (and the embed
  /// phase). Disabled by default; enable with
  /// `sweep_profiler().set_enabled(true)` - compute() then shapes it to the
  /// current schedule/thread count, clocks every (phase, color, thread)
  /// span, and leaves the step's samples readable until the next compute().
  obs::SdcSweepProfiler& sweep_profiler() { return profiler_; }
  const obs::SdcSweepProfiler& sweep_profiler() const { return profiler_; }

  /// Per-thread hardware counters (perf_event_open) over the same three
  /// phase boundaries: each thread reads its own counter group at the
  /// barriers that already end the density/embed/force kernels, so the
  /// kernels themselves stay untouched. `set_enabled(true)` is refused when
  /// the syscall is unavailable (non-Linux, perf_event_paranoid) and the
  /// profiler degrades to a no-op costing one branch per phase.
  obs::PerfPhaseProfiler& hw_profiler() { return hw_profiler_; }
  const obs::PerfPhaseProfiler& hw_profiler() const { return hw_profiler_; }

  /// The SDC schedule, or nullptr for non-SDC strategies.
  const SdcSchedule* schedule() const;

  /// The cell-task block grid, or nullptr for non-CellTask strategies.
  const CellTaskSchedule* task_schedule() const;

  /// Single-threaded reference evaluation into caller-owned scratch, used
  /// by the governor's periodic shadow validation and the conformance
  /// suite: the uncached scalar rows with the same spline tables as
  /// compute(), no timers/stats/profiler mutation. `list`
  /// must be a half list (every ladder strategy's mode, so the active
  /// list can be shared).
  EamForceResult compute_serial_reference(const Box& box,
                                          std::span<const Vec3> positions,
                                          const NeighborList& list,
                                          std::span<double> rho,
                                          std::span<double> fp,
                                          std::span<Vec3> force) const;

 private:
  struct PairCache;
  struct SoaWorkspace;

  /// Inline spline tables of the potential, or null (analytic potentials).
  const EamSplineTables* spline_tables() const;

  const EamPotential& potential_;
  EamForceConfig config_;
  std::unique_ptr<detail::ReductionEngine> engine_;
  std::unique_ptr<PairCache> cache_;
  std::unique_ptr<SoaWorkspace> soa_;  ///< allocated on first SoA compute()
  // Per-thread partial sums for the fused parallel pipeline (indexed by
  // omp thread id; summed in thread order for deterministic totals).
  std::vector<double> embed_parts_;
  std::vector<double> energy_parts_;
  std::vector<double> virial_parts_;
  PhaseTimers timers_;
  // Interned PhaseTimers handles: the per-step lap path never compares
  // strings.
  std::size_t t_density_;
  std::size_t t_embed_;
  std::size_t t_force_;
  EamKernelStats stats_;
  obs::SdcSweepProfiler profiler_;
  // Shape the profiler saw at its last configure(); compute() re-runs the
  // (string-building) configure only when this changes.
  int prof_colors_ = -1;
  int prof_threads_ = -1;
  obs::PerfPhaseProfiler hw_profiler_;
  int hw_threads_ = -1;  ///< thread count at the last hw configure()
};

}  // namespace sdcmd
