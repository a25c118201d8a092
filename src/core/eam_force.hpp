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
// under the strategy chosen at construction, in the shell every force
// computer shares (core/reduction_engine.hpp). Per-phase wall time and exact
// work counters are recorded so benches can report both the paper's timings
// and the mechanism-level evidence (RC doing 2x the pair visits, SAP's
// thread-linear memory, ...).
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "common/vec3.hpp"
#include "core/reduction_engine.hpp"
#include "neighbor/neighbor_list.hpp"
#include "obs/perf_counters.hpp"
#include "obs/sweep_profile.hpp"
#include "potential/potential.hpp"

namespace sdcmd {

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
};

/// The schedule lifecycle, strategy swap, config() and timers() come from
/// ReductionEngine.
class EamForceComputer : public ReductionEngine {
 public:
  EamForceComputer(const EamPotential& potential, EamForceConfig config);
  ~EamForceComputer();

  /// Evaluate densities, embedding and forces. `list.mode()` must match
  /// required_mode(strategy). Outputs:
  ///   rho[i]   - electron density (phase 1)
  ///   fp[i]    - dF/drho at rho[i] (phase 2)
  ///   force[i] - total EAM force (phase 3; overwritten, not accumulated)
  EamForceResult compute(const Box& box, std::span<const Vec3> positions,
                         const NeighborList& list, std::span<double> rho,
                         std::span<double> fp, std::span<Vec3> force);

  const EamPotential& potential() const { return potential_; }

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

  /// Single-threaded reference evaluation into caller-owned scratch, used
  /// by the governor's periodic shadow validation and the conformance
  /// suite: the uncached scalar rows, evaluating the potential through the
  /// same type as compute(), no timers/stats/profiler mutation. `list`
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

  const EamPotential& potential_;
  std::unique_ptr<PairCache> cache_;
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
