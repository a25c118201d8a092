// The shell every force call runs its rows in (the paper's Section II.C
// strategies, for any short-range potential).
//
// The EAM, pair and alloy computers derive from ReductionEngine and keep
// only their potential and their rows. The engine holds what a call needs
// around them:
//
//  * the neighbor-list contract (require_list), checked before any
//    parallel region opens;
//  * the team: one thread under Serial, otherwise max_threads();
//  * the per-thread energy and virial partials, summed in thread order;
//  * the one-region phase pipeline: zeroing, then density -> embed ->
//    force for an embedded-atom potential, or force alone for a pair
//    potential, each phase closed by a barrier and clocked by the master
//    into timers();
//  * the strategy's schedule lifecycle and scratch (SDC schedule, lock
//    stripes, SAP replicas).
//
// The row-facing half (prepare, run_phases) is a protected interface;
// run_phases and the shapes beneath it are templates defined in
// core/detail/skeleton.hpp, which each computer's translation unit
// includes.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "common/vec3.hpp"
#include "core/sdc_schedule.hpp"
#include "core/strategy.hpp"
#include "neighbor/neighbor_list.hpp"

namespace sdcmd {

namespace obs {
class SdcSweepProfiler;
class PerfPhaseProfiler;
}  // namespace obs

class LockPool;

/// Energies and virial of one force call, for every computer: a pair
/// potential reports zero embedding energy.
struct EamForceResult {
  double pair_energy = 0.0;       ///< sum of V over pairs
  double embedding_energy = 0.0;  ///< sum of F(rho_i)
  double virial = 0.0;            ///< sum over pairs of r_ij . f_ij

  double total_energy() const { return pair_energy + embedding_energy; }
};

/// Every computer's configuration.
struct EamForceConfig {
  ReductionStrategy strategy = ReductionStrategy::Sdc;
  SdcConfig sdc;  ///< used when strategy == Sdc
};

/// The neighbor-list contract of every force call (and of PerAtomStress):
/// the list holds a row for each of the `n` atoms and no more, walks in
/// `mode`, covers `cutoff`, and was built for `box` - its rows shift each
/// pair by that box's edges, so a list moved with update_box() and not
/// rebuilt is refused too. Throws PreconditionError.
void require_list(const Box& box, const NeighborList& list, std::size_t n,
                  NeighborMode mode, double cutoff);

class ReductionEngine {
 public:
  ReductionEngine(const ReductionEngine&) = delete;
  ReductionEngine& operator=(const ReductionEngine&) = delete;

  /// Build the strategy's spatial schedule for `box`: the SDC
  /// decomposition/coloring under Sdc; a no-op otherwise. Required before
  /// compute() under Sdc. `interaction_range` must be >= potential cutoff
  /// + neighbor skin.
  void attach_schedule(const Box& box, double interaction_range);

  /// Re-partition atoms over subdomains; call after every neighbor-list
  /// rebuild (the paper rebuilds SDC state exactly then). No-op for
  /// unscheduled strategies.
  void on_neighbor_rebuild(std::span<const Vec3> positions);

  /// Hot-swap the reduction strategy mid-run (the StrategyGovernor's
  /// degradation ladder). The new strategy's scratch (SAP replicas, lock
  /// pool) is allocated on the next compute(), and a stale SDC schedule is
  /// dropped when leaving Sdc; everything else carries over. The caller
  /// must re-run attach_schedule + on_neighbor_rebuild before the next
  /// compute() when swapping TO Sdc. No-op when `strategy` is already
  /// active. Throws PreconditionError on a swap that changes the required
  /// neighbor-list mode (to or from RedundantComputation) - the ladder
  /// never does that - and on a retired strategy, which the constructor
  /// refuses too.
  void set_strategy(ReductionStrategy strategy);

  const EamForceConfig& config() const { return config_; }
  /// The SDC schedule, or nullptr for non-SDC strategies.
  const SdcSchedule* schedule() const { return schedule_.get(); }
  /// Wall time per phase, cumulative: "density", "embed" and "force" for
  /// an embedded-atom potential, "force" alone for a pair potential.
  PhaseTimers& timers() { return timers_; }

 protected:
  /// `embeds`: the rows have density and embed phases. Throws
  /// PreconditionError for a retired strategy (one not in kAllStrategies):
  /// no shape or protection remains for it.
  ReductionEngine(EamForceConfig config, bool embeds);
  ~ReductionEngine();

  /// Serial, before the region: the list contract for `n` atoms at
  /// `cutoff`, the schedule's readiness, then the team and the scratch
  /// and partial slots it needs. Returns the team size requested.
  int prepare(const Box& box, const NeighborList& list, std::size_t n,
              double cutoff);

  /// Stands in for the density and embed rows of a pair potential.
  struct NoRow {};

  /// The one-region pipeline over the `n` atoms of the last prepare():
  /// zero the outputs, run `density` into rho, `embed` over every atom
  /// (rho -> fp), and `forces` into force, then sum the partials. Scatter
  /// rows run under the active strategy; with kGatherOnly they run only
  /// under RC's gather shape. Optional profilers clock each phase per
  /// thread. Defined in core/detail/skeleton.hpp.
  template <bool kGatherOnly = false, class Density, class Embed,
            class Force>
  EamForceResult run_phases(std::span<double> rho, std::span<double> fp,
                            std::span<Vec3> force, Density density,
                            Embed embed, Force forces,
                            obs::SdcSweepProfiler* prof = nullptr,
                            obs::PerfPhaseProfiler* hw = nullptr);

  /// Bytes held by SAP replicas (0 unless SAP has run).
  std::size_t replica_bytes() const;

 private:
  template <class T, class Body>
  void run(int phase, T* out, Body& body);
  template <class T, class Body>
  void gather(int phase, T* out, Body& body);
  template <class T>
  std::vector<std::vector<T>>& replicas();

  /// Partials of the first `team` threads in thread order: deterministic
  /// for a fixed team size (unlike an OpenMP reduction's arrival order).
  /// Full lists visit every pair from both sides, so their pair sums are
  /// halved.
  EamForceResult sum(int team) const;

  EamForceConfig config_;
  std::unique_ptr<SdcSchedule> schedule_;
  std::unique_ptr<LockPool> stripes_;
  std::vector<std::vector<double>> sap_scalar_;
  std::vector<std::vector<Vec3>> sap_vec_;
  // Per-thread partial sums, indexed by OpenMP thread id. Three arrays,
  // not one array of triples: with triples, GCC 12 dropped the FMA in the
  // pair row's virial sum (most likely SLP-packing the row's two
  // accumulators for the adjacent stores), which moved the virial's bits.
  std::vector<double> embed_parts_;
  std::vector<double> pair_parts_;
  std::vector<double> virial_parts_;
  std::size_t n_ = 0;
  int team_request_ = 1;
  obs::SdcSweepProfiler* prof_ = nullptr;
  PhaseTimers timers_;
  // Interned PhaseTimers handles: the per-step lap path never compares
  // strings. t_density_ and t_embed_ stay unset for a pair potential.
  std::size_t t_density_ = 0;
  std::size_t t_embed_ = 0;
  std::size_t t_force_ = 0;
};

}  // namespace sdcmd
