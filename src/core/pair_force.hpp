// Pair-potential force evaluation under the same reduction strategies.
//
// The paper notes SDC "can be applied in MD simulations with other
// potentials"; this type demonstrates it, and doubles as the baseline for
// the Section I workload claim (EAM ~ 2x the pair-potential computation:
// bench_eam_vs_pair). One computational phase instead of EAM's three, run
// through the same kernel skeleton (core/detail/skeleton.hpp), so every
// strategy - CellTask included - is available here too.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "common/vec3.hpp"
#include "core/sdc_schedule.hpp"
#include "core/strategy.hpp"
#include "neighbor/neighbor_list.hpp"
#include "potential/potential.hpp"

namespace sdcmd {

namespace detail {
class ReductionEngine;
}

struct PairForceResult {
  double energy = 0.0;
  double virial = 0.0;
};

struct PairForceConfig {
  ReductionStrategy strategy = ReductionStrategy::Sdc;
  SdcConfig sdc;
};

class PairForceComputer {
 public:
  PairForceComputer(const PairPotential& potential, PairForceConfig config);
  ~PairForceComputer();

  PairForceComputer(const PairForceComputer&) = delete;
  PairForceComputer& operator=(const PairForceComputer&) = delete;

  /// See EamForceComputer: required for Sdc and CellTask before compute().
  void attach_schedule(const Box& box, double interaction_range);
  void on_neighbor_rebuild(std::span<const Vec3> positions);

  PairForceResult compute(const Box& box, std::span<const Vec3> positions,
                          const NeighborList& list, std::span<Vec3> force);

  /// Hot-swap the reduction strategy (see EamForceComputer::set_strategy).
  /// Workspaces are allocated lazily in compute(), so this only swaps the
  /// config and drops a stale schedule; re-run attach_schedule +
  /// on_neighbor_rebuild before the next compute() when swapping TO Sdc or
  /// CellTask.
  void set_strategy(ReductionStrategy strategy);

  const PairForceConfig& config() const { return config_; }
  PhaseTimers& timers() { return timers_; }
  const SdcSchedule* schedule() const;

 private:
  const PairPotential& potential_;
  PairForceConfig config_;
  std::unique_ptr<detail::ReductionEngine> engine_;
  // Per-thread energy/virial partials, summed in thread order.
  std::vector<double> energy_parts_;
  std::vector<double> virial_parts_;
  PhaseTimers timers_;
  std::size_t t_force_;  ///< interned timer handle, see PhaseTimers
};

}  // namespace sdcmd
