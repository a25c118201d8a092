// Pair-potential force evaluation under the same reduction strategies.
//
// The paper notes SDC "can be applied in MD simulations with other
// potentials"; this type demonstrates it, and doubles as the baseline for
// the Section I workload claim (EAM ~ 2x the pair-potential computation:
// bench_eam_vs_pair). One computational phase instead of EAM's three, run
// in the shell every force computer shares (core/reduction_engine.hpp), so
// every strategy is available here too.
#pragma once

#include <span>

#include "common/vec3.hpp"
#include "core/reduction_engine.hpp"
#include "neighbor/neighbor_list.hpp"
#include "potential/potential.hpp"

namespace sdcmd {

/// The schedule lifecycle, strategy swap, config() and timers() (one
/// "force" phase) come from ReductionEngine.
class PairForceComputer : public ReductionEngine {
 public:
  PairForceComputer(const PairPotential& potential, EamForceConfig config);

  /// Forces into `force` (overwritten); the result's embedding energy is 0.
  EamForceResult compute(const Box& box, std::span<const Vec3> positions,
                         const NeighborList& list, std::span<Vec3> force);

  const PairPotential& potential() const { return potential_; }

 private:
  const PairPotential& potential_;
};

}  // namespace sdcmd
