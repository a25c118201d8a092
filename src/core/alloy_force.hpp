// Three-phase EAM force evaluation for multi-species (alloy) systems.
//
// Same phase structure as EamForceComputer but with species-resolved
// functions: rho_i sums phi_{t_j}(r), the embedding uses F_{t_i}, and the
// pair force carries the asymmetric cross terms
//   dE/dr = V'_{ab} + F'_a(rho_i) phi'_b(r) + F'_b(rho_j) phi'_a(r).
//
// The density and force rows run in the shell every force computer shares
// (core/reduction_engine.hpp), in one fused parallel region, so every
// reduction strategy is available: RC gathers over a full list, the others
// scatter over a half list. SingleSpeciesAlloy + equivalence tests pin this
// engine to the single-species results.
#pragma once

#include <cstdint>
#include <span>

#include "common/vec3.hpp"
#include "core/reduction_engine.hpp"
#include "neighbor/neighbor_list.hpp"
#include "potential/alloy.hpp"

namespace sdcmd {

/// The schedule lifecycle, strategy swap, config() and timers() come from
/// ReductionEngine.
class AlloyForceComputer : public ReductionEngine {
 public:
  AlloyForceComputer(const AlloyEamPotential& potential,
                     EamForceConfig config);

  /// `types[i]` must be < potential.species_count(). The list mode must
  /// match the strategy (required_mode).
  EamForceResult compute(const Box& box, std::span<const Vec3> positions,
                         std::span<const std::uint8_t> types,
                         const NeighborList& list, std::span<double> rho,
                         std::span<double> fp, std::span<Vec3> force);

  const AlloyEamPotential& potential() const { return potential_; }

 private:
  const AlloyEamPotential& potential_;
};

}  // namespace sdcmd
