// Three-phase EAM force evaluation for multi-species (alloy) systems.
//
// Same phase structure as EamForceComputer but with species-resolved
// functions: rho_i sums phi_{t_j}(r), the embedding uses F_{t_i}, and the
// pair force carries the asymmetric cross terms
//   dE/dr = V'_{ab} + F'_a(rho_i) phi'_b(r) + F'_b(rho_j) phi'_a(r).
//
// The density and force rows run through the kernel skeleton
// (core/detail/skeleton.hpp) in one fused parallel region, so every
// reduction strategy is available: RC gathers over a full list, the others
// scatter over a half list. SingleSpeciesAlloy + equivalence tests pin this
// engine to the single-species results.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "common/vec3.hpp"
#include "core/sdc_schedule.hpp"
#include "core/strategy.hpp"
#include "neighbor/neighbor_list.hpp"
#include "potential/alloy.hpp"

namespace sdcmd {

namespace detail {
class ReductionEngine;
}

struct AlloyForceResult {
  double pair_energy = 0.0;
  double embedding_energy = 0.0;
  double virial = 0.0;
  double total_energy() const { return pair_energy + embedding_energy; }
};

struct AlloyForceConfig {
  ReductionStrategy strategy = ReductionStrategy::Sdc;
  SdcConfig sdc;
};

class AlloyForceComputer {
 public:
  AlloyForceComputer(const AlloyEamPotential& potential,
                     AlloyForceConfig config);
  ~AlloyForceComputer();

  /// See EamForceComputer: required for Sdc and CellTask before compute().
  void attach_schedule(const Box& box, double interaction_range);
  void on_neighbor_rebuild(std::span<const Vec3> positions);

  /// `types[i]` must be < potential.species_count(). The list mode must
  /// match the strategy (required_mode).
  AlloyForceResult compute(const Box& box, std::span<const Vec3> positions,
                           std::span<const std::uint8_t> types,
                           const NeighborList& list, std::span<double> rho,
                           std::span<double> fp, std::span<Vec3> force);

  PhaseTimers& timers() { return timers_; }
  const SdcSchedule* schedule() const;
  const AlloyEamPotential& potential() const { return potential_; }

 private:
  const AlloyEamPotential& potential_;
  AlloyForceConfig config_;
  std::unique_ptr<detail::ReductionEngine> engine_;
  // Per-thread energy/virial partials, summed in thread order.
  std::vector<double> embed_parts_;
  std::vector<double> energy_parts_;
  std::vector<double> virial_parts_;
  PhaseTimers timers_;
  std::size_t t_density_;  ///< interned timer handles, see PhaseTimers
  std::size_t t_embed_;
  std::size_t t_force_;
};

}  // namespace sdcmd
