// Per-atom virial stress tensors for EAM systems.
//
// sigma_i = -(1/Omega_i) [ m v_i (x) v_i
//                          + 1/2 sum_j f_ij (x) r_ij ]        (eV / A^3)
//
// where f_ij is the full EAM pair force (pair + embedding coupling, using
// the fp = dF/drho values from the density/embedding phases) and Omega_i
// the per-atom volume (V/N here; Voronoi volumes are overkill for the
// micro-deformation workloads). The per-atom sum reproduces the global
// virial exactly, which the test suite asserts against the force engine.
//
// The scatter to j makes this the same irregular-reduction shape as the
// force loop, so its pair row runs on the kernel skeleton's SDC color
// sweep (core/detail/skeleton.hpp).
#pragma once

#include <array>
#include <span>

#include "common/vec3.hpp"
#include "core/sdc_schedule.hpp"
#include "neighbor/neighbor_list.hpp"
#include "potential/potential.hpp"

namespace sdcmd {

/// Symmetric 3x3 tensor in Voigt-like component order.
struct StressTensor {
  double xx = 0.0, yy = 0.0, zz = 0.0;
  double xy = 0.0, xz = 0.0, yz = 0.0;

  StressTensor& operator+=(const StressTensor& o);
  /// Mean normal stress; -trace/3 is the pressure contribution.
  double hydrostatic() const { return (xx + yy + zz) / 3.0; }
  /// Von Mises equivalent (deviatoric magnitude), for plasticity onset.
  double von_mises() const;
};

class PerAtomStress {
 public:
  /// The caller provides the fp = dF/drho values from a prior
  /// EamForceComputer::compute (phase 2 output).
  explicit PerAtomStress(const EamPotential& potential);

  /// Compute per-atom stress tensors (eV/A^3, tension negative) into
  /// `out` (resized). Needs a half neighbor list built for these atoms
  /// and covering the potential cutoff. When `schedule` is non-null and
  /// built, the scatter runs SDC-parallel; otherwise serial. Velocities
  /// may be empty to skip the kinetic term.
  void compute(const Box& box, std::span<const Vec3> positions,
               std::span<const Vec3> velocities, double mass,
               const NeighborList& list, std::span<const double> fp,
               std::vector<StressTensor>& out,
               const SdcSchedule* schedule = nullptr) const;

  /// Sum of per-atom virials: trace/3 equals the force engine's virial/3V
  /// contribution to pressure. Exposed for validation.
  static StressTensor total(const std::vector<StressTensor>& stresses);

 private:
  const EamPotential& potential_;
};

}  // namespace sdcmd
