// Potential interfaces.
//
// Two families, mirroring the paper's Section I comparison:
//
//  * PairPotential - the classic "one computational phase" short-range
//    model (Lennard-Jones, Morse). Energy is a sum over pairs.
//
//  * EamPotential - the embedded atom method (Daw & Baskes), the paper's
//    subject. Energy is
//        E = sum_i F(rho_i) + 1/2 sum_{i != j} V(r_ij),
//        rho_i = sum_{j != i} phi(r_ij)                     [paper eq. (1)]
//    and force evaluation runs in the three phases the paper describes:
//    density accumulation, embedding evaluation, force accumulation
//    [paper eq. (2)].
//
// All evaluate methods return the value and the radial derivative in one
// call: the force kernels always need both, and splitting them would double
// the table lookups in the tabulated implementation.
#pragma once

#include <string>

namespace sdcmd {

/// A radially symmetric pair interaction, valid for r in (0, cutoff].
class PairPotential {
 public:
  virtual ~PairPotential() = default;

  /// Interaction range; pairs beyond it contribute nothing.
  virtual double cutoff() const = 0;

  /// Pair energy V(r) and derivative dV/dr at separation r <= cutoff.
  virtual void evaluate(double r, double& energy, double& dvdr) const = 0;

  virtual std::string name() const = 0;
};

/// Single-species embedded atom method potential.
class EamPotential {
 public:
  virtual ~EamPotential() = default;

  /// Range of both the pair term and the density function: neighbor lists
  /// built with this cutoff see every interacting pair.
  virtual double cutoff() const = 0;

  /// Pair term V(r) and dV/dr.
  virtual void pair(double r, double& energy, double& dvdr) const = 0;

  /// Density contribution phi(r) and d(phi)/dr one neighbor at distance r
  /// donates to the host atom's electron density.
  virtual void density(double r, double& phi, double& dphidr) const = 0;

  /// Embedding energy F(rho) and dF/drho.
  virtual void embed(double rho, double& f, double& dfdrho) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace sdcmd
