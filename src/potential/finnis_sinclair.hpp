// Finnis-Sinclair-type analytic EAM for bcc transition metals.
//
// The paper's workload is bcc iron with an EAM potential (XMD's Fe tables).
// We use the classic Finnis-Sinclair functional forms (Philos. Mag. A 50,
// 45 (1984)), which are the canonical analytic EAM for bcc Fe:
//
//   pair      V(r)   = (r - c)^2 (c0 + c1 r + c2 r^2)      for r < c
//   density   phi(r) = (r - d)^2 + beta (r - d)^3 / d      for r < d
//   embedding F(rho) = -A sqrt(rho)
//
// Both radial functions and their first derivatives vanish at their cutoffs,
// so forces are continuous without extra smoothing. The parallelization
// study only depends on the cutoff structure and neighbor counts, not on
// chemical accuracy; physics invariants (Newton's third law, energy
// conservation, force = -grad E) are enforced by the test suite.
#pragma once

#include <cmath>
#include <string>

#include "potential/potential.hpp"

namespace sdcmd {

struct FinnisSinclairParams {
  double c;     ///< pair cutoff (angstrom)
  double c0;    ///< pair polynomial coefficients (eV / A^2, eV / A^3, ...)
  double c1;
  double c2;
  double d;     ///< density cutoff (angstrom)
  double beta;  ///< cubic density correction (dimensionless)
  double a;     ///< embedding amplitude A (eV)
  std::string label;

  /// Finnis & Sinclair's 1984 parameterization for alpha-iron.
  static FinnisSinclairParams iron();

  /// A softer, shorter-ranged parameter set used by tests that want small
  /// neighbor lists; not fitted to any element.
  static FinnisSinclairParams test_metal();
};

/// The evaluation bodies are defined in the class, and always inlined, so
/// the EAM force rows, which take this type through visit_eam
/// (potential/eam_visit.hpp), make no call per pair. (The rows are
/// instantiated for every strategy and potential type; without the
/// attribute GCC's unit-growth limit leaves some calls out of line.)
class FinnisSinclair final : public EamPotential {
 public:
  explicit FinnisSinclair(FinnisSinclairParams params);

  double cutoff() const override { return cutoff_; }

  [[gnu::always_inline]] void pair(double r, double& energy,
                                   double& dvdr) const override {
    if (r >= p_.c) {
      energy = 0.0;
      dvdr = 0.0;
      return;
    }
    const double t = r - p_.c;
    const double poly = p_.c0 + r * (p_.c1 + r * p_.c2);
    const double dpoly = p_.c1 + 2.0 * p_.c2 * r;
    energy = t * t * poly;
    dvdr = 2.0 * t * poly + t * t * dpoly;
  }

  [[gnu::always_inline]] void density(double r, double& phi,
                                      double& dphidr) const override {
    if (r >= p_.d) {
      phi = 0.0;
      dphidr = 0.0;
      return;
    }
    const double t = r - p_.d;
    phi = t * t + beta_over_d_ * t * t * t;
    dphidr = 2.0 * t + three_beta_over_d_ * t * t;
  }

  [[gnu::always_inline]] void embed(double rho, double& f,
                                    double& dfdrho) const override {
    if (rho <= 0.0) {
      // Isolated atom: F(0) = 0; clamp the square-root singularity in the
      // derivative so integrators never see NaN when an atom drifts out of
      // range of every neighbor.
      f = 0.0;
      dfdrho = 0.0;
      return;
    }
    const double s = std::sqrt(rho);
    f = -p_.a * s;
    dfdrho = -0.5 * p_.a / s;
  }

  std::string name() const override;

  const FinnisSinclairParams& params() const { return p_; }

 private:
  FinnisSinclairParams p_;
  double cutoff_;
  // beta / d and 3 beta / d, so a density evaluation divides nowhere.
  double beta_over_d_;
  double three_beta_over_d_;
};

}  // namespace sdcmd
