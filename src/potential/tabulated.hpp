// Spline-tabulated EAM potential.
//
// Production MD codes evaluate EAM from tables (DYNAMO/LAMMPS setfl files);
// the XMD code underlying the paper does the same. TabulatedEam stores the
// three EAM functions on uniform grids and interpolates with cubic splines,
// and can be built either from raw tables (a parsed setfl file) or by
// sampling any analytic EamPotential.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "potential/cubic_spline.hpp"
#include "potential/potential.hpp"

namespace sdcmd {

struct EamTables {
  std::string label;        ///< element / provenance tag
  double dr = 0.0;          ///< radial grid spacing (grid starts at r = 0)
  double drho = 0.0;        ///< density grid spacing (grid starts at rho = 0)
  double cutoff = 0.0;      ///< interaction range
  std::vector<double> pair;     ///< V(i * dr); stored as plain V, not r*V
  std::vector<double> density;  ///< phi(i * dr)
  std::vector<double> embed;    ///< F(i * drho)

  /// Header metadata carried through setfl round trips.
  int atomic_number = 26;
  double mass = 55.845;
  double lattice_constant = 2.8665;
  std::string structure = "bcc";
};

/// The evaluation bodies (and CubicSpline::evaluate beneath them) are
/// defined in headers and always inlined, as FinnisSinclair's are, so the
/// EAM force rows, which take this type through visit_eam
/// (potential/eam_visit.hpp), make no call per pair.
class TabulatedEam final : public EamPotential {
 public:
  explicit TabulatedEam(EamTables tables);

  /// Sample `source` on `nr` radial / `nrho` density points. `rho_max` sets
  /// the embedding grid range; pick comfortably above the densest expected
  /// environment.
  static TabulatedEam from_analytic(const EamPotential& source,
                                    std::size_t nr, std::size_t nrho,
                                    double rho_max);

  double cutoff() const override { return tables_.cutoff; }

  [[gnu::always_inline]] void pair(double r, double& energy,
                                   double& dvdr) const override {
    if (r >= tables_.cutoff) {
      energy = 0.0;
      dvdr = 0.0;
      return;
    }
    pair_spline_.evaluate(r, energy, dvdr);
  }

  [[gnu::always_inline]] void density(double r, double& phi,
                                      double& dphidr) const override {
    if (r >= tables_.cutoff) {
      phi = 0.0;
      dphidr = 0.0;
      return;
    }
    density_spline_.evaluate(r, phi, dphidr);
  }

  [[gnu::always_inline]] void embed(double rho, double& f,
                                    double& dfdrho) const override {
    embed_spline_.evaluate(rho, f, dfdrho);
  }

  std::string name() const override { return "tabulated-" + tables_.label; }

  const EamTables& tables() const { return tables_; }

 private:
  EamTables tables_;
  CubicSpline pair_spline_;
  CubicSpline density_spline_;
  CubicSpline embed_spline_;
};

}  // namespace sdcmd
