#include "potential/tabulated.hpp"

#include "common/error.hpp"

namespace sdcmd {

namespace {

EamTables validated(EamTables t) {
  SDCMD_REQUIRE(t.dr > 0.0, "radial grid spacing must be positive");
  SDCMD_REQUIRE(t.drho > 0.0, "density grid spacing must be positive");
  SDCMD_REQUIRE(t.pair.size() >= 2, "pair table too short");
  SDCMD_REQUIRE(t.density.size() >= 2, "density table too short");
  SDCMD_REQUIRE(t.embed.size() >= 2, "embedding table too short");
  SDCMD_REQUIRE(t.cutoff > 0.0, "cutoff must be positive");
  return t;
}

}  // namespace

TabulatedEam::TabulatedEam(EamTables tables)
    : tables_(validated(std::move(tables))),
      pair_spline_(0.0, tables_.dr, tables_.pair),
      density_spline_(0.0, tables_.dr, tables_.density),
      embed_spline_(0.0, tables_.drho, tables_.embed) {}

TabulatedEam TabulatedEam::from_analytic(const EamPotential& source,
                                         std::size_t nr, std::size_t nrho,
                                         double rho_max) {
  SDCMD_REQUIRE(nr >= 2 && nrho >= 2, "need at least two samples per grid");
  SDCMD_REQUIRE(rho_max > 0.0, "rho_max must be positive");

  EamTables t;
  t.label = source.name();
  t.cutoff = source.cutoff();
  t.dr = t.cutoff / static_cast<double>(nr - 1);
  t.drho = rho_max / static_cast<double>(nrho - 1);
  t.pair.resize(nr);
  t.density.resize(nr);
  t.embed.resize(nrho);

  double unused;
  for (std::size_t i = 0; i < nr; ++i) {
    // Analytic pair forms may diverge at r = 0; start the first sample a
    // hair inside the grid. No physical pair ever lands there.
    const double r = i == 0 ? 1e-6 : t.dr * static_cast<double>(i);
    source.pair(r, t.pair[i], unused);
    source.density(r, t.density[i], unused);
  }
  for (std::size_t i = 0; i < nrho; ++i) {
    source.embed(t.drho * static_cast<double>(i), t.embed[i], unused);
  }
  return TabulatedEam(std::move(t));
}

}  // namespace sdcmd
