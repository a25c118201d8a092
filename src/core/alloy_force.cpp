#include "core/alloy_force.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/detail/skeleton.hpp"

namespace sdcmd {

namespace {

struct AlloyArgs {
  std::span<const Vec3> x;
  std::span<const std::uint8_t> types;
  const NeighborList& list;
  const AlloyEamPotential& pot;
  double cutoff2;
};

/// Phase 1 row body (see skeleton.hpp): atom i gathers phi_{t_j} from its
/// row; on a half list each pair also hands i's donation phi_{t_i} to j
/// through the protection (the two differ when the species do).
struct AlloyDensityRow {
  const AlloyArgs& args;

  template <class S>
  void operator()(std::size_t i, S s) const {
    const AlloyArgs& a = args;
    const Vec3 xi = a.x[i];
    const int ti = a.types[i];
    const auto nbrs = a.list.neighbors(i);
    const auto images = a.list.images(i);
    double rho_i = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      const Vec3 dr = a.list.displacement(xi, a.x[j], images[k]);
      const double r2 = norm2(dr);
      if (r2 >= a.cutoff2) continue;
      const double r = std::sqrt(r2);
      double phi, dphi;
      a.pot.density(a.types[j], r, phi, dphi);  // j donates to i
      rho_i += phi;
      if constexpr (S::kScatters) {
        a.pot.density(ti, r, phi, dphi);  // i donates to j
        s.add(j, phi);
      }
    }
    s.add(i, rho_i);
  }
};

/// Phase 2, per atom: F_{t_i}(rho_i), no scatter.
struct AlloyEmbedRow {
  const AlloyArgs& args;
  const double* rho;
  double* fp;
  double energy = 0.0;

  void operator()(std::size_t i) {
    double f, dfdrho;
    args.pot.embed(args.types[i], rho[i], f, dfdrho);
    fp[i] = dfdrho;
    energy += f;
  }
};

/// Phase 3 row body: pair forces with the species cross terms, the j side
/// through the protection (Newton's third law). Accumulates the pair
/// energy and virial of every pair it visits.
struct AlloyForceRow {
  const AlloyArgs& args;
  const double* fp_array;
  double energy = 0.0;
  double virial = 0.0;

  template <class S>
  void operator()(std::size_t i, S s) {
    const AlloyArgs& a = args;
    const double* fp = fp_array;
    double e = energy, w = virial;  // locals stay in registers
    const Vec3 xi = a.x[i];
    const int ti = a.types[i];
    const double fp_i = fp[i];
    const auto nbrs = a.list.neighbors(i);
    const auto images = a.list.images(i);
    Vec3 f_i{};
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      const Vec3 dr = a.list.displacement(xi, a.x[j], images[k]);
      const double r2 = norm2(dr);
      if (r2 >= a.cutoff2) continue;
      const double r = std::sqrt(r2);
      const int tj = a.types[j];
      double v, dvdr, phi_i, dphi_i, phi_j, dphi_j;
      a.pot.pair(ti, tj, r, v, dvdr);
      a.pot.density(ti, r, phi_i, dphi_i);  // i's donation (felt by j)
      a.pot.density(tj, r, phi_j, dphi_j);  // j's donation (felt by i)
      const double fpair = -(dvdr + fp_i * dphi_j + fp[j] * dphi_i) / r;
      const Vec3 fv = fpair * dr;
      f_i += fv;
      if constexpr (S::kScatters) s.add(j, -fv);
      e += v;
      w += fpair * r2;
    }
    s.add(i, f_i);
    energy = e;
    virial = w;
  }
};

}  // namespace

AlloyForceComputer::AlloyForceComputer(const AlloyEamPotential& potential,
                                       EamForceConfig config)
    : ReductionEngine(config, /*embeds=*/true), potential_(potential) {}

EamForceResult AlloyForceComputer::compute(
    const Box& box, std::span<const Vec3> positions,
    std::span<const std::uint8_t> types, const NeighborList& list,
    std::span<double> rho, std::span<double> fp, std::span<Vec3> force) {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(types.size() == n, "types must match the atom count");
  SDCMD_REQUIRE(rho.size() == n && fp.size() == n && force.size() == n,
                "output arrays must match the atom count");
  const int ns = potential_.species_count();
  for (std::uint8_t t : types) {
    SDCMD_REQUIRE(t < ns, "species index out of range");
  }
  prepare(box, list, n, potential_.cutoff());

  const double cutoff = potential_.cutoff();
  const AlloyArgs args{positions, types, list, potential_, cutoff * cutoff};
  return run_phases(rho, fp, force, AlloyDensityRow{args},
                    AlloyEmbedRow{args, rho.data(), fp.data()},
                    AlloyForceRow{args, fp.data()});
}

}  // namespace sdcmd
