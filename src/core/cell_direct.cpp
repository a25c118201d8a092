#include "core/cell_direct.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/detail/eam_kernels.hpp"

namespace sdcmd {

namespace {

/// Apply `f(i, j, geom)` to every distinct pair within the cutoff, each
/// pair exactly once, by sweeping each cell against itself and the 13
/// "upper half" stencil neighbors.
template <typename PairFn>
void for_each_pair(const Box& box, const CellList& cells,
                   std::span<const Vec3> x, double cutoff2, PairFn&& f) {
  // Half stencil: offsets lexicographically greater than (0,0,0).
  static constexpr int kHalf[13][3] = {
      {1, -1, -1}, {1, -1, 0}, {1, -1, 1}, {1, 0, -1}, {1, 0, 0},
      {1, 0, 1},   {1, 1, -1}, {1, 1, 0},  {1, 1, 1},  {0, 1, -1},
      {0, 1, 0},   {0, 1, 1},  {0, 0, 1}};

  const int nx = cells.nx(), ny = cells.ny(), nz = cells.nz();
  auto flat = [&](int ix, int iy, int iz) {
    return (static_cast<std::size_t>(ix) * ny + iy) * nz + iz;
  };

  detail::PairGeom geom;
  for (int ix = 0; ix < nx; ++ix) {
    for (int iy = 0; iy < ny; ++iy) {
      for (int iz = 0; iz < nz; ++iz) {
        const auto home = cells.atoms_in(flat(ix, iy, iz));
        // Pairs within the home cell.
        for (std::size_t a = 0; a < home.size(); ++a) {
          for (std::size_t b = a + 1; b < home.size(); ++b) {
            if (detail::pair_geometry(box, x[home[a]], x[home[b]], cutoff2,
                                      geom)) {
              f(home[a], home[b], geom);
            }
          }
        }
        // Pairs against the upper-half stencil.
        for (const auto& offset : kHalf) {
          int jx = ix + offset[0], jy = iy + offset[1], jz = iz + offset[2];
          bool valid = true;
          int idx[3] = {jx, jy, jz};
          const int dims[3] = {nx, ny, nz};
          for (int d = 0; d < 3; ++d) {
            if (idx[d] < 0 || idx[d] >= dims[d]) {
              if (box.periodic(d)) {
                idx[d] = (idx[d] + dims[d]) % dims[d];
              } else {
                valid = false;
                break;
              }
            }
          }
          if (!valid) continue;
          const auto other = cells.atoms_in(flat(idx[0], idx[1], idx[2]));
          for (std::uint32_t i : home) {
            for (std::uint32_t j : other) {
              if (detail::pair_geometry(box, x[i], x[j], cutoff2, geom)) {
                f(i, j, geom);
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

EamForceResult eam_cell_direct(const Box& box,
                               std::span<const Vec3> positions,
                               const EamPotential& potential,
                               std::span<double> rho, std::span<double> fp,
                               std::span<Vec3> force) {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(rho.size() == n && fp.size() == n && force.size() == n,
                "output arrays must match the atom count");

  CellList cells(box, potential.cutoff());
  for (int d = 0; d < 3; ++d) {
    if (box.periodic(d)) {
      const int count = d == 0 ? cells.nx() : (d == 1 ? cells.ny()
                                                      : cells.nz());
      SDCMD_REQUIRE(count >= 3,
                    "cell-direct sweep needs >= 3 cells per periodic "
                    "dimension; use the Verlet-list path for small boxes");
    }
  }
  cells.build(positions);

  const double cutoff2 = potential.cutoff() * potential.cutoff();
  std::fill(rho.begin(), rho.end(), 0.0);
  std::fill(force.begin(), force.end(), Vec3{});

  // Phase 1: densities.
  for_each_pair(box, cells, positions, cutoff2,
                [&](std::uint32_t i, std::uint32_t j,
                    const detail::PairGeom& g) {
                  double phi, dphi;
                  potential.density(g.r, phi, dphi);
                  rho[i] += phi;
                  rho[j] += phi;
                });

  // Phase 2: embedding.
  EamForceResult result;
  for (std::size_t i = 0; i < rho.size(); ++i) {
    double f, dfdrho;
    potential.embed(rho[i], f, dfdrho);
    fp[i] = dfdrho;
    result.embedding_energy += f;
  }

  // Phase 3: forces.
  double energy = 0.0, virial = 0.0;
  for_each_pair(box, cells, positions, cutoff2,
                [&](std::uint32_t i, std::uint32_t j,
                    const detail::PairGeom& g) {
                  double v, dvdr, phi, dphi;
                  potential.pair(g.r, v, dvdr);
                  potential.density(g.r, phi, dphi);
                  const double fpair =
                      -(dvdr + (fp[i] + fp[j]) * dphi) / g.r;
                  const Vec3 fv = fpair * g.dr;
                  force[i] += fv;
                  force[j] -= fv;
                  energy += v;
                  virial += fpair * g.r * g.r;
                });
  result.pair_energy = energy;
  result.virial = virial;
  return result;
}

}  // namespace sdcmd
