// EAM row bodies for the kernel skeleton (skeleton.hpp): the per-atom
// physics of the three phases, each written once and run under every
// strategy's shape and protection.
//
//  * EamDensityRow / EamForceRow - the paper's Figs. 1-2 inner loops over
//    atom i's neighbor row. On a half list each pair is visited once and
//    its j-side update goes through the protection (Section II.D: density
//    counted for both partners, Newton's third law in the force loop); on
//    RC's full list the gather protection drops the j side.
//    kCached: the density row records each pair's minimum-image geometry
//    and density-spline slope at its CSR slot, and the force row replays
//    them - no minimum image, sqrt, cutoff test or second density spline
//    (r < 0 marks pairs beyond the cutoff). Half-list strategies run
//    cached; the uncached rows are the serial reference
//    (compute_serial_reference) and RC's scalar gather, whose two visits of
//    a pair sit at different slots.
//  * RcSoaDensityRow / RcSoaForceRow - RC's gather rows in SIMD form
//    (eam_soa.hpp), used when the full list carries padded tiles and the
//    potential packed spline tables.
//  * EmbedRow / SoaEmbedBlock - phase 2, per atom, no scatter.
//
// Force rows accumulate the pair energy and virial of every pair they
// visit; on a full list the caller halves the totals.
//
// Splines: when EamArgs.tables is set (tabulated potentials) the rows
// evaluate the flattened spline tables inline; analytic potentials keep
// the EamPotential virtual calls.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "common/vec3.hpp"
#include "core/detail/eam_soa.hpp"
#include "geom/box.hpp"
#include "neighbor/neighbor_list.hpp"
#include "potential/potential.hpp"

namespace sdcmd::detail {

/// Profiler phase indices (match the phase names EamForceComputer
/// configures its profiler with).
inline constexpr int kProfPhaseDensity = 0;
inline constexpr int kProfPhaseEmbed = 1;
inline constexpr int kProfPhaseForce = 2;

/// Borrowed per-pair cache storage, indexed by CSR slot.
struct PairCacheRefs {
  Vec3* dr = nullptr;        ///< minimum-image x_i - x_j
  double* r = nullptr;       ///< |dr|; < 0 marks a cutoff-rejected pair
  double* dphidr = nullptr;  ///< density-spline derivative at r
};

struct EamArgs {
  const Box& box;
  std::span<const Vec3> x;
  const NeighborList& list;
  const EamPotential& pot;
  double cutoff2;  ///< squared potential cutoff (list range is wider)
  /// Flattened spline tables for inline evaluation; null -> virtual calls.
  const EamSplineTables* tables = nullptr;
  PairCacheRefs cache;  ///< required by the cached rows
};

/// Minimum-image pair geometry; returns false when beyond the cutoff.
struct PairGeom {
  Vec3 dr;   ///< x_i - x_j (minimum image)
  double r;  ///< |dr|
};

inline bool pair_geometry(const Box& box, const Vec3& xi, const Vec3& xj,
                          double cutoff2, PairGeom& out) {
  out.dr = box.minimum_image(xi, xj);
  const double r2 = norm2(out.dr);
  if (r2 >= cutoff2) return false;
  out.r = std::sqrt(r2);
  return true;
}

inline void eval_density(const EamArgs& a, double r, double& phi,
                         double& dphidr) {
  if (a.tables != nullptr) {
    a.tables->density.evaluate(r, phi, dphidr);
  } else {
    a.pot.density(r, phi, dphidr);
  }
}

inline void eval_pair(const EamArgs& a, double r, double& v, double& dvdr) {
  if (a.tables != nullptr) {
    a.tables->pair.evaluate(r, v, dvdr);
  } else {
    a.pot.pair(r, v, dvdr);
  }
}

inline void eval_embed(const EamArgs& a, double rho_i, double& f,
                       double& dfdrho) {
  if (a.tables != nullptr) {
    a.tables->embed.evaluate(rho_i, f, dfdrho);
  } else {
    a.pot.embed(rho_i, f, dfdrho);
  }
}

// --- phase 1: electron density ----------------------------------------------

template <bool kCached>
struct EamDensityRow {
  const EamArgs& args;

  template <class S>
  void operator()(std::size_t i, S s) const {
    const EamArgs& a = args;  // a register, not a member reload per pair
    const Vec3 xi = a.x[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = a.list.neigh_index()[i];
    double rho_i = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      PairGeom g;
      if (!pair_geometry(a.box, xi, a.x[j], a.cutoff2, g)) {
        if constexpr (kCached) a.cache.r[base + k] = -1.0;
        continue;
      }
      double phi, dphidr;
      eval_density(a, g.r, phi, dphidr);
      if constexpr (kCached) {
        a.cache.dr[base + k] = g.dr;
        a.cache.r[base + k] = g.r;
        a.cache.dphidr[base + k] = dphidr;
      }
      // Single species: phi_ij == phi_ji, one evaluation feeds both atoms.
      rho_i += phi;
      if constexpr (S::kScatters) s.add(j, phi);
    }
    s.add(i, rho_i);
  }
};

struct RcSoaDensityRow {
  const SoaView& v;
  double cutoff2;

  template <class S>
  void operator()(std::size_t i, S s) const {
    s.add(i, soa_rc_density_atom(v, cutoff2, i));
  }
};

// --- phase 2: embedding -----------------------------------------------------

struct EmbedRow {
  const EamArgs& args;
  const double* rho;
  double* fp;
  double energy = 0.0;

  void operator()(std::size_t i) {
    double f, dfdrho;
    eval_embed(args, rho[i], f, dfdrho);
    fp[i] = dfdrho;
    energy += f;
  }
};

/// Embedding over block b of kSoaChunk atoms through the packed spline.
struct SoaEmbedBlock {
  const PackedSplineView& spline;
  std::size_t n;
  const double* rho;
  double* fp;
  double energy = 0.0;

  void operator()(std::size_t b) {
    const std::size_t begin = b * kSoaChunk;
    energy += soa_embed_range(spline, rho, fp, begin,
                              std::min(n, begin + kSoaChunk));
  }
};

// --- phase 3: forces --------------------------------------------------------

template <bool kCached>
struct EamForceRow {
  const EamArgs& args;
  const double* fp_array;  ///< F'(rho) per atom
  double energy = 0.0;
  double virial = 0.0;

  template <class S>
  void operator()(std::size_t i, S s) {
    // Locals, not members: members live in memory, which the scatter
    // stores and virtual potential calls would force to reload per pair.
    const EamArgs& a = args;
    const double* fp = fp_array;
    double e = energy, w = virial;
    const Vec3 xi = a.x[i];
    const double fp_i = fp[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = a.list.neigh_index()[i];
    Vec3 f_i{};
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      Vec3 dr;
      double r, dphidr;
      if constexpr (kCached) {
        r = a.cache.r[base + k];
        if (r < 0.0) continue;  // rejected by the density phase
        dr = a.cache.dr[base + k];
        dphidr = a.cache.dphidr[base + k];
      } else {
        PairGeom g;
        if (!pair_geometry(a.box, xi, a.x[j], a.cutoff2, g)) continue;
        dr = g.dr;
        r = g.r;
        double phi;
        eval_density(a, r, phi, dphidr);
      }
      double v, dvdr;
      eval_pair(a, r, v, dvdr);
      // dE/dr_ij = V'(r) + (F'(rho_i) + F'(rho_j)) phi'(r)   [paper eq. (2)]
      const double fpair = -(dvdr + (fp_i + fp[j]) * dphidr) / r;
      const Vec3 fv = fpair * dr;
      f_i += fv;
      if constexpr (S::kScatters) s.add(j, -fv);  // Newton's third law
      e += v;
      w += fpair * r * r;
    }
    s.add(i, f_i);
    energy = e;
    virial = w;
  }
};

struct RcSoaForceRow {
  const SoaView& v;
  double cutoff2;
  const double* fp;
  double energy = 0.0;
  double virial = 0.0;

  template <class S>
  void operator()(std::size_t i, S s) {
    SoaForceOut o;
    soa_rc_force_atom(v, cutoff2, fp, fp[i], i, o);
    s.add(i, Vec3{o.fx, o.fy, o.fz});
    energy += o.energy;
    virial += o.virial;
  }
};

}  // namespace sdcmd::detail
