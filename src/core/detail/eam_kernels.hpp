// EAM row bodies for the kernel skeleton (skeleton.hpp): the per-atom
// physics of the three phases, each written once and run under every
// strategy's shape and protection.
//
//  * EamDensityRow / EamForceRow - the paper's Figs. 1-2 inner loops over
//    atom i's neighbor row. On a half list each pair is visited once and
//    its j-side update goes through the protection (Section II.D: density
//    counted for both partners, Newton's third law in the force loop); on
//    RC's full list the gather protection drops the j side.
//    Every row takes a pair's displacement from the image code the list
//    stored for it (NeighborList::displacement), with no minimum image.
//    kCached: the density row records each pair's distance and
//    density-spline slope at its CSR slot (16 B), and the force row
//    replays them - no sqrt, cutoff test or second density spline (r < 0
//    marks pairs beyond the cutoff) - rebuilding the displacement with
//    the expression the density row evaluated, so it is bitwise the same.
//    Half-list strategies run cached; the uncached rows are the serial
//    reference (compute_serial_reference) and RC's gather, whose two
//    visits of a pair sit at different slots.
//  * EmbedRow - phase 2, per atom, no scatter.
//
// Force rows accumulate the pair energy and virial of every pair they
// visit; on a full list the caller halves the totals.
//
// The scalar rows are templates on the potential type `Pot` they evaluate
// through. The caller picks it once per force call with visit_eam
// (potential/eam_visit.hpp): FinnisSinclair and TabulatedEam inline their
// pair/density/embed bodies into the rows; with Pot = EamPotential every
// evaluation is a virtual call. Both give the same bits: the rows pass
// every value a body returns through as_returned(), and eam_force.cpp is
// built without SLP vectorization (see src/core/CMakeLists.txt).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "common/vec3.hpp"
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
  double* r = nullptr;       ///< |dr|; < 0 marks a cutoff-rejected pair
  double* dphidr = nullptr;  ///< density-spline derivative at r
};

struct EamArgs {
  std::span<const Vec3> x;
  const NeighborList& list;
  double cutoff2;  ///< squared potential cutoff (list range is wider)
  PairCacheRefs cache;  ///< required by the cached rows
};

/// Hides `v` from the optimizer as a call's result is hidden. With FMA
/// contraction on (-march=native), GCC would otherwise fuse the last
/// product of an inlined body (FinnisSinclair's pair energy t*t*poly, its
/// embedding energy -A*sqrt(rho)) into the row's running sum, and an
/// inlined potential would no longer give the bits of the same body
/// called through the vtable. Emits no instruction.
inline void as_returned(double& v) {
#if defined(__x86_64__) || defined(__i386__)
  asm("" : "+x"(v));
#elif defined(__aarch64__)
  asm("" : "+w"(v));
#else
  asm volatile("" : "+m"(v));
#endif
}

/// Both values a potential body returns.
inline void as_returned(double& value, double& derivative) {
  as_returned(value);
  as_returned(derivative);
}

/// Pair geometry through the pair's stored image code; returns false when
/// beyond the cutoff.
struct PairGeom {
  Vec3 dr;   ///< x_i - x_j (the list's image)
  double r;  ///< |dr|
};

inline bool pair_geometry(const NeighborList& list, const Vec3& xi,
                          const Vec3& xj, std::uint8_t image, double cutoff2,
                          PairGeom& out) {
  out.dr = list.displacement(xi, xj, image);
  const double r2 = norm2(out.dr);
  if (r2 >= cutoff2) return false;
  out.r = std::sqrt(r2);
  return true;
}

// --- phase 1: electron density ----------------------------------------------

template <bool kCached, class Pot>
struct EamDensityRow {
  const EamArgs& args;
  const Pot& pot;

  template <class S>
  void operator()(std::size_t i, S s) const {
    // Registers, not member reloads per pair.
    const EamArgs& a = args;
    const Pot& p = pot;
    const Vec3 xi = a.x[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = a.list.neigh_index()[i];
    const auto images = a.list.images(i);
    double rho_i = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      PairGeom g;
      if (!pair_geometry(a.list, xi, a.x[j], images[k], a.cutoff2, g)) {
        if constexpr (kCached) a.cache.r[base + k] = -1.0;
        continue;
      }
      double phi, dphidr;
      p.density(g.r, phi, dphidr);
      as_returned(phi, dphidr);
      if constexpr (kCached) {
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

// --- phase 2: embedding -----------------------------------------------------

template <class Pot>
struct EmbedRow {
  const Pot& pot;
  const double* rho;
  double* fp;
  double energy = 0.0;

  void operator()(std::size_t i) {
    double f, dfdrho;
    pot.embed(rho[i], f, dfdrho);
    as_returned(f, dfdrho);
    fp[i] = dfdrho;
    energy += f;
  }
};

// --- phase 3: forces --------------------------------------------------------

template <bool kCached, class Pot>
struct EamForceRow {
  const EamArgs& args;
  const Pot& pot;
  const double* fp_array;  ///< F'(rho) per atom
  double energy = 0.0;
  double virial = 0.0;

  template <class S>
  void operator()(std::size_t i, S s) {
    // Locals, not members: members live in memory, which the scatter
    // stores and virtual potential calls would force to reload per pair.
    const EamArgs& a = args;
    const Pot& p = pot;
    const double* fp = fp_array;
    double e = energy, w = virial;
    const Vec3 xi = a.x[i];
    const double fp_i = fp[i];
    const auto nbrs = a.list.neighbors(i);
    const std::size_t base = a.list.neigh_index()[i];
    const auto images = a.list.images(i);
    Vec3 f_i{};
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      Vec3 dr;
      double r, dphidr;
      if constexpr (kCached) {
        r = a.cache.r[base + k];
        if (r < 0.0) continue;  // rejected by the density phase
        // The density row's expression: bitwise its displacement.
        dr = a.list.displacement(xi, a.x[j], images[k]);
        dphidr = a.cache.dphidr[base + k];
      } else {
        PairGeom g;
        if (!pair_geometry(a.list, xi, a.x[j], images[k], a.cutoff2, g)) {
          continue;
        }
        dr = g.dr;
        r = g.r;
        double phi;
        p.density(r, phi, dphidr);
        as_returned(phi, dphidr);
      }
      double v, dvdr;
      p.pair(r, v, dvdr);
      as_returned(v, dvdr);
      // dE/dr_ij = V'(r) + (F'(rho_i) + F'(rho_j)) phi'(r)   [paper eq. (2)]
      const double fpair = -(dvdr + (fp_i + fp[j]) * dphidr) / r;
      const Vec3 fv = fpair * dr;
      f_i += fv;
      if constexpr (S::kScatters) s.add(j, -fv);  // Newton's third law
      e += v;
      // Rounded before the sum, so the virial stays bitwise what the rows
      // gave before the potential bodies were inlined.
      double w_pair = fpair * r * r;
      as_returned(w_pair);
      w += w_pair;
    }
    s.add(i, f_i);
    energy = e;
    virial = w;
  }
};

}  // namespace sdcmd::detail
