// Structure-of-arrays fast path for RC's full-list gathers and the
// embedding phase.
//
// The scalar rows walk CSR neighbor lists with Vec3/minimum-image
// arithmetic and early-exit cutoff branches - shapes the compiler cannot
// turn into packed AVX2/AVX-512 code. This header provides the SIMD
// formulation:
//
//  * positions live in separate x/y/z arrays (the SoA mirror owned by
//    EamForceComputer, refreshed inside the fused region every step);
//  * each atom's neighbors come as a padded tile (NeighborList::pad_width):
//    a block whose length is a multiple of the vector width, tail slots
//    holding the sentinel index atom_count(). Inner loops run the whole
//    block branch-free; sentinel/out-of-range lanes are disarmed by
//    *selects* (masked blends), never by control flow;
//  * minimum image is branchless: dx -= L * nearbyint(dx * (1/L)) with
//    L = 0 on non-periodic dims, so every lane does the same arithmetic;
//  * splines evaluate through the interval-indexed PackedSplineView: per
//    lane one index computation plus a contiguous 4-coefficient load
//    (gathered across lanes), Horner form for FMA.
//
// Only gathers take this path: a full-list row writes nothing but its own
// atom, so the whole tile sweep is one SIMD reduction. Half-list scatter
// rows were measured slower here (short tiles pad ~45 % and the Newton's
// third-law scatter stays scalar; see EXPERIMENTS.md) and were removed.
//
// Numerical contract: lane arithmetic follows the scalar rows' Horner
// forms and image choice, so SoA and scalar agree to a few ulps
// (reduction order), far inside the 1e-12 the conformance suite and the
// governor's shadow checks pin.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "potential/cubic_spline.hpp"

namespace sdcmd::detail {

/// Vector width the padded tiles are rounded to: 8 doubles fills one
/// AVX-512 register and two AVX2 registers, so one constant serves both.
inline constexpr int kSoaPadWidth = 8;

/// Atoms per SIMD embedding block (a multiple of kSoaPadWidth, so every
/// full block's trip count is a multiple of the vector width).
inline constexpr std::size_t kSoaChunk = 128;

/// Borrowed pointers for one compute() call's SoA fast path.
struct SoaView {
  const double* x = nullptr;  ///< n+1 slots; slot n backs the sentinel
  const double* y = nullptr;
  const double* z = nullptr;
  const std::size_t* tile_index = nullptr;   ///< n+1 padded-block offsets
  const std::uint32_t* tiles = nullptr;      ///< padded neighbor ids
  std::uint32_t sent = 0;                    ///< sentinel id (= atom count)
  // Branchless minimum image: edge length and its reciprocal per periodic
  // dimension, both zero on free dimensions (nearbyint(dx * 0) == 0).
  double lx = 0.0, ly = 0.0, lz = 0.0;
  double ilx = 0.0, ily = 0.0, ilz = 0.0;
  PackedSplineView density;
  PackedSplineView pair;
  PackedSplineView embed;
};

struct SoaForceOut {
  double fx = 0.0, fy = 0.0, fz = 0.0;  ///< force on atom i
  double energy = 0.0;                  ///< pair-energy partial sum
  double virial = 0.0;
};

/// RC (full-list) density gather for atom i: no scatter, no cache - a pure
/// SIMD reduction over the padded tile.
inline double soa_rc_density_atom(const SoaView& s, double cutoff2,
                                  std::size_t i) {
  const double* __restrict xs = s.x;
  const double* __restrict ys = s.y;
  const double* __restrict zs = s.z;
  const double xi = xs[i], yi = ys[i], zi = zs[i];
  const double lx = s.lx, ly = s.ly, lz = s.lz;
  const double ilx = s.ilx, ily = s.ily, ilz = s.ilz;
  const std::uint32_t sent = s.sent;
  const double* __restrict coef = s.density.coef;
  const double sx0 = s.density.x0;
  const double sdx = s.density.dx;
  const double slast = static_cast<double>(s.density.segments - 1);
  const std::uint32_t* __restrict jl = s.tiles;
  const std::size_t begin = s.tile_index[i];
  const std::size_t end = s.tile_index[i + 1];
  double rho_i = 0.0;
#pragma omp simd reduction(+ : rho_i)
  for (std::size_t k = begin; k < end; ++k) {
    const std::uint32_t j = jl[k];
    double dx = xi - xs[j];
    double dy = yi - ys[j];
    double dz = zi - zs[j];
    dx -= lx * std::nearbyint(dx * ilx);
    dy -= ly * std::nearbyint(dy * ily);
    dz -= lz * std::nearbyint(dz * ilz);
    const double r2 = dx * dx + dy * dy + dz * dz;
    const bool in = (j != sent) & (r2 < cutoff2);
    const double r = std::sqrt(r2);
    double fidx = std::floor((r - sx0) / sdx);
    fidx = fidx < 0.0 ? 0.0 : fidx;
    fidx = fidx > slast ? slast : fidx;
    const double t = r - (sx0 + sdx * fidx);
    const double* __restrict c = coef + 4 * static_cast<std::size_t>(fidx);
    const double phi0 = c[0] + t * (c[1] + t * (c[2] + t * c[3]));
    rho_i += in ? phi0 : 0.0;
  }
  return rho_i;
}

/// RC (full-list) force gather for atom i: geometry recomputed, both
/// splines evaluated per lane, no scatter at all - the GPU-natural
/// formulation, and the easiest loop for the vectorizer. Like the scalar
/// row it sums each pair's energy and virial in full; the caller halves
/// the totals (every pair is visited from both sides).
inline void soa_rc_force_atom(const SoaView& s, double cutoff2,
                              const double* __restrict fp, double fp_i,
                              std::size_t i, SoaForceOut& out) {
  const double* __restrict xs = s.x;
  const double* __restrict ys = s.y;
  const double* __restrict zs = s.z;
  const double xi = xs[i], yi = ys[i], zi = zs[i];
  const double lx = s.lx, ly = s.ly, lz = s.lz;
  const double ilx = s.ilx, ily = s.ily, ilz = s.ilz;
  const std::uint32_t sent = s.sent;
  const double* __restrict dcoef = s.density.coef;
  const double dx0 = s.density.x0;
  const double ddx = s.density.dx;
  const double dlast = static_cast<double>(s.density.segments - 1);
  const double* __restrict pcoef = s.pair.coef;
  const double px0 = s.pair.x0;
  const double pdx = s.pair.dx;
  const double plast = static_cast<double>(s.pair.segments - 1);
  const std::uint32_t* __restrict jl = s.tiles;
  const std::size_t begin = s.tile_index[i];
  const std::size_t end = s.tile_index[i + 1];
  double fxi = 0.0, fyi = 0.0, fzi = 0.0, energy = 0.0, virial = 0.0;
#pragma omp simd reduction(+ : fxi, fyi, fzi, energy, virial)
  for (std::size_t k = begin; k < end; ++k) {
    const std::uint32_t j = jl[k];
    double dx = xi - xs[j];
    double dy = yi - ys[j];
    double dz = zi - zs[j];
    dx -= lx * std::nearbyint(dx * ilx);
    dy -= ly * std::nearbyint(dy * ily);
    dz -= lz * std::nearbyint(dz * ilz);
    const double r2 = dx * dx + dy * dy + dz * dz;
    const bool in = (j != sent) & (r2 < cutoff2);
    const double r = in ? std::sqrt(r2) : 1.0;
    double pf = std::floor((r - px0) / pdx);
    pf = pf < 0.0 ? 0.0 : pf;
    pf = pf > plast ? plast : pf;
    const double pt = r - (px0 + pdx * pf);
    const double* __restrict pc = pcoef + 4 * static_cast<std::size_t>(pf);
    const double v = pc[0] + pt * (pc[1] + pt * (pc[2] + pt * pc[3]));
    const double dvdr = pc[1] + pt * (2.0 * pc[2] + 3.0 * pt * pc[3]);
    double df = std::floor((r - dx0) / ddx);
    df = df < 0.0 ? 0.0 : df;
    df = df > dlast ? dlast : df;
    const double dt = r - (dx0 + ddx * df);
    const double* __restrict dc = dcoef + 4 * static_cast<std::size_t>(df);
    const double dphi = dc[1] + dt * (2.0 * dc[2] + 3.0 * dt * dc[3]);
    const std::uint32_t js = in ? j : 0u;
    const double fpair0 = -(dvdr + (fp_i + fp[js]) * dphi) / r;
    const double fpair = in ? fpair0 : 0.0;
    fxi += fpair * dx;
    fyi += fpair * dy;
    fzi += fpair * dz;
    energy += in ? v : 0.0;
    virial += fpair * r * r;
  }
  out.fx = fxi;
  out.fy = fyi;
  out.fz = fzi;
  out.energy = energy;
  out.virial = virial;
}

/// Phase-2 embedding over [begin, end): fp[i] = F'(rho_i) via the packed
/// embed spline, returns the partial sum of F(rho_i). Pure SIMD - callers
/// distribute atom blocks over threads and sum the returned partials.
inline double soa_embed_range(const PackedSplineView& es,
                              const double* __restrict rho,
                              double* __restrict fp, std::size_t begin,
                              std::size_t end) {
  const double* __restrict coef = es.coef;
  const double x0 = es.x0;
  const double dx = es.dx;
  const double last = static_cast<double>(es.segments - 1);
  double energy = 0.0;
#pragma omp simd reduction(+ : energy)
  for (std::size_t i = begin; i < end; ++i) {
    double fidx = std::floor((rho[i] - x0) / dx);
    fidx = fidx < 0.0 ? 0.0 : fidx;
    fidx = fidx > last ? last : fidx;
    const double t = rho[i] - (x0 + dx * fidx);
    const double* __restrict c = coef + 4 * static_cast<std::size_t>(fidx);
    fp[i] = c[1] + t * (2.0 * c[2] + 3.0 * t * c[3]);
    energy += c[0] + t * (c[1] + t * (c[2] + t * c[3]));
  }
  return energy;
}

}  // namespace sdcmd::detail
