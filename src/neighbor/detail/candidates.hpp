// The candidate test of the neighbor-list build (NeighborList::append_row),
// one stencil run at a time: the cell-order slots [begin, end), all seen
// through one periodic image shift s, are tested against atom i's wrapped
// position as
//   dr = (x_i - x_j) - s per axis,   kept when |dr|^2 < range^2,
// and the ids of the kept slots are appended with the run's image code
// beside each.
//
// Two implementations give bitwise the same ids, codes and counts:
//  * append_run_scalar - branchless: every candidate is written and the
//    cursor advances only past kept ones.
//  * append_run_avx512 - eight candidates at a time: masked loads, the same
//    roundings, a masked compare, and a compress store of the kept ids;
//    one memset writes the code bytes.
// Both round |dr|^2 as candidate_norm2 does.
// append_run picks the vector form at compile time wherever AVX-512F and
// AVX-512VL are enabled (-march=native on such a host) and the scalar one
// everywhere else. No portable form replaces the scalar loop: flag
// passes, branchy appends and bitmask walks all ran slower than it (see
// docs/performance.md, "Neighbor maintenance"). The scalar form stays
// compiled everywhere as the reference the tests hold the vector one to.
//
// The caller makes sure the output has room for end - begin entries (the
// scalar form writes every candidate), and the slot arrays hold
// CellList::kSlotPadding readable entries past their last slot, so the
// vector form's tail loads stay inside them.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/vec3.hpp"
#include "neighbor/cell_list.hpp"

// Defined when append_run uses the AVX-512 form.
#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#define SDCMD_VECTOR_CANDIDATES 1
#endif

namespace sdcmd::detail {

/// The cell-order slot arrays a run indexes (CellList::slot_x() ...).
struct CandidateSlots {
  const double* x;
  const double* y;
  const double* z;
  const std::uint32_t* ids;
};

/// |dr|^2 as the build rounds it. On a target with FMA that is
/// fma(dz, dz, fma(dx, dx, dy * dy)), which is what GCC's contraction makes
/// of norm2(dr) at -O2 and above; written out, the lists do not depend on
/// the optimization level, and the vector form can match it.
inline double candidate_norm2(double dx, double dy, double dz) {
#ifdef __FMA__
  return std::fma(dz, dz, std::fma(dx, dx, dy * dy));
#else
  return dx * dx + dy * dy + dz * dz;
#endif
}

/// Tests slots [begin, end) against `xi` through the shift `s`, writing the
/// kept ids to out[0, kept) and `image` to images[0, kept); returns kept.
/// kSkipSelf: slot `self` is never kept (a full row skips atom i itself).
template <bool kSkipSelf>
inline std::size_t append_run_scalar(const CandidateSlots& slots,
                                     std::size_t begin, std::size_t end,
                                     std::size_t self, const Vec3& xi,
                                     const Vec3& s, std::uint8_t image,
                                     double range2, std::uint32_t* out,
                                     std::uint8_t* images) {
  std::size_t kept = 0;
  for (std::size_t k = begin; k < end; ++k) {
    const double d2 = candidate_norm2((xi.x - slots.x[k]) - s.x,
                                      (xi.y - slots.y[k]) - s.y,
                                      (xi.z - slots.z[k]) - s.z);
    out[kept] = slots.ids[k];
    images[kept] = image;
    if constexpr (kSkipSelf) {
      kept += (d2 < range2) & (k != self);
    } else {
      kept += d2 < range2;
    }
  }
  return kept;
}

#ifdef SDCMD_VECTOR_CANDIDATES
static_assert(CellList::kSlotPadding >= 7, "a tail load reads 8 slots");

/// append_run_scalar, eight candidates at a time.
template <bool kSkipSelf>
inline std::size_t append_run_avx512(const CandidateSlots& slots,
                                     std::size_t begin, std::size_t end,
                                     std::size_t self, const Vec3& xi,
                                     const Vec3& s, std::uint8_t image,
                                     double range2, std::uint32_t* out,
                                     std::uint8_t* images) {
  const __m512d xi_x = _mm512_set1_pd(xi.x);
  const __m512d xi_y = _mm512_set1_pd(xi.y);
  const __m512d xi_z = _mm512_set1_pd(xi.z);
  const __m512d s_x = _mm512_set1_pd(s.x);
  const __m512d s_y = _mm512_set1_pd(s.y);
  const __m512d s_z = _mm512_set1_pd(s.z);
  const __m512d r2 = _mm512_set1_pd(range2);
  std::size_t kept = 0;
  for (std::size_t k = begin; k < end; k += 8) {
    const std::size_t left = end - k;
    const auto lanes =
        static_cast<__mmask8>(left >= 8 ? 0xFFu : (1u << left) - 1u);
    const __m512d dx = _mm512_sub_pd(
        _mm512_sub_pd(xi_x, _mm512_maskz_loadu_pd(lanes, slots.x + k)), s_x);
    const __m512d dy = _mm512_sub_pd(
        _mm512_sub_pd(xi_y, _mm512_maskz_loadu_pd(lanes, slots.y + k)), s_y);
    const __m512d dz = _mm512_sub_pd(
        _mm512_sub_pd(xi_z, _mm512_maskz_loadu_pd(lanes, slots.z + k)), s_z);
    const __m512d d2 = _mm512_fmadd_pd(
        dz, dz, _mm512_fmadd_pd(dx, dx, _mm512_mul_pd(dy, dy)));
    unsigned keep = _mm512_mask_cmp_pd_mask(lanes, d2, r2, _CMP_LT_OQ);
    if constexpr (kSkipSelf) {
      // Unsigned: a slot before k wraps to a large offset.
      if (self - k < 8) keep &= ~(1u << (self - k));
    }
    const __m256i ids = _mm256_maskz_loadu_epi32(lanes, slots.ids + k);
    _mm256_mask_compressstoreu_epi32(out + kept, static_cast<__mmask8>(keep),
                                     ids);
    kept += static_cast<std::size_t>(std::popcount(keep));
  }
  std::memset(images, image, kept);
  return kept;
}
#endif

/// The build's candidate test: the AVX-512 form where it is compiled,
/// otherwise the scalar one.
template <bool kSkipSelf>
inline std::size_t append_run(const CandidateSlots& slots, std::size_t begin,
                              std::size_t end, std::size_t self,
                              const Vec3& xi, const Vec3& s,
                              std::uint8_t image, double range2,
                              std::uint32_t* out, std::uint8_t* images) {
#ifdef SDCMD_VECTOR_CANDIDATES
  return append_run_avx512<kSkipSelf>(slots, begin, end, self, xi, s, image,
                                      range2, out, images);
#else
  return append_run_scalar<kSkipSelf>(slots, begin, end, self, xi, s, image,
                                      range2, out, images);
#endif
}

}  // namespace sdcmd::detail
