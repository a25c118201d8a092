// Built only under SDCMD_VECTOR_REPORT (see src/core/CMakeLists.txt).
//
// Instantiates the SoA full-list force gather (RC's SIMD row) in
// isolation, so every "loop vectorized" report line pointing into
// eam_soa.hpp from this translation unit is attributable to that loop.
// The CI vectorization smoke builds exactly this object and fails when the
// compiler stops reporting the loop as vectorized.
#include <cstddef>

#include "core/detail/eam_soa.hpp"

namespace sdcmd::detail {

void soa_vectorization_probe(const SoaView& s, double cutoff2,
                             const double* fp, double fp_i, std::size_t i,
                             SoaForceOut& out) {
  soa_rc_force_atom(s, cutoff2, fp, fp_i, i, out);
}

}  // namespace sdcmd::detail
