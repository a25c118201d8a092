#include "core/pair_force.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/detail/skeleton.hpp"

namespace sdcmd {

namespace {

/// The pair-force row body (see skeleton.hpp): forces on atom i from its
/// neighbor row, the j side through the protection (Newton's third law).
struct PairForceRow {
  std::span<const Vec3> x;
  const NeighborList& list;
  const PairPotential& pot;
  double cutoff2;
  double energy = 0.0;
  double virial = 0.0;

  template <class S>
  void operator()(std::size_t i, S s) {
    const Vec3 xi = x[i];
    double e = energy, w = virial;  // locals stay in registers
    const auto nbrs = list.neighbors(i);
    const auto images = list.images(i);
    Vec3 f_i{};
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      const Vec3 dr = list.displacement(xi, x[j], images[k]);
      const double r2 = norm2(dr);
      if (r2 >= cutoff2) continue;
      const double r = std::sqrt(r2);
      double v, dvdr;
      pot.evaluate(r, v, dvdr);
      const double fpair = -dvdr / r;
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

PairForceComputer::PairForceComputer(const PairPotential& potential,
                                     EamForceConfig config)
    : ReductionEngine(config, /*embeds=*/false), potential_(potential) {}

EamForceResult PairForceComputer::compute(const Box& box,
                                          std::span<const Vec3> positions,
                                          const NeighborList& list,
                                          std::span<Vec3> force) {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(force.size() == n, "force array must match the atom count");
  prepare(box, list, n, potential_.cutoff());
  const double cutoff = potential_.cutoff();
  return run_phases({}, {}, force, NoRow{}, NoRow{},
                    PairForceRow{positions, list, potential_,
                                 cutoff * cutoff});
}

}  // namespace sdcmd
