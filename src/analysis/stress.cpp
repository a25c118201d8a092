#include "analysis/stress.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/detail/skeleton.hpp"

namespace sdcmd {

StressTensor& StressTensor::operator+=(const StressTensor& o) {
  xx += o.xx;
  yy += o.yy;
  zz += o.zz;
  xy += o.xy;
  xz += o.xz;
  yz += o.yz;
  return *this;
}

double StressTensor::von_mises() const {
  const double dxx = xx - hydrostatic();
  const double dyy = yy - hydrostatic();
  const double dzz = zz - hydrostatic();
  return std::sqrt(1.5 * (dxx * dxx + dyy * dyy + dzz * dzz) +
                   3.0 * (xy * xy + xz * xz + yz * yz));
}

PerAtomStress::PerAtomStress(const EamPotential& potential)
    : potential_(potential) {}

namespace {

/// Half of one pair's virial contribution (goes to each partner).
inline StressTensor pair_half_virial(const Vec3& dr, double fpair) {
  StressTensor s;
  s.xx = 0.5 * fpair * dr.x * dr.x;
  s.yy = 0.5 * fpair * dr.y * dr.y;
  s.zz = 0.5 * fpair * dr.z * dr.z;
  s.xy = 0.5 * fpair * dr.x * dr.y;
  s.xz = 0.5 * fpair * dr.x * dr.z;
  s.yz = 0.5 * fpair * dr.y * dr.z;
  return s;
}

}  // namespace

void PerAtomStress::compute(const Box& box, std::span<const Vec3> positions,
                            std::span<const Vec3> velocities, double mass,
                            const NeighborList& list,
                            std::span<const double> fp,
                            std::vector<StressTensor>& out,
                            const SdcSchedule* schedule) const {
  const std::size_t n = positions.size();
  // Its scatter loop walks a half list, as the force phase does.
  require_list(box, list, n, NeighborMode::Half, potential_.cutoff());
  SDCMD_REQUIRE(fp.size() == n, "fp array must match the atom count");
  SDCMD_REQUIRE(velocities.empty() || velocities.size() == n,
                "velocities must be empty or match the atom count");
  const bool sdc = schedule != nullptr && schedule->built();
  if (sdc) {
    SDCMD_REQUIRE(schedule->partition().atom_count() == n,
                  "SDC schedule is stale");
  }

  out.assign(n, StressTensor{});
  const double cutoff = potential_.cutoff();
  const double cutoff2 = cutoff * cutoff;

  auto atom_body = [&](std::size_t i) {
    const Vec3 xi = positions[i];
    const double fp_i = fp[i];
    const auto nbrs = list.neighbors(i);
    const auto images = list.images(i);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      const Vec3 dr = list.displacement(xi, positions[j], images[k]);
      const double r2 = norm2(dr);
      if (r2 >= cutoff2) continue;
      const double r = std::sqrt(r2);
      double v, dvdr, phi, dphidr;
      potential_.pair(r, v, dvdr);
      potential_.density(r, phi, dphidr);
      const double fpair = -(dvdr + (fp_i + fp[j]) * dphidr) / r;
      const StressTensor half = pair_half_virial(dr, fpair);
      out[i] += half;
      out[j] += half;  // scatter: same footprint as the force loop
    }
  };

  // The skeleton's SDC color sweep, or its static sweep in a team of one.
#pragma omp parallel if (sdc)
  {
    if (sdc) {
      detail::color_sweep(schedule->partition(), nullptr, 0, atom_body);
    } else {
      detail::sweep(n, nullptr, 0, atom_body);
    }
  }

  // Kinetic part and volume normalization. Per-atom volume V/N; stress is
  // reported as the usual negative-of-virial-density convention (tension
  // gives negative normal components).
  const double per_atom_volume =
      box.volume() / static_cast<double>(std::max<std::size_t>(n, 1));
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    if (!velocities.empty()) {
      const Vec3& v = velocities[i];
      out[i].xx += mass * v.x * v.x;
      out[i].yy += mass * v.y * v.y;
      out[i].zz += mass * v.z * v.z;
      out[i].xy += mass * v.x * v.y;
      out[i].xz += mass * v.x * v.z;
      out[i].yz += mass * v.y * v.z;
    }
    const double inv_vol = -1.0 / per_atom_volume;
    out[i].xx *= inv_vol;
    out[i].yy *= inv_vol;
    out[i].zz *= inv_vol;
    out[i].xy *= inv_vol;
    out[i].xz *= inv_vol;
    out[i].yz *= inv_vol;
  }
}

StressTensor PerAtomStress::total(const std::vector<StressTensor>& stresses) {
  StressTensor sum;
  for (const auto& s : stresses) sum += s;
  return sum;
}

}  // namespace sdcmd
