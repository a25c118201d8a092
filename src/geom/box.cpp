#include "geom/box.hpp"

#include <cmath>

#include "common/error.hpp"

namespace sdcmd {

Box::Box(const Vec3& lo, const Vec3& hi, std::array<bool, 3> periodic)
    : lo_(lo), hi_(hi), len_(hi - lo), periodic_(periodic) {
  for (int d = 0; d < 3; ++d) {
    SDCMD_REQUIRE(len_[d] > 0.0, "box must have positive extent");
  }
  inv_len_ = {1.0 / len_.x, 1.0 / len_.y, 1.0 / len_.z};
}

Box Box::cubic(double edge) {
  return Box({0.0, 0.0, 0.0}, {edge, edge, edge});
}

Vec3 Box::wrap(Vec3 r) const {
  for (int d = 0; d < 3; ++d) {
    if (!periodic_[d]) continue;
    const double rel = (r[d] - lo_[d]) / len_[d];
    r[d] -= std::floor(rel) * len_[d];
    // Guard against r == hi from floating point round-off.
    if (r[d] >= hi_[d]) r[d] = lo_[d];
  }
  return r;
}

Vec3 Box::wrap(Vec3 r, std::array<int, 3>& image) const {
  for (int d = 0; d < 3; ++d) {
    if (!periodic_[d]) continue;
    const double rel = (r[d] - lo_[d]) / len_[d];
    const auto shift = static_cast<int>(std::floor(rel));
    image[d] += shift;
    r[d] -= shift * len_[d];
    if (r[d] >= hi_[d]) {
      r[d] = lo_[d];
      image[d] += 1;
    }
  }
  return r;
}

bool Box::contains(const Vec3& r) const {
  for (int d = 0; d < 3; ++d) {
    if (r[d] < lo_[d] || r[d] >= hi_[d]) return false;
  }
  return true;
}

void Box::rescale(const Vec3& factor) {
  for (int d = 0; d < 3; ++d) {
    SDCMD_REQUIRE(factor[d] > 0.0, "rescale factor must be positive");
  }
  hi_ = {lo_.x + len_.x * factor.x, lo_.y + len_.y * factor.y,
         lo_.z + len_.z * factor.z};
  len_ = hi_ - lo_;
  inv_len_ = {1.0 / len_.x, 1.0 / len_.y, 1.0 / len_.z};
}

Vec3 Box::affine_map(const Vec3& old_r, const Box& old_box) const {
  Vec3 out;
  for (int d = 0; d < 3; ++d) {
    const double frac = (old_r[d] - old_box.lo_[d]) / old_box.len_[d];
    out[d] = lo_[d] + frac * len_[d];
  }
  return out;
}

}  // namespace sdcmd
