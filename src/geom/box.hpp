// Orthorhombic simulation box with periodic boundary conditions.
//
// The paper simulates bcc Fe under full periodic boundary conditions; all of
// the decomposition machinery (src/domain) is defined in terms of this box.
#pragma once

#include <array>
#include <cmath>

#include "common/vec3.hpp"

namespace sdcmd {

class Box {
 public:
  /// Box spanning [lo, hi) in each dimension; `periodic[d]` controls PBC.
  Box(const Vec3& lo, const Vec3& hi,
      std::array<bool, 3> periodic = {true, true, true});

  /// Cubic box [0, edge)^3, fully periodic.
  static Box cubic(double edge);

  const Vec3& lo() const { return lo_; }
  const Vec3& hi() const { return hi_; }
  /// Edge lengths per dimension.
  const Vec3& lengths() const { return len_; }
  double length(int dim) const { return len_[dim]; }
  bool periodic(int dim) const { return periodic_[dim]; }
  double volume() const { return len_.x * len_.y * len_.z; }

  /// Wrap a position into the primary image (periodic dims only).
  Vec3 wrap(Vec3 r) const;

  /// Wrap, also recording how many images the position crossed, so unwrapped
  /// trajectories (diffusion analysis) can be reconstructed.
  Vec3 wrap(Vec3 r, std::array<int, 3>& image) const;

  /// Minimum-image displacement r_i - r_j. Inline, and multiplying by the
  /// reciprocal edge instead of dividing: every kernel row and list build
  /// calls this once per pair. dr * (1/L) and dr / L differ by at most an
  /// ulp, which moves the rounded image index only when dr / L sits on a
  /// half-integer - a pair at half an edge. For every closer pair the
  /// result is bitwise the division form dr - L * nearbyint(dr / L).
  Vec3 minimum_image(const Vec3& ri, const Vec3& rj) const {
    Vec3 dr = ri - rj;
    for (int d = 0; d < 3; ++d) {
      if (!periodic_[d]) continue;
      dr[d] -= len_[d] * std::nearbyint(dr[d] * inv_len_[d]);
    }
    return dr;
  }

  /// Squared minimum-image distance.
  double distance2(const Vec3& ri, const Vec3& rj) const {
    return norm2(minimum_image(ri, rj));
  }

  /// True when `r` lies in [lo, hi) on every dimension.
  bool contains(const Vec3& r) const;

  /// Rescale the box edges by `factor` per-dimension about `lo`, mapping a
  /// fractional coordinate to the same fraction of the new box. Used by the
  /// deformation engine. Positions must be remapped by the caller via
  /// `affine_map`.
  void rescale(const Vec3& factor);

  /// Map a position from the pre-`rescale` box to the post-`rescale` box.
  Vec3 affine_map(const Vec3& old_r, const Box& old_box) const;

  friend bool operator==(const Box&, const Box&) = default;

 private:
  Vec3 lo_;
  Vec3 hi_;
  Vec3 len_;
  Vec3 inv_len_;  ///< 1 / len_, kept current by the constructor and rescale
  std::array<bool, 3> periodic_;
};

}  // namespace sdcmd
