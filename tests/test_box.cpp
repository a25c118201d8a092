#include "geom/box.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/random.hpp"

namespace sdcmd {
namespace {

TEST(Box, CubicFactory) {
  const Box box = Box::cubic(10.0);
  EXPECT_EQ(box.lo(), (Vec3{0.0, 0.0, 0.0}));
  EXPECT_EQ(box.hi(), (Vec3{10.0, 10.0, 10.0}));
  EXPECT_DOUBLE_EQ(box.volume(), 1000.0);
  EXPECT_TRUE(box.periodic(0));
}

TEST(Box, RejectsEmptyExtent) {
  EXPECT_THROW(Box({0, 0, 0}, {1, 0, 1}), PreconditionError);
  EXPECT_THROW(Box({2, 0, 0}, {1, 1, 1}), PreconditionError);
}

TEST(Box, WrapBringsPositionsInside) {
  const Box box = Box::cubic(10.0);
  EXPECT_EQ(box.wrap({11.0, -1.0, 25.0}), (Vec3{1.0, 9.0, 5.0}));
  EXPECT_EQ(box.wrap({5.0, 5.0, 5.0}), (Vec3{5.0, 5.0, 5.0}));
  // exactly hi maps to lo
  const Vec3 w = box.wrap({10.0, 10.0, 10.0});
  EXPECT_EQ(w, (Vec3{0.0, 0.0, 0.0}));
}

TEST(Box, WrapTracksImages) {
  const Box box = Box::cubic(10.0);
  std::array<int, 3> image{0, 0, 0};
  const Vec3 w = box.wrap({23.0, -7.0, 5.0}, image);
  EXPECT_NEAR(w.x, 3.0, 1e-12);
  EXPECT_NEAR(w.y, 3.0, 1e-12);
  EXPECT_EQ(image[0], 2);
  EXPECT_EQ(image[1], -1);
  EXPECT_EQ(image[2], 0);
}

TEST(Box, NonPeriodicDimensionIsNotWrapped) {
  const Box box({0, 0, 0}, {10, 10, 10}, {true, false, true});
  const Vec3 w = box.wrap({12.0, 12.0, 12.0});
  EXPECT_NEAR(w.x, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(w.y, 12.0);
}

TEST(Box, MinimumImagePicksNearestCopy) {
  const Box box = Box::cubic(10.0);
  const Vec3 d = box.minimum_image({9.5, 0.0, 0.0}, {0.5, 0.0, 0.0});
  EXPECT_NEAR(d.x, -1.0, 1e-12);
  EXPECT_NEAR(box.distance2({9.5, 0, 0}, {0.5, 0, 0}), 1.0, 1e-12);
}

TEST(Box, MinimumImageAtHalfBox) {
  const Box box = Box::cubic(10.0);
  // displacement of exactly L/2 stays magnitude L/2
  const Vec3 d = box.minimum_image({7.5, 0.0, 0.0}, {2.5, 0.0, 0.0});
  EXPECT_NEAR(std::abs(d.x), 5.0, 1e-12);
}

TEST(Box, MinimumImageRespectsNonPeriodicDims) {
  const Box box({0, 0, 0}, {10, 10, 10}, {false, true, true});
  const Vec3 d = box.minimum_image({9.5, 0.0, 0.0}, {0.5, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(d.x, 9.0);
}

TEST(Box, Contains) {
  const Box box = Box::cubic(10.0);
  EXPECT_TRUE(box.contains({0.0, 0.0, 0.0}));
  EXPECT_TRUE(box.contains({9.999, 5.0, 5.0}));
  EXPECT_FALSE(box.contains({10.0, 5.0, 5.0}));
  EXPECT_FALSE(box.contains({-0.001, 5.0, 5.0}));
}

TEST(Box, RescaleAndAffineMap) {
  Box box = Box::cubic(10.0);
  const Box old = box;
  box.rescale({1.1, 1.0, 0.9});
  EXPECT_NEAR(box.length(0), 11.0, 1e-12);
  EXPECT_NEAR(box.length(1), 10.0, 1e-12);
  EXPECT_NEAR(box.length(2), 9.0, 1e-12);

  const Vec3 mapped = box.affine_map({5.0, 5.0, 5.0}, old);
  EXPECT_NEAR(mapped.x, 5.5, 1e-12);
  EXPECT_NEAR(mapped.y, 5.0, 1e-12);
  EXPECT_NEAR(mapped.z, 4.5, 1e-12);
}

TEST(Box, RescaleRejectsNonPositiveFactors) {
  Box box = Box::cubic(10.0);
  EXPECT_THROW(box.rescale({0.0, 1.0, 1.0}), PreconditionError);
  EXPECT_THROW(box.rescale({1.0, -1.0, 1.0}), PreconditionError);
}

TEST(Box, OffsetOriginWrap) {
  const Box box({-5.0, -5.0, -5.0}, {5.0, 5.0, 5.0});
  const Vec3 w = box.wrap({6.0, -6.0, 0.0});
  EXPECT_NEAR(w.x, -4.0, 1e-12);
  EXPECT_NEAR(w.y, 4.0, 1e-12);
}

/// The division form the inline minimum image replaced.
Vec3 division_minimum_image(const Box& box, const Vec3& ri, const Vec3& rj) {
  Vec3 dr = ri - rj;
  for (int d = 0; d < 3; ++d) {
    if (!box.periodic(d)) continue;
    dr[d] -= box.length(d) * std::nearbyint(dr[d] / box.length(d));
  }
  return dr;
}

/// Random pairs inside `box` closer than half the shortest edge (by the
/// division form); each must give bitwise the division form's result.
void expect_matches_division_form(const Box& box, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const double half_edge =
      0.5 * std::min({box.length(0), box.length(1), box.length(2)});
  int checked = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    Vec3 ri, rj;
    for (int d = 0; d < 3; ++d) {
      ri[d] = rng.uniform(box.lo()[d], box.hi()[d]);
      rj[d] = rng.uniform(box.lo()[d], box.hi()[d]);
    }
    const Vec3 want = division_minimum_image(box, ri, rj);
    if (!(norm2(want) < half_edge * half_edge)) continue;
    const Vec3 got = box.minimum_image(ri, rj);
    for (int d = 0; d < 3; ++d) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[d]),
                std::bit_cast<std::uint64_t>(want[d]))
          << "dim " << d << " of pair " << trial;
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(box.distance2(ri, rj)),
              std::bit_cast<std::uint64_t>(norm2(want)));
    ++checked;
  }
  EXPECT_GT(checked, 1000);
}

TEST(Box, InlineMinimumImageIsBitwiseTheDivisionForm) {
  expect_matches_division_form(Box::cubic(28.7), 1);
  expect_matches_division_form(Box({0, 0, 0}, {17.3, 23.9, 31.1}), 2);
  expect_matches_division_form(
      Box({-11.7, 3.2, -40.05}, {9.1, 27.7, -12.6}), 3);
  expect_matches_division_form(
      Box({-5.0, 0.0, 2.5}, {19.4, 21.1, 30.0}, {true, false, true}), 4);
  expect_matches_division_form(
      Box({0, 0, 0}, {14.2, 14.2, 26.0}, {false, true, false}), 5);
}

TEST(Box, InlineMinimumImageFollowsRescale) {
  // rescale must refresh the reciprocal edges the inline form multiplies
  // by: a stale reciprocal picks the wrong image after a large strain.
  Box box({-3.0, 0.0, 1.0}, {21.0, 18.0, 31.0}, {true, true, false});
  expect_matches_division_form(box, 6);
  box.rescale({1.37, 0.81, 1.12});
  expect_matches_division_form(box, 7);
  box.rescale({0.66, 1.29, 1.0});
  expect_matches_division_form(box, 8);
  // A pair 0.4 of the new 20 A x edge apart is its own minimum image; the
  // stale reciprocal of the old 10 A edge would read it as 0.8 of an edge
  // and flip it to the far image.
  Box wide = Box::cubic(10.0);
  wide.rescale({2.0, 1.0, 1.0});
  const Vec3 d = wide.minimum_image({8.5, 0, 0}, {0.5, 0, 0});
  EXPECT_DOUBLE_EQ(d.x, 8.0);
}

}  // namespace
}  // namespace sdcmd
