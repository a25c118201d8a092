#include "neighbor/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/random.hpp"

namespace sdcmd {
namespace {

std::vector<Vec3> random_points(const Box& box, std::size_t n,
                                std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Vec3> out(n);
  for (auto& r : out) {
    r = {rng.uniform(box.lo().x, box.hi().x),
         rng.uniform(box.lo().y, box.hi().y),
         rng.uniform(box.lo().z, box.hi().z)};
  }
  return out;
}

TEST(SpatialSort, PermutationIsBijective) {
  const Box box = Box::cubic(12.0);
  const auto points = random_points(box, 333, 4);
  const auto perm = spatial_sort_permutation(box, points, 3.0);
  ASSERT_EQ(perm.size(), points.size());
  std::set<std::uint32_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), points.size());
}

TEST(SpatialSort, SortedOrderIsCellMonotonic) {
  const Box box = Box::cubic(12.0);
  const auto points = random_points(box, 333, 4);
  const double cell = 3.0;
  const auto perm = spatial_sort_permutation(box, points, cell);
  CellList cells(box, cell);
  std::size_t last = 0;
  bool first = true;
  for (std::uint32_t old : perm) {
    const std::size_t c = cells.cell_of(points[old]);
    if (!first) {
      EXPECT_GE(c, last);
    }
    last = c;
    first = false;
  }
}

TEST(ApplyPermutation, ReordersValues) {
  const std::vector<int> values{10, 20, 30, 40};
  const std::vector<std::uint32_t> perm{2, 0, 3, 1};
  EXPECT_EQ(apply_permutation(values, perm),
            (std::vector<int>{30, 10, 40, 20}));
}

TEST(InversePermutation, ComposesToIdentity) {
  const std::vector<std::uint32_t> perm{2, 0, 3, 1};
  const auto inv = inverse_permutation(perm);
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[perm[i]], i);
  }
}

TEST(SortNeighborSublists, SortsEachRangeIndependently) {
  std::vector<std::size_t> index{0, 3, 5, 5, 8};
  std::vector<std::uint32_t> list{5, 1, 3, 9, 2, 7, 4, 6};
  sort_neighbor_sublists(index, list);
  EXPECT_EQ(list, (std::vector<std::uint32_t>{1, 3, 5, 2, 9, 4, 6, 7}));
}

TEST(FragmentedNeighborList, ReproducesPackedContents) {
  const Box box = Box::cubic(12.0);
  const auto points = random_points(box, 200, 17);
  NeighborListConfig cfg;
  cfg.cutoff = 3.0;
  NeighborList packed(box, cfg);
  packed.build(points);

  FragmentedNeighborList frag(packed);
  ASSERT_EQ(frag.atom_count(), packed.atom_count());
  for (std::size_t i = 0; i < packed.atom_count(); ++i) {
    const auto a = packed.neighbors(i);
    const auto b = frag.neighbors(i);
    ASSERT_EQ(a.size(), b.size()) << "atom " << i;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(FragmentedNeighborList, MemoryAtLeastPackedPayload) {
  const Box box = Box::cubic(12.0);
  const auto points = random_points(box, 200, 17);
  NeighborListConfig cfg;
  cfg.cutoff = 3.0;
  NeighborList packed(box, cfg);
  packed.build(points);
  FragmentedNeighborList frag(packed);
  EXPECT_GE(frag.memory_bytes(),
            packed.pair_count() * sizeof(std::uint32_t));
}

TEST(SpatialSort, ReorderedAtomsImproveNeighborLocality) {
  // After a spatial sort, neighbor indices should be closer to their host
  // atom's index on average than under a random ordering.
  const Box box = Box::cubic(18.0);
  auto points = random_points(box, 1200, 23);

  auto mean_distance = [&](const std::vector<Vec3>& pos) {
    NeighborListConfig cfg;
    cfg.cutoff = 3.0;
    NeighborList list(box, cfg);
    list.build(pos);
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < list.atom_count(); ++i) {
      for (std::uint32_t j : list.neighbors(i)) {
        total += std::abs(static_cast<double>(j) - static_cast<double>(i));
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };

  const double before = mean_distance(points);
  const auto perm = spatial_sort_permutation(box, points, 3.0);
  const auto sorted = apply_permutation(points, perm);
  const double after = mean_distance(sorted);
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace sdcmd
