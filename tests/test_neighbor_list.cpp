#include "neighbor/neighbor_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/threads.hpp"
#include "common/units.hpp"
#include "geom/lattice.hpp"
#include "neighbor/detail/candidates.hpp"

#include "allocation_probe.hpp"

namespace sdcmd {
namespace {

using Pair = std::pair<std::uint32_t, std::uint32_t>;

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

std::set<Pair> pairs_from_half_list(const NeighborList& list) {
  std::set<Pair> pairs;
  for (std::size_t i = 0; i < list.atom_count(); ++i) {
    for (std::uint32_t j : list.neighbors(i)) {
      const auto a = static_cast<std::uint32_t>(i);
      pairs.insert({std::min(a, j), std::max(a, j)});
    }
  }
  return pairs;
}

std::set<Pair> pair_set(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  return {pairs.begin(), pairs.end()};
}

/// Restores the OpenMP team size a test changed.
struct ThreadCountGuard {
  int saved = max_threads();
  ~ThreadCountGuard() { set_threads(saved); }
};

/// Every array a build writes, copied for bitwise comparison.
struct ListArrays {
  std::vector<std::size_t> index;
  std::vector<std::uint32_t> len;
  std::vector<std::uint32_t> list;
  std::vector<std::uint8_t> image;

  explicit ListArrays(const NeighborList& l)
      : index(l.neigh_index()),
        len(l.neigh_len()),
        list(l.neigh_list()),
        image(l.neigh_image()) {}
  friend bool operator==(const ListArrays&, const ListArrays&) = default;
};

bool same_bits(const Vec3& a, const Vec3& b) {
  using Bits = std::uint64_t;
  return std::bit_cast<Bits>(a.x) == std::bit_cast<Bits>(b.x) &&
         std::bit_cast<Bits>(a.y) == std::bit_cast<Bits>(b.y) &&
         std::bit_cast<Bits>(a.z) == std::bit_cast<Bits>(b.z);
}

/// The list's invariant: for every stored pair, (x_i - x_j) minus the shift
/// of its image code is bitwise Box::minimum_image(x_i, x_j) at `points`.
void expect_images_are_minimum_image(const NeighborList& list, const Box& box,
                                     std::span<const Vec3> points,
                                     const std::string& where) {
  ASSERT_EQ(list.neigh_image().size(), list.pair_count()) << where;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < list.atom_count(); ++i) {
    const auto nbrs = list.neighbors(i);
    const auto images = list.images(i);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint8_t code = images[k];
      ASSERT_LT(code, 27) << where;
      const Vec3 coded = list.displacement(points[i], points[nbrs[k]], code);
      const Vec3 expected = box.minimum_image(points[i], points[nbrs[k]]);
      if (!same_bits(coded, expected)) ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u) << where << ": pairs whose image code is not the "
                                   "minimum image";
}

// Exact pair-for-pair comparison against the O(N^2) reference for both
// modes: the half list, and the full list (whose stored entries, folded
// to unordered pairs, must halve to the same set). Every variant must
// match: rows sorted and unsorted, at teams 1-4, with the CSR arrays and
// image codes bitwise equal across team sizes, and every pair's code
// giving its minimum image bitwise. With `first_box`, each list is built
// there first (from `first_points`) and moved to `box` through
// update_box() without a grid reshape, as a barostat does.
void expect_all_paths_match_brute_force(
    const Box& box, std::span<const Vec3> points, double cutoff,
    const Box* first_box = nullptr, std::span<const Vec3> first_points = {}) {
  ThreadCountGuard guard;
  const auto expected = pair_set(brute_force_pairs(box, points, cutoff));
  for (const NeighborMode mode : {NeighborMode::Half, NeighborMode::Full}) {
    for (const bool sorted : {false, true}) {
      NeighborListConfig cfg;
      cfg.cutoff = cutoff;
      cfg.skin = 0.0;  // exact range so sets must match brute force
      cfg.mode = mode;
      cfg.sort_neighbors = sorted;
      const std::size_t stored = mode == NeighborMode::Half ? 1 : 2;
      std::optional<ListArrays> reference;
      for (int team = 1; team <= 4; ++team) {
        set_threads(team);
        NeighborList list(first_box != nullptr ? *first_box : box, cfg);
        if (first_box != nullptr) {
          list.build(first_points);
          EXPECT_FALSE(list.update_box(box));
        }
        list.build(points);
        const std::string where =
            std::string(mode == NeighborMode::Half ? "half" : "full") +
            " list, sorted " + std::to_string(sorted) + ", team " +
            std::to_string(team);
        EXPECT_EQ(list.stats().stencil_rebuilds, 1u) << where;
        EXPECT_EQ(list.pair_count(), stored * expected.size()) << where;
        EXPECT_EQ(pairs_from_half_list(list), expected) << where;
        EXPECT_TRUE(list.built_for(box)) << where;
        expect_images_are_minimum_image(list, box, points, where);
        if (!reference) {
          reference.emplace(list);
        } else {
          EXPECT_TRUE(ListArrays(list) == *reference) << where;
        }
      }
    }
  }
}

TEST(NeighborList, HalfListMatchesBruteForce) {
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 250, 99);
  NeighborListConfig cfg;
  cfg.cutoff = 3.0;
  cfg.skin = 0.0;  // exact range so sets must match brute force
  NeighborList list(box, cfg);
  list.build(points);

  const auto expected = brute_force_pairs(box, points, 3.0);
  const auto actual = pairs_from_half_list(list);
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& p : expected) {
    EXPECT_TRUE(actual.count(p)) << p.first << "," << p.second;
  }
}

TEST(NeighborList, HalfListStoresEachPairOnce) {
  // The half-stencil build stores a cross-cell pair under the atom whose
  // cell owns the cell pair - not necessarily under min(i, j) - so the
  // guarantee is "each unordered pair exactly once", not j > i.
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 200, 5);
  NeighborListConfig cfg;
  cfg.cutoff = 3.2;
  NeighborList list(box, cfg);
  list.build(points);

  std::set<Pair> seen;
  for (std::size_t i = 0; i < list.atom_count(); ++i) {
    for (std::uint32_t j : list.neighbors(i)) {
      EXPECT_NE(j, i) << "self pair";
      const auto a = static_cast<std::uint32_t>(i);
      EXPECT_TRUE(seen.insert({std::min(a, j), std::max(a, j)}).second)
          << "pair {" << std::min(a, j) << "," << std::max(a, j)
          << "} stored twice";
    }
  }
}

TEST(NeighborList, AllPathsMatchBruteForceOnRandomizedBoxes) {
  // Randomized periodic and non-periodic boxes, exact pair-set compare.
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 6; ++trial) {
    const double cutoff = rng.uniform(2.5, 3.5);
    const Vec3 lengths{rng.uniform(2.0 * cutoff, 5.0 * cutoff),
                       rng.uniform(2.0 * cutoff, 5.0 * cutoff),
                       rng.uniform(2.0 * cutoff, 5.0 * cutoff)};
    const std::array<bool, 3> periodic{trial % 2 == 0, trial % 3 != 0,
                                       true};
    const Box box({0, 0, 0}, lengths,
                  {periodic[0], periodic[1], periodic[2]});
    const auto points =
        random_points(box, 150 + 40 * trial,
                      static_cast<std::uint64_t>(trial) + 31);
    expect_all_paths_match_brute_force(box, points, cutoff);
  }
}

TEST(NeighborList, NarrowPeriodicGridsMatchBruteForce) {
  // Exactly 2 cells per periodic dimension: the stencil dedup path and
  // the half-stencil ownership rule both get exercised hardest here.
  const double cutoff = 3.0;
  const Box fully_periodic = Box::cubic(7.0);  // 7/3 -> 2 cells per dim
  const auto p1 = random_points(fully_periodic, 260, 17);
  expect_all_paths_match_brute_force(fully_periodic, p1, cutoff);

  // Mixed: two periodic dims at 2 cells, one open dim at 3.
  const Box mixed({0, 0, 0}, {7.0, 7.0, 9.5}, {true, true, false});
  const auto p2 = random_points(mixed, 260, 18);
  expect_all_paths_match_brute_force(mixed, p2, cutoff);
}

TEST(NeighborList, FullListIsSymmetricAndTwiceTheHalfList) {
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 200, 5);

  NeighborListConfig half_cfg;
  half_cfg.cutoff = 3.2;
  NeighborList half(box, half_cfg);
  half.build(points);

  NeighborListConfig full_cfg = half_cfg;
  full_cfg.mode = NeighborMode::Full;
  NeighborList full(box, full_cfg);
  full.build(points);

  EXPECT_EQ(full.pair_count(), 2 * half.pair_count());
  for (std::size_t i = 0; i < full.atom_count(); ++i) {
    for (std::uint32_t j : full.neighbors(i)) {
      const auto nbrs = full.neighbors(j);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(),
                          static_cast<std::uint32_t>(i)),
                nbrs.end())
          << "asymmetric pair " << i << "," << j;
    }
  }
}

TEST(NeighborList, BccIronCoordinationWithinPotentialRange) {
  // bcc Fe: 8 first-shell (2.48 A) + 6 second-shell (2.87 A) neighbors lie
  // inside the FS cutoff + 0.4 skin (3.97 A); the 12 third-shell atoms at
  // 4.05 A do not. A full list must see exactly 14 per atom.
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 4;
  const auto positions = build_lattice(spec);

  NeighborListConfig cfg;
  cfg.cutoff = 3.569745;
  cfg.skin = 0.4;
  cfg.mode = NeighborMode::Full;
  NeighborList list(spec.box(), cfg);
  list.build(positions);

  for (std::size_t i = 0; i < list.atom_count(); ++i) {
    EXPECT_EQ(list.neighbors(i).size(), 14u) << "atom " << i;
  }
  EXPECT_DOUBLE_EQ(list.mean_neighbors(), 14.0);

  // mean_neighbors is mode-aware physical coordination: the half list
  // stores each pair once but must report the same 14.
  NeighborListConfig half_cfg = cfg;
  half_cfg.mode = NeighborMode::Half;
  NeighborList half(spec.box(), half_cfg);
  half.build(positions);
  EXPECT_DOUBLE_EQ(half.mean_neighbors(), 14.0);
}

TEST(NeighborList, MeanNeighborsMatchesBruteForceInBothModes) {
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 250, 77);
  const double cutoff = 3.1;
  const auto pairs = brute_force_pairs(box, points, cutoff);
  const double physical = 2.0 * static_cast<double>(pairs.size()) /
                          static_cast<double>(points.size());

  NeighborListConfig cfg;
  cfg.cutoff = cutoff;
  cfg.skin = 0.0;
  NeighborList half(box, cfg);
  half.build(points);
  EXPECT_DOUBLE_EQ(half.mean_neighbors(), physical);

  NeighborListConfig full_cfg = cfg;
  full_cfg.mode = NeighborMode::Full;
  NeighborList full(box, full_cfg);
  full.build(points);
  EXPECT_DOUBLE_EQ(full.mean_neighbors(), physical);
}

TEST(NeighborList, SortNeighborsProducesAscendingSublists) {
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 300, 21);
  NeighborListConfig cfg;
  cfg.cutoff = 3.4;
  cfg.sort_neighbors = true;
  NeighborList list(box, cfg);
  list.build(points);
  for (std::size_t i = 0; i < list.atom_count(); ++i) {
    const auto nbrs = list.neighbors(i);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(NeighborList, CsrArraysAreConsistent) {
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 120, 3);
  NeighborListConfig cfg;
  cfg.cutoff = 3.4;
  NeighborList list(box, cfg);
  list.build(points);

  const auto& index = list.neigh_index();
  const auto& len = list.neigh_len();
  ASSERT_EQ(index.size(), points.size() + 1);
  ASSERT_EQ(len.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(index[i] + len[i], index[i + 1]);
  }
  EXPECT_EQ(index.back(), list.neigh_list().size());
}

TEST(NeighborList, NeedsRebuildAfterDriftBeyondHalfSkin) {
  const Box box = Box::cubic(13.0);
  auto points = random_points(box, 50, 8);
  NeighborListConfig cfg;
  cfg.cutoff = 3.0;
  cfg.skin = 0.5;
  NeighborList list(box, cfg);
  list.build(points);
  EXPECT_FALSE(list.needs_rebuild(points));

  points[10].x += 0.2;  // below skin/2
  EXPECT_FALSE(list.needs_rebuild(points));
  points[10].x += 0.1;  // beyond skin/2 total
  EXPECT_TRUE(list.needs_rebuild(points));
}

TEST(NeighborList, NeedsRebuildAfterAPositionIsWrapped) {
  // A wrapped position is the same point in the periodic box, but the
  // image codes stored for its pairs no longer describe it.
  const Box box = Box::cubic(13.0);
  auto points = random_points(box, 50, 8);
  NeighborListConfig cfg;
  cfg.cutoff = 3.0;
  NeighborList list(box, cfg);
  list.build(points);
  points[10].x += box.length(0);
  EXPECT_TRUE(list.needs_rebuild(points));
}

TEST(NeighborList, NeedsRebuildOnAtomCountChange) {
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 50, 8);
  NeighborListConfig cfg;
  cfg.cutoff = 3.0;
  NeighborList list(box, cfg);
  list.build(points);
  const auto fewer = std::vector<Vec3>(points.begin(), points.end() - 1);
  EXPECT_TRUE(list.needs_rebuild(fewer));
}

TEST(NeighborList, SkinWidensTheStoredRange) {
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 250, 99);
  NeighborListConfig no_skin;
  no_skin.cutoff = 3.0;
  no_skin.skin = 0.0;
  NeighborListConfig with_skin = no_skin;
  with_skin.skin = 0.6;

  NeighborList a(box, no_skin), b(box, with_skin);
  a.build(points);
  b.build(points);
  EXPECT_GT(b.pair_count(), a.pair_count());
}

TEST(NeighborList, RejectsBadConfig) {
  const Box box = Box::cubic(13.0);
  NeighborListConfig cfg;
  cfg.cutoff = 0.0;
  EXPECT_THROW(NeighborList(box, cfg), PreconditionError);
  cfg.cutoff = 3.0;
  cfg.skin = -0.1;
  EXPECT_THROW(NeighborList(box, cfg), PreconditionError);
}

TEST(NeighborList, MemoryAccountingIncludesEveryComponent) {
  const Box box = Box::cubic(13.0);
  const auto points = random_points(box, 100, 1);
  NeighborListConfig cfg;
  cfg.cutoff = 3.0;
  NeighborList list(box, cfg);
  list.build(points);
  // The gauge must equal the sum of the CSR arrays, the staleness
  // snapshot, the build scratch and the embedded CellList (once
  // under-reported as zero).
  const std::size_t expected =
      list.neigh_index().size() * sizeof(std::size_t) +
      list.neigh_len().size() * sizeof(std::uint32_t) +
      list.neigh_list().size() * sizeof(std::uint32_t) +
      list.neigh_image().size() * sizeof(std::uint8_t) +
      points.size() * sizeof(Vec3) + list.scratch_bytes() +
      list.cells().memory_bytes();
  EXPECT_EQ(list.memory_bytes(), expected);
  // The cell list's gauge covers its cell-order copy: x/y/z, the slot
  // ids, the atom -> slot and atom -> cell maps and the wrap codes.
  const std::size_t per_atom = 3 * sizeof(double) +
                               3 * sizeof(std::uint32_t) +
                               sizeof(std::uint8_t);
  EXPECT_GE(list.cells().memory_bytes(), points.size() * per_atom);
  // Its stencil runs are stored per boundary class, not per cell: beyond
  // the per-atom arrays it holds a cell start, a class byte and a
  // histogram slot per thread for each cell, plus at most 27 tables.
  const std::size_t cells = list.cells().cell_count();
  const std::size_t per_cell =
      sizeof(std::uint32_t) + sizeof(std::uint8_t) +
      static_cast<std::size_t>(max_threads()) * sizeof(std::uint32_t);
  const std::size_t tables = (2 * 27 + 1) * sizeof(std::uint32_t) +
                             27 * (27 + 14) * sizeof(StencilRun);
  EXPECT_LE(list.cells().memory_bytes(),
            points.size() * per_atom + (cells + 1) * per_cell + tables);
  // The scratch holds every row, and its image codes, between builds.
  EXPECT_GE(list.scratch_bytes(),
            list.pair_count() * (sizeof(std::uint32_t) + sizeof(std::uint8_t)));
  EXPECT_GT(list.memory_bytes(),
            list.pair_count() * sizeof(std::uint32_t));
}

TEST(NeighborList, UpdateBoxReusesStorageUntilTheGridReshapes) {
  Box box = Box::cubic(12.0);
  const double cutoff = 2.6;  // + 0.4 skin -> 3.0 range, 4x4x4 grid
  auto points = random_points(box, 300, 55);
  NeighborListConfig cfg;
  cfg.cutoff = cutoff;
  NeighborList list(box, cfg);
  list.build(points);
  EXPECT_EQ(list.stats().builds, 1u);
  EXPECT_EQ(list.stats().grid_reshapes, 0u);
  EXPECT_EQ(list.stats().stencil_rebuilds, 1u);

  // A small barostat-style rescale keeps 4 cells per dim: no reshape.
  Box grown = box;
  grown.rescale({1.01, 1.01, 1.01});
  EXPECT_FALSE(list.update_box(grown));
  EXPECT_EQ(list.stats().grid_reshapes, 0u);
  EXPECT_EQ(list.stats().stencil_rebuilds, 1u);

  // A large rescale crosses a cell-count boundary: reshape + new stencils.
  Box large = box;
  large.rescale({1.3, 1.3, 1.3});  // 15.6 / 3.0 -> 5 cells per dim
  EXPECT_TRUE(list.update_box(large));
  EXPECT_EQ(list.stats().grid_reshapes, 1u);
  EXPECT_EQ(list.stats().stencil_rebuilds, 2u);

  // Rebuilding against the new box still enumerates exactly the physical
  // pair set (affine-remap the points like the barostat does).
  for (auto& r : points) r = large.affine_map(r, box);
  list.build(points);
  const auto expected =
      pair_set(brute_force_pairs(large, points, cutoff + cfg.skin));
  EXPECT_EQ(pairs_from_half_list(list), expected);
}

TEST(NeighborList, ConfigCompatibilityGatesInPlaceReuse) {
  const Box box = Box::cubic(13.0);
  NeighborListConfig cfg;
  cfg.cutoff = 3.0;
  NeighborList list(box, cfg);
  EXPECT_TRUE(list.config_compatible(cfg));
  NeighborListConfig other = cfg;
  other.skin = 0.9;
  EXPECT_FALSE(list.config_compatible(other));
  other = cfg;
  other.mode = NeighborMode::Full;
  EXPECT_FALSE(list.config_compatible(other));
  other = cfg;
  other.sort_neighbors = true;
  EXPECT_FALSE(list.config_compatible(other));
}

/// Half and full lists, each in stencil order and sorted, at the default
/// skin.
std::vector<NeighborListConfig> team_size_configs() {
  NeighborListConfig half;
  half.cutoff = 3.0;
  NeighborListConfig full = half;
  full.mode = NeighborMode::Full;
  NeighborListConfig sorted_half = half;
  sorted_half.sort_neighbors = true;
  NeighborListConfig sorted_full = full;
  sorted_full.sort_neighbors = true;
  return {half, full, sorted_half, sorted_full};
}

TEST(NeighborList, RowsAreBitwiseIdenticalForTeamSizesOneToFour) {
  // Each thread enumerates its own chunk of atoms, so the chunking changes
  // with the team size; the CSR arrays must not.
  ThreadCountGuard guard;
  const Box box = Box::cubic(22.0);
  const auto points = random_points(box, 3000, 404);
  for (const NeighborListConfig& cfg : team_size_configs()) {
    set_threads(1);
    NeighborList reference(box, cfg);
    reference.build(points);
    const ListArrays expected(reference);
    ASSERT_GT(reference.pair_count(), 0u);
    for (int team = 2; team <= 4; ++team) {
      set_threads(team);
      NeighborList list(box, cfg);
      list.build(points);
      EXPECT_TRUE(ListArrays(list) == expected)
          << "team " << team << ", mode "
          << (cfg.mode == NeighborMode::Half ? "half" : "full")
          << ", sorted " << cfg.sort_neighbors;
    }
  }
}

TEST(NeighborList, RowsStayIdenticalAcrossGrowingAndShrinkingRebuilds) {
  // A rebuild on a denser configuration outgrows the scratch the previous
  // build sized; one back on the sparse configuration shrinks the list.
  // Both must reproduce a fresh single-thread build exactly.
  ThreadCountGuard guard;
  const Box box = Box::cubic(22.0);
  const auto sparse = random_points(box, 3000, 405);
  std::vector<Vec3> dense = sparse;
  for (Vec3& r : dense) r = r * 0.6;  // ~4.6x the density in 0.6^3 of it
  for (const NeighborListConfig& cfg : team_size_configs()) {
    set_threads(1);
    NeighborList fresh_sparse(box, cfg), fresh_dense(box, cfg);
    fresh_sparse.build(sparse);
    fresh_dense.build(dense);
    const ListArrays expect_sparse(fresh_sparse), expect_dense(fresh_dense);
    for (int team = 1; team <= 4; ++team) {
      set_threads(team);
      NeighborList list(box, cfg);
      list.build(sparse);
      const std::size_t scratch = list.scratch_bytes();
      list.build(dense);
      EXPECT_GT(list.pair_count() * sizeof(std::uint32_t), scratch)
          << "the dense rebuild must outgrow the sparse build's scratch";
      EXPECT_TRUE(ListArrays(list) == expect_dense) << "grow, team " << team;
      list.build(sparse);
      EXPECT_TRUE(ListArrays(list) == expect_sparse)
          << "shrink, team " << team;
    }
  }
}

TEST(NeighborList, ThreeCellPeriodicGridsMatchBruteForce) {
  // Exactly 3 cells per periodic dimension: the -1 and +1 neighbors of an
  // edge cell are distinct cells, one of them through a periodic image.
  const double cutoff = 3.0;
  const Box cube = Box::cubic(9.5);
  ASSERT_EQ(CellList(cube, cutoff).nx(), 3);
  expect_all_paths_match_brute_force(cube, random_points(cube, 320, 19),
                                     cutoff);
  // Mixed: 3 and 2 cells on the periodic dims, 3 on the open one.
  const Box mixed({0, 0, 0}, {9.5, 7.0, 9.9}, {true, true, false});
  expect_all_paths_match_brute_force(
      mixed, random_points(mixed, 260, 20), cutoff);
}

TEST(NeighborList, AtomsOnCellFacesAndBoxEdgesMatchBruteForce) {
  // 10 / 3 -> 3 cells per dimension. Coordinates sit on the cell faces,
  // at lo, and at hi minus one ulp, where binning and the image shifts
  // meet; pairs across the periodic boundary lie an ulp apart.
  const double cutoff = 3.0;
  const Box box = Box::cubic(10.0);
  const double top = std::nextafter(10.0, 0.0);
  const std::array<double, 5> marks{0.0, 10.0 / 3.0, 20.0 / 3.0, top, 5.0};
  Xoshiro256 rng(71);
  std::vector<Vec3> points;
  for (const double a : marks) {
    for (const double b : marks) {
      for (const double c : marks) points.push_back({a, b, c});
      points.push_back({a, b, rng.uniform(0.0, 10.0)});
      points.push_back({rng.uniform(0.0, 10.0), a, b});
      points.push_back({b, rng.uniform(0.0, 10.0), a});
    }
  }
  expect_all_paths_match_brute_force(box, points, cutoff);
}

TEST(NeighborList, RescaledBoxWithoutReshapeMatchesBruteForce) {
  // update_box() keeps the stencil runs and their image codes; the
  // rebuild must scale the codes by the new edges, not the old ones.
  const double cutoff = 3.0;
  const Box box({0, 0, 0}, {9.5, 9.5, 12.5});  // 3 x 3 x 4 cells
  const auto before = random_points(box, 360, 23);
  Box grown = box;
  grown.rescale({1.04, 1.07, 0.98});  // still 3 x 3 x 4 cells
  std::vector<Vec3> after;
  for (const Vec3& r : before) after.push_back(grown.affine_map(r, box));
  expect_all_paths_match_brute_force(grown, after, cutoff, &box, before);
}

TEST(NeighborList, OneCellOpenAxisMatchesBruteForce) {
  // An open axis shorter than the range has a single cell, whose stencil
  // has no neighbor on that axis.
  const double cutoff = 3.0;
  const Box box({0, 0, 0}, {2.5, 9.5, 13.0}, {false, true, true});
  ASSERT_EQ(CellList(box, cutoff).nx(), 1);
  expect_all_paths_match_brute_force(box, random_points(box, 200, 29),
                                     cutoff);
}

TEST(NeighborList, PositionsOutsideTheBoxFoldTheirWrapIntoTheCodes) {
  // The cell list bins wrapped positions; each atom's wrap is folded into
  // its pairs' codes, so the codes describe the positions as given.
  const double cutoff = 3.0;
  const Box box({0, 0, 0}, {9.5, 13.0, 10.0});  // 3 x 4 x 3 cells
  // The whole configuration shifted by up to 0.4 of an edge per axis.
  const Vec3 shift{0.4 * 9.5, -0.4 * 13.0, 0.25 * 10.0};
  std::vector<Vec3> shifted = random_points(box, 300, 24);
  for (Vec3& r : shifted) r += shift;
  expect_all_paths_match_brute_force(box, shifted, cutoff);
  // Atoms scattered up to a quarter edge beyond every face.
  Xoshiro256 rng(25);
  std::vector<Vec3> spread(300);
  for (Vec3& r : spread) {
    r = {rng.uniform(-0.24 * 9.5, 1.24 * 9.5),
         rng.uniform(-0.24 * 13.0, 1.24 * 13.0),
         rng.uniform(-0.24 * 10.0, 1.24 * 10.0)};
  }
  expect_all_paths_match_brute_force(box, spread, cutoff);
}

TEST(NeighborList, CodesHoldWhileAtomsMoveLessThanHalfTheSkin) {
  // Between builds the rows keep using the codes: after every atom moved
  // by just under skin/2 (some out of the box), each stored pair's code
  // must still give its minimum image bitwise, with no rebuild due.
  ThreadCountGuard guard;
  const Box box = Box::cubic(13.0);  // edges > 2 * (cutoff + 2 * skin)
  const auto points = random_points(box, 400, 26);
  NeighborListConfig base;
  base.cutoff = 2.6;
  base.skin = 0.6;
  Xoshiro256 rng(27);
  std::vector<Vec3> moved = points;
  for (Vec3& r : moved) {
    const Vec3 d{rng.normal(0.0, 1.0), rng.normal(0.0, 1.0),
                 rng.normal(0.0, 1.0)};
    r += (0.999 * 0.5 * base.skin / norm(d)) * d;
  }
  for (const NeighborMode mode : {NeighborMode::Half, NeighborMode::Full}) {
    for (const bool sorted : {false, true}) {
      for (int team = 1; team <= 4; ++team) {
        set_threads(team);
        NeighborListConfig cfg = base;
        cfg.mode = mode;
        cfg.sort_neighbors = sorted;
        NeighborList list(box, cfg);
        list.build(points);
        const std::string where =
            std::string(mode == NeighborMode::Half ? "half" : "full") +
            " list, sorted " + std::to_string(sorted) + ", team " +
            std::to_string(team);
        EXPECT_FALSE(list.needs_rebuild(moved)) << where;
        expect_images_are_minimum_image(list, box, moved, where);
      }
    }
  }
}

TEST(NeighborList, PositionsBeyondTheLimitThrowAndLeaveTheListEmpty) {
  const double cutoff = 3.0;
  const Box box = Box::cubic(9.5);  // 3 cells per axis
  const auto points = random_points(box, 100, 28);
  // One atom two edges outside the box.
  std::vector<Vec3> far = points;
  far[5].x += 2.0 * box.length(0);
  // Two atoms 1.0 apart through the x boundary, sticking out beyond
  // opposite faces by 4.25 each: together more than L - range = 6.5, so
  // their image is two edges away. Sticking out by 1.0 and 0.5 they are
  // still coded.
  std::vector<Vec3> opposite = points;
  opposite.push_back({9.5 + 4.25, 5.0, 5.0});
  opposite.push_back({-4.25, 5.0, 5.0});
  std::vector<Vec3> near = points;
  near.push_back({9.5 + 1.0, 5.0, 5.0});
  near.push_back({-0.5, 5.0, 5.0});
  for (const NeighborMode mode : {NeighborMode::Half, NeighborMode::Full}) {
    NeighborListConfig cfg;
    cfg.cutoff = cutoff;
    cfg.skin = 0.0;
    cfg.mode = mode;
    NeighborList list(box, cfg);
    for (const auto* bad : {&far, &opposite}) {
      list.build(points);
      ASSERT_GT(list.pair_count(), 0u);
      EXPECT_THROW(list.build(*bad), PreconditionError);
      // Empty, so every computer refuses it and a rebuild is due.
      EXPECT_EQ(list.atom_count(), 0u);
      EXPECT_EQ(list.pair_count(), 0u);
      EXPECT_TRUE(list.needs_rebuild(points));
    }
    list.build(near);
    EXPECT_EQ(pairs_from_half_list(list),
              pair_set(brute_force_pairs(box, near, cutoff)));
    expect_images_are_minimum_image(list, box, near, "near the faces");
  }
}

#ifdef SDCMD_VECTOR_CANDIDATES
/// `v` as computed, out of reach of FMA contraction.
double opaque(double v) {
  asm("" : "+x"(v));
  return v;
}

/// One candidate run's slot arrays, allocated to exactly end +
/// CellList::kSlotPadding entries, as the cell list pads them, so a read
/// past the padding lands in ASan's redzone.
struct PaddedRun {
  std::vector<double> x, y, z;
  std::vector<std::uint32_t> ids;

  PaddedRun(std::span<const Vec3> positions, std::size_t begin) {
    const std::size_t size =
        begin + positions.size() + CellList::kSlotPadding;
    x.assign(size, 0.0);
    y.assign(size, 0.0);
    z.assign(size, 0.0);
    ids.assign(size, 0);
    for (std::size_t k = 0; k < positions.size(); ++k) {
      x[begin + k] = positions[k].x;
      y[begin + k] = positions[k].y;
      z[begin + k] = positions[k].z;
      ids[begin + k] = static_cast<std::uint32_t>(1000 + 7 * k);
    }
  }

  detail::CandidateSlots slots() const {
    return {x.data(), y.data(), z.data(), ids.data()};
  }
};

/// Empty when both forms keep the same ids and codes for slots [begin,
/// end) and the vector form writes nothing past its count.
template <bool kSkipSelf>
std::string compare_forms(const PaddedRun& run, std::size_t begin,
                          std::size_t end, std::size_t self, const Vec3& xi,
                          const Vec3& s, std::uint8_t image, double range2) {
  constexpr std::uint32_t kUnset = 0xDEADBEEF;
  constexpr std::uint8_t kUnsetCode = 0xEE;
  const std::size_t room = end - begin + 8;
  std::vector<std::uint32_t> ids_s(room, kUnset), ids_v(room, kUnset);
  std::vector<std::uint8_t> codes_s(room, kUnsetCode),
      codes_v(room, kUnsetCode);
  const std::size_t kept_s = detail::append_run_scalar<kSkipSelf>(
      run.slots(), begin, end, self, xi, s, image, range2, ids_s.data(),
      codes_s.data());
  const std::size_t kept_v = detail::append_run_avx512<kSkipSelf>(
      run.slots(), begin, end, self, xi, s, image, range2, ids_v.data(),
      codes_v.data());
  std::ostringstream why;
  why << "run [" << begin << ", " << end << "), self " << self
      << ", skip self " << kSkipSelf << ", range2 " << std::hexfloat
      << range2 << ": ";
  if (kept_s != kept_v) {
    why << "scalar kept " << kept_s << ", vector kept " << kept_v;
    return why.str();
  }
  for (std::size_t k = 0; k < kept_s; ++k) {
    if (ids_s[k] != ids_v[k] || codes_s[k] != codes_v[k]) {
      why << "entry " << k << " differs";
      return why.str();
    }
  }
  for (std::size_t k = kept_v; k < room; ++k) {
    if (ids_v[k] != kUnset || codes_v[k] != kUnsetCode) {
      why << "vector form wrote past its count at " << k;
      return why.str();
    }
  }
  return {};
}

/// Squared distances of a candidate under the roundings a compiler may
/// give norm2, and an ulp either side of each: as range2, one of these
/// separates any two forms that round the candidate differently.
std::vector<double> boundary_range2s(const Vec3& xi, const Vec3& xj,
                                     const Vec3& s) {
  const double dx = (xi.x - xj.x) - s.x;
  const double dy = (xi.y - xj.y) - s.y;
  const double dz = (xi.z - xj.z) - s.z;
  const double xx = opaque(dx * dx);
  const double yy = opaque(dy * dy);
  const double zz = opaque(dz * dz);
  const double shapes[] = {
      std::fma(dz, dz, std::fma(dx, dx, yy)),
      opaque(opaque(xx + yy) + zz),
      std::fma(dz, dz, opaque(xx + yy)),
      std::fma(dx, dx, std::fma(dy, dy, zz)),
      std::fma(dy, dy, std::fma(dx, dx, zz)),
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> out;
  for (double v : shapes) {
    out.push_back(std::nextafter(v, -kInf));
    out.push_back(v);
    out.push_back(std::nextafter(v, kInf));
  }
  return out;
}
#endif

TEST(NeighborList, VectorCandidateTestMatchesTheScalarLoop) {
#ifndef SDCMD_VECTOR_CANDIDATES
  GTEST_SKIP() << "the AVX-512 candidate test is not compiled in this build "
                  "(it needs AVX-512F and AVX-512VL, e.g. -march=native on "
                  "such a host); the list build runs the scalar loop alone";
#else
  const double a0 = units::kLatticeFe;
  const double range = 3.569745 + 0.4;  // FS Fe cutoff + the default skin
  const double edge = 5 * a0;
  // Lattice runs: bcc sites, whose squared distances repeat exactly.
  std::vector<Vec3> lattice;
  for (int ix = 0; ix < 3; ++ix) {
    for (int iy = 0; iy < 3; ++iy) {
      for (int iz = 0; iz < 3; ++iz) {
        lattice.push_back({ix * a0, iy * a0, iz * a0});
        lattice.push_back({(ix + 0.5) * a0, (iy + 0.5) * a0, (iz + 0.5) * a0});
      }
    }
  }
  Xoshiro256 rng(4242);
  std::size_t checks = 0;
  std::vector<std::string> failures;
  auto check = [&](std::string why) {
    ++checks;
    if (!why.empty() && failures.size() < 5) failures.push_back(why);
  };
  for (int kind = 0; kind < 2; ++kind) {
    for (std::size_t len = 1; len <= 40; ++len) {
      // Lattice runs take consecutive sites around the middle one; random
      // runs scatter within two ranges of atom i.
      std::vector<Vec3> positions(len);
      const Vec3 centre = lattice[27];
      for (std::size_t k = 0; k < len; ++k) {
        positions[k] =
            kind == 0
                ? lattice[(27 + k) % lattice.size()]
                : Vec3{centre.x + rng.uniform(-2 * range, 2 * range),
                       centre.y + rng.uniform(-2 * range, 2 * range),
                       centre.z + rng.uniform(-2 * range, 2 * range)};
      }
      const std::size_t begin = len % 8;
      const std::size_t end = begin + len;
      const PaddedRun run(positions, begin);
      // Atom i through its own image, and a candidate run seen one edge
      // away on every axis.
      const int code = len % 2 == 0 ? 13 : static_cast<int>(rng.below(27));
      const Vec3 s{edge * (code / 9 - 1), edge * (code / 3 % 3 - 1),
                   edge * (code % 3 - 1)};
      const auto image = static_cast<std::uint8_t>(code);
      const Vec3 xi = code == 13 ? centre : centre + s;
      // Every candidate on the boundary, under each rounding and an ulp
      // either side; atom i's own slot outside the run.
      for (std::size_t k = 0; k < len; ++k) {
        for (double range2 : boundary_range2s(xi, positions[k], s)) {
          check(compare_forms<false>(run, begin, end, end, xi, s, image,
                                     range2));
          check(compare_forms<true>(run, begin, end, end, xi, s, image,
                                    range2));
        }
      }
      // A full row's own slot at every lane of the run (and just before
      // it), atom i sitting on that slot, at the list's range and on the
      // boundary of a neighbor of the slot.
      for (std::size_t self = begin == 0 ? begin : begin - 1; self < end;
           ++self) {
        const Vec3 own = self < begin ? centre : positions[self - begin];
        const Vec3 other = positions[(self + 1) % len];
        std::vector<double> range2s = boundary_range2s(own, other, Vec3{});
        range2s.push_back(range * range);
        for (double range2 : range2s) {
          check(compare_forms<true>(run, begin, end, self, own, Vec3{}, 13,
                                    range2));
        }
      }
    }
  }
  EXPECT_GT(checks, 10000u);
  EXPECT_TRUE(failures.empty()) << failures.size() << " or more failures, "
                                << "first: " << failures.front();
#endif
}

TEST(NeighborList, BuildAllocatesOnlyOnTheCallingThread) {
  // A malloc on an OpenMP worker opens a glibc arena that the process keeps
  // for good, so every buffer a build uses is sized by the calling thread -
  // the first build and a rebuild that outgrows its scratch included.
  ThreadCountGuard guard;
  set_threads(4);
  // The probe itself must see a worker's allocation.
  std::vector<std::unique_ptr<int>> slots(4);
  arm_allocation_probe();
#pragma omp parallel num_threads(4)
  {
    const int t = thread_id();
    slots[static_cast<std::size_t>(t)] = std::make_unique<int>(t);
  }
  EXPECT_GT(disarm_allocation_probe(), 0) << "probe missed worker allocations";

  const Box box = Box::cubic(22.0);
  const auto sparse = random_points(box, 3000, 406);
  std::vector<Vec3> dense = sparse;
  for (Vec3& r : dense) r = r * 0.6;
  for (const NeighborListConfig& cfg : team_size_configs()) {
    NeighborList list(box, cfg);
    arm_allocation_probe();
    list.build(sparse);
    list.build(dense);
    list.build(sparse);
    EXPECT_EQ(disarm_allocation_probe(), 0)
        << "mode " << (cfg.mode == NeighborMode::Half ? "half" : "full")
        << ", sorted " << cfg.sort_neighbors;
  }
}

}  // namespace
}  // namespace sdcmd
