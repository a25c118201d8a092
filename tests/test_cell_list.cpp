#include "neighbor/cell_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "geom/lattice.hpp"

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

TEST(CellList, GridDimensionsRespectMinimumCellSize) {
  const Box box({0, 0, 0}, {10.0, 20.0, 7.0});
  CellList cells(box, 3.0);
  EXPECT_EQ(cells.nx(), 3);
  EXPECT_EQ(cells.ny(), 6);
  EXPECT_EQ(cells.nz(), 2);
  EXPECT_EQ(cells.cell_count(), 36u);
}

TEST(CellList, RejectsPeriodicBoxSmallerThanTwoCells) {
  const Box box = Box::cubic(5.0);
  EXPECT_THROW(CellList(box, 3.0), PreconditionError);
}

TEST(CellList, EveryAtomLandsInExactlyOneCell) {
  const Box box = Box::cubic(12.0);
  CellList cells(box, 3.0);
  const auto points = random_points(box, 500, 42);
  cells.build(points);

  std::set<std::uint32_t> seen;
  std::size_t total = 0;
  for (std::size_t c = 0; c < cells.cell_count(); ++c) {
    for (std::uint32_t i : cells.atoms_in(c)) {
      EXPECT_TRUE(seen.insert(i).second) << "atom " << i << " binned twice";
      EXPECT_EQ(cells.cell_of(points[i]), c);
      ++total;
    }
  }
  EXPECT_EQ(total, points.size());
}

/// One stencil entry: a neighbor cell and the image code it is seen
/// through.
using Entry = std::pair<std::size_t, int>;

/// Every (cell, image) entry the runs cover, in run order.
std::vector<Entry> expand(std::span<const StencilRun> runs) {
  std::vector<Entry> out;
  for (const StencilRun& run : runs) {
    for (std::size_t c = run.first; c < run.first + run.cells; ++c) {
      out.emplace_back(c, run.image);
    }
  }
  return out;
}

constexpr int kSelfImage = CellList::image_code(0, 0, 0);

/// The image code seen from the other side of the pair.
int mirrored(int code) { return 26 - code; }

TEST(CellList, StencilContainsSelfOnce) {
  const Box box = Box::cubic(12.0);
  CellList cells(box, 3.0);
  for (std::size_t c = 0; c < cells.cell_count(); ++c) {
    const auto full = expand(cells.runs(c));
    EXPECT_EQ(std::count(full.begin(), full.end(), Entry{c, kSelfImage}), 1);
    EXPECT_EQ(expand(cells.half_runs(c)).front(), (Entry{c, kSelfImage}));
  }
}

TEST(CellList, StencilHas27CellsOnLargeGrid) {
  const Box box = Box::cubic(15.0);
  CellList cells(box, 3.0);  // 5x5x5 grid
  for (std::size_t c = 0; c < cells.cell_count(); ++c) {
    const auto full = expand(cells.runs(c));
    EXPECT_EQ(full.size(), 27u);
    std::set<std::size_t> unique;
    for (const auto& e : full) unique.insert(e.first);
    EXPECT_EQ(unique.size(), 27u);
  }
}

TEST(CellList, RunsAreAscendingAndMergeWholeColumns) {
  const Box box = Box::cubic(15.0);
  CellList cells(box, 3.0);  // 5x5x5 grid
  for (std::size_t c = 0; c < cells.cell_count(); ++c) {
    for (const auto& runs : {cells.runs(c), cells.half_runs(c)}) {
      for (std::size_t r = 1; r < runs.size(); ++r) {
        EXPECT_LE(runs[r - 1].first + runs[r - 1].cells, runs[r].first);
      }
    }
  }
  // An interior cell: 9 whole z-columns; its half stencil is its own cell
  // and the next one, then 4 whole columns.
  const std::size_t interior = cells.cell_of({7.5, 7.5, 7.5});
  EXPECT_EQ(cells.runs(interior).size(), 9u);
  EXPECT_EQ(cells.half_runs(interior).size(), 5u);
  EXPECT_EQ(cells.half_runs(interior)[0].cells, 2u);
}

TEST(CellList, NarrowGridKeepsBothImagesOfTheOtherCell) {
  const Box box = Box::cubic(8.0);
  CellList cells(box, 3.8);  // 2x2x2 grid: +/-1 reach the same cell
  for (std::size_t c = 0; c < cells.cell_count(); ++c) {
    const auto full = expand(cells.runs(c));
    const std::set<Entry> unique(full.begin(), full.end());
    EXPECT_EQ(unique.size(), 27u);  // every offset its own entry
    std::set<std::size_t> cell_ids;
    for (const auto& e : full) cell_ids.insert(e.first);
    EXPECT_EQ(cell_ids.size(), 8u);  // all cells are mutual neighbors
  }
}

TEST(CellList, NonPeriodicBoundariesTruncateStencil) {
  const Box box({0, 0, 0}, {9.0, 9.0, 9.0}, {false, false, false});
  CellList cells(box, 3.0);  // 3x3x3
  // corner cell: 2x2x2 = 8 stencil entries
  const std::size_t corner = cells.cell_of({0.1, 0.1, 0.1});
  EXPECT_EQ(expand(cells.runs(corner)).size(), 8u);
  // center cell: full 27
  const std::size_t center = cells.cell_of({4.5, 4.5, 4.5});
  EXPECT_EQ(expand(cells.runs(center)).size(), 27u);
  for (std::size_t c = 0; c < cells.cell_count(); ++c) {
    for (const StencilRun& run : cells.runs(c)) {
      EXPECT_EQ(run.image, kSelfImage) << "open box, cell " << c;
    }
  }
}

/// For every pair within range, exactly one entry of i's full stencil sees
/// j within range, through an image shift that reproduces the minimum
/// image bitwise.
void expect_pairs_covered_once(const Box& box, const CellList& cells,
                               std::span<const Vec3> points, double range) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Vec3 wi = box.wrap(points[i]);
    const auto full = expand(cells.runs(cells.cell_of(points[i])));
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      const double expected = box.distance2(points[i], points[j]);
      if (!(expected < range * range)) continue;
      const Vec3 wj = box.wrap(points[j]);
      int seen = 0;
      for (const auto& [cell, image] : full) {
        if (cell != cells.cell_of(points[j])) continue;
        const Vec3 dr = (wi - wj) - cells.image_shift(
                                        static_cast<std::size_t>(image));
        if (norm2(dr) < range * range) {
          ++seen;
          EXPECT_EQ(norm2(dr), expected) << "pair (" << i << "," << j << ")";
        }
      }
      EXPECT_EQ(seen, 1) << "pair (" << i << "," << j << ")";
    }
  }
}

TEST(CellList, AllNearbyPairsAreCoveredByTheStencil) {
  const Box box = Box::cubic(14.0);
  const double range = 3.3;
  CellList cells(box, range);
  const auto points = random_points(box, 300, 7);
  cells.build(points);
  expect_pairs_covered_once(box, cells, points, range);
}

TEST(CellList, NarrowGridPairsAreCoveredThroughOneImage) {
  const Box box({0, 0, 0}, {7.0, 8.0, 10.0});
  const double range = 3.4;  // 2 x 2 x 2 cells
  CellList cells(box, range);
  const auto points = random_points(box, 200, 8);
  cells.build(points);
  expect_pairs_covered_once(box, cells, points, range);
}

TEST(CellList, OutOfBoxPositionsAreWrappedForBinning) {
  const Box box = Box::cubic(12.0);
  CellList cells(box, 3.0);
  EXPECT_EQ(cells.cell_of({13.0, 1.0, 1.0}), cells.cell_of({1.0, 1.0, 1.0}));
  EXPECT_EQ(cells.cell_of({-1.0, 1.0, 1.0}), cells.cell_of({11.0, 1.0, 1.0}));
}

// Half-stencil invariant: every half stencil starts at its own cell and
// then holds exactly its full stencil's entries of greater flat index, so
// every adjacent cell pair {a, b} is owned, in each image, by exactly one
// of the two sides. This is what lets half-mode pair enumeration visit each
// cross-cell pair exactly once.
void check_half_stencil_invariant(const CellList& cells) {
  std::set<std::tuple<std::size_t, std::size_t, int>> owned;
  for (std::size_t c = 0; c < cells.cell_count(); ++c) {
    const auto half = expand(cells.half_runs(c));
    ASSERT_FALSE(half.empty());
    EXPECT_EQ(half.front(), (Entry{c, kSelfImage}));
    std::vector<Entry> greater;
    for (const auto& e : expand(cells.runs(c))) {
      if (e.first > c) greater.push_back(e);
    }
    EXPECT_EQ(std::vector<Entry>(half.begin() + 1, half.end()), greater)
        << "cell " << c;
    for (std::size_t k = 1; k < half.size(); ++k) {
      EXPECT_GT(half[k].first, c);
      EXPECT_TRUE(owned.insert({c, half[k].first, half[k].second}).second)
          << "cell pair {" << c << "," << half[k].first << "} owned twice";
    }
  }
  // Every non-self full-stencil entry must be owned by exactly one side.
  for (std::size_t c = 0; c < cells.cell_count(); ++c) {
    for (const auto& [other, image] : expand(cells.runs(c))) {
      if (other == c) continue;
      const bool mine = owned.count({c, other, image}) != 0;
      const bool theirs = owned.count({other, c, mirrored(image)}) != 0;
      EXPECT_NE(mine, theirs)
          << "adjacency {" << c << "," << other << "} image " << image;
    }
  }
}

TEST(CellList, HalfStencilOwnsEachAdjacencyOnceOnLargeGrid) {
  const Box box = Box::cubic(15.0);
  CellList cells(box, 3.0);  // 5x5x5: interior half stencils have 13 cells
  check_half_stencil_invariant(cells);
}

TEST(CellList, HalfStencilOwnsEachAdjacencyOnceOnNarrowGrid) {
  const Box box = Box::cubic(8.0);
  CellList cells(box, 3.8);  // 2x2x2: wrapping collapses the stencils
  check_half_stencil_invariant(cells);
}

TEST(CellList, HalfStencilOwnsEachAdjacencyOnceOnMixedPeriodicity) {
  const Box box({0, 0, 0}, {7.0, 9.0, 12.0}, {true, false, true});
  CellList cells(box, 3.0);  // 2x3x4, mixed wrap/truncate
  check_half_stencil_invariant(cells);
}

/// The runs of `cell` constructed from that cell alone, as every cell
/// once stored them: its stencil entries ascending by (cell, image),
/// cut at the cell itself for the half stencil, merged into runs.
std::vector<StencilRun> per_cell_runs(const CellList& cells, const Box& box,
                                      std::size_t cell, bool half) {
  const int n[3] = {cells.nx(), cells.ny(), cells.nz()};
  const int at[3] = {static_cast<int>(cell / (n[1] * n[2])),
                     static_cast<int>(cell / n[2] % n[1]),
                     static_cast<int>(cell % n[2])};
  std::vector<Entry> entries;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        const int d[3] = {dx, dy, dz};
        int idx[3], image[3];
        bool valid = true;
        for (int a = 0; a < 3; ++a) {
          idx[a] = at[a] + d[a];
          image[a] = idx[a] < 0 ? -1 : idx[a] >= n[a] ? 1 : 0;
          if (image[a] != 0 && !box.periodic(a)) valid = false;
          idx[a] -= image[a] * n[a];
        }
        if (!valid) continue;
        entries.emplace_back((static_cast<std::size_t>(idx[0]) * n[1] +
                              static_cast<std::size_t>(idx[1])) * n[2] +
                                 static_cast<std::size_t>(idx[2]),
                             CellList::image_code(image[0], image[1],
                                                  image[2]));
      }
    }
  }
  std::sort(entries.begin(), entries.end());
  if (half) {
    std::erase_if(entries, [&](const Entry& e) { return e.first < cell; });
  }
  std::vector<StencilRun> runs;
  for (const auto& [c, image] : entries) {
    if (!runs.empty() && runs.back().image == image &&
        runs.back().first + runs.back().cells == c) {
      ++runs.back().cells;
    } else {
      runs.push_back({static_cast<std::uint32_t>(c), 1,
                      static_cast<std::uint16_t>(image)});
    }
  }
  return runs;
}

TEST(CellList, ClassTablesResolveToEachCellsOwnRuns) {
  // The runs are stored once per boundary class (first, interior or last
  // on each axis). On grids with 1 (open), 2, 3 and more cells per axis,
  // every cell's resolved runs must equal the ones built from the cell
  // alone, and the stencil must still cover every pair exactly once.
  const double range = 3.0;
  const std::vector<Box> boxes{
      Box({0, 0, 0}, {2.5, 9.5, 13.0}, {false, true, true}),    // 1 x 3 x 4
      Box::cubic(7.0),                                          // 2 x 2 x 2
      Box({0, 0, 0}, {7.0, 2.9, 16.0}, {true, false, true}),    // 2 x 1 x 5
      Box({0, 0, 0}, {9.5, 13.0, 6.5}, {false, false, false}),  // 3 x 4 x 2
      Box({0, 0, 0}, {15.0, 12.0, 9.5}),                        // 5 x 4 x 3
  };
  for (const Box& box : boxes) {
    const CellList cells(box, range);
    const std::string grid = std::to_string(cells.nx()) + "x" +
                             std::to_string(cells.ny()) + "x" +
                             std::to_string(cells.nz());
    for (std::size_t c = 0; c < cells.cell_count(); ++c) {
      for (const bool half : {false, true}) {
        const StencilRuns got = half ? cells.half_runs(c) : cells.runs(c);
        const auto want = per_cell_runs(cells, box, c, half);
        ASSERT_EQ(got.size(), want.size())
            << grid << " cell " << c << " half " << half;
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].first, want[r].first) << grid << " cell " << c;
          EXPECT_EQ(got[r].cells, want[r].cells) << grid << " cell " << c;
          EXPECT_EQ(got[r].image, want[r].image) << grid << " cell " << c;
        }
      }
    }
    check_half_stencil_invariant(cells);
    CellList binned(box, range);
    const auto points = random_points(box, 150, 31);
    binned.build(points);
    expect_pairs_covered_once(box, binned, points, range);
  }
}

TEST(CellList, BinningRecordsEachAtomsWrap) {
  // wrap_code() is the image the binning wrapped an atom from: its
  // wrapped position is x - L * a. Atoms one edge or more outside have no
  // code.
  const Box box = Box::cubic(12.0);
  CellList cells(box, 3.0);
  const std::vector<Vec3> points{{6.0, 6.0, 6.0},    {13.0, 1.0, 1.0},
                                 {-1.0, 5.0, 11.5},  {-1.0, 13.0, -0.5},
                                 {25.0, 1.0, 1.0},   {6.0, -12.5, 6.0}};
  cells.build(points);
  EXPECT_EQ(cells.wrap_code(0), CellList::kUnwrapped);
  EXPECT_EQ(cells.wrap_code(1), CellList::image_code(1, 0, 0));
  EXPECT_EQ(cells.wrap_code(2), CellList::image_code(-1, 0, 0));
  EXPECT_EQ(cells.wrap_code(3), CellList::image_code(-1, 1, -1));
  EXPECT_EQ(cells.wrap_code(4), CellList::kFarOutside);
  EXPECT_EQ(cells.wrap_code(5), CellList::kFarOutside);
  EXPECT_EQ(cells.wrapped_atoms(), 5u);
  EXPECT_EQ(cells.far_atoms(), 2u);
  // Parallel binning records the same codes.
  std::vector<Vec3> many;
  Xoshiro256 rng(32);
  for (int i = 0; i < 5000; ++i) {
    many.push_back({rng.uniform(-6.0, 18.0), rng.uniform(-6.0, 18.0),
                    rng.uniform(-6.0, 18.0)});
  }
  CellList serial(box, 3.0), parallel(box, 3.0);
  serial.build(many, /*parallel=*/false);
  parallel.build(many, /*parallel=*/true);
  for (std::size_t i = 0; i < many.size(); ++i) {
    EXPECT_EQ(parallel.wrap_code(i), serial.wrap_code(i));
  }
  EXPECT_EQ(parallel.wrapped_atoms(), serial.wrapped_atoms());
  EXPECT_EQ(parallel.far_atoms(), 0u);
}

TEST(CellList, UpdateBoxWithoutReshapeKeepsStencils) {
  Box box = Box::cubic(12.0);
  CellList cells(box, 3.0);  // 4x4x4
  EXPECT_EQ(cells.stencil_rebuilds(), 1u);
  cells.build(random_points(box, 50, 2));
  box.rescale({1.02, 1.02, 1.02});  // 12.24 / 3 -> still 4 cells per dim
  EXPECT_FALSE(cells.update_box(box));
  EXPECT_EQ(cells.nx(), 4);
  EXPECT_EQ(cells.stencil_rebuilds(), 1u);
  // The runs keep their image codes; the next build scales them by the
  // new edges.
  cells.build(random_points(box, 50, 3));
  EXPECT_EQ(cells.image_shift(CellList::image_code(-1, 0, 1)),
            (Vec3{-box.length(0), 0.0, box.length(2)}));
  EXPECT_EQ(cells.image_shift(CellList::image_code(0, 1, 0)),
            (Vec3{0.0, box.length(1), 0.0}));
}

TEST(CellList, UpdateBoxReshapesWhenGridChanges) {
  Box box = Box::cubic(12.0);
  CellList cells(box, 3.0);  // 4x4x4
  box.rescale({1.3, 1.3, 1.3});  // 15.6 / 3 -> 5 cells per dim
  EXPECT_TRUE(cells.update_box(box));
  EXPECT_EQ(cells.nx(), 5);
  EXPECT_EQ(cells.stencil_rebuilds(), 2u);
  // The reshaped grid still satisfies the half-stencil invariant and bins
  // correctly.
  check_half_stencil_invariant(cells);
  const auto points = random_points(box, 200, 11);
  cells.build(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(cells.binned_cell(i), cells.cell_of(points[i]));
  }
}

TEST(CellList, UpdateBoxRejectsTooSmallPeriodicBox) {
  Box box = Box::cubic(12.0);
  CellList cells(box, 3.0);
  EXPECT_THROW(cells.update_box(Box::cubic(5.0)), PreconditionError);
}

TEST(CellList, ParallelBinningMatchesSerial) {
  // Above the parallel threshold, the counting sort must produce exactly
  // the serial ordering (atoms ascending within each cell).
  const Box box = Box::cubic(24.0);
  const auto points = random_points(box, 5000, 123);
  CellList serial(box, 3.0), parallel(box, 3.0);
  serial.build(points, /*parallel=*/false);
  parallel.build(points, /*parallel=*/true);
  ASSERT_EQ(serial.cell_count(), parallel.cell_count());
  for (std::size_t c = 0; c < serial.cell_count(); ++c) {
    const auto a = serial.atoms_in(c);
    const auto b = parallel.atoms_in(c);
    ASSERT_EQ(a.size(), b.size()) << "cell " << c;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "cell " << c;
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(parallel.binned_cell(i), serial.binned_cell(i));
    EXPECT_EQ(parallel.slot_of(i), serial.slot_of(i));
  }
  // The cell-order copy holds each slot's atom at its wrapped position.
  for (std::size_t k = 0; k < points.size(); ++k) {
    const std::uint32_t i = parallel.slot_atoms()[k];
    EXPECT_EQ(parallel.slot_of(i), k);
    const Vec3 w = box.wrap(points[i]);
    EXPECT_EQ(parallel.slot_x()[k], w.x);
    EXPECT_EQ(parallel.slot_y()[k], w.y);
    EXPECT_EQ(parallel.slot_z()[k], w.z);
    EXPECT_EQ(serial.slot_x()[k], w.x);
  }
}

TEST(CellList, CellOrderCopyHoldsWrappedPositions) {
  const Box box = Box::cubic(12.0);
  CellList cells(box, 3.0);
  const std::vector<Vec3> points{{13.0, 1.0, 1.0}, {-1.0, 5.0, 11.5},
                                 {6.0, 6.0, 6.0}};
  cells.build(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t k = cells.slot_of(i);
    EXPECT_EQ(cells.slot_atoms()[k], i);
    EXPECT_GE(k, cells.cell_begin(cells.binned_cell(i)));
    EXPECT_LT(k, cells.cell_begin(cells.binned_cell(i) + 1));
    EXPECT_EQ((Vec3{cells.slot_x()[k], cells.slot_y()[k], cells.slot_z()[k]}),
              box.wrap(points[i]));
  }
}

}  // namespace
}  // namespace sdcmd
