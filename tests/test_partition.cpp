#include "domain/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/random.hpp"
#include "common/threads.hpp"
#include "geom/lattice.hpp"

#include "allocation_probe.hpp"

namespace sdcmd {
namespace {

constexpr double kRange = 2.0;

struct Fixture {
  Box box = Box::cubic(24.0);
  SpatialDecomposition decomposition =
      SpatialDecomposition::finest(box, 3, kRange);
  Coloring coloring{decomposition};
  Partition partition{decomposition, coloring};
};

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

TEST(Partition, EveryAtomAppearsExactlyOnce) {
  Fixture f;
  const auto points = random_points(f.box, 777, 13);
  f.partition.build(points);
  EXPECT_EQ(f.partition.atom_count(), points.size());

  std::set<std::uint32_t> seen;
  for (std::size_t slot = 0; slot < f.partition.subdomain_count(); ++slot) {
    for (std::uint32_t i : f.partition.atoms_in_slot(slot)) {
      EXPECT_TRUE(seen.insert(i).second) << "atom " << i << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), points.size());
}

TEST(Partition, AtomsLandInTheirGeometricSubdomain) {
  Fixture f;
  const auto points = random_points(f.box, 777, 13);
  f.partition.build(points);
  for (std::size_t slot = 0; slot < f.partition.subdomain_count(); ++slot) {
    const std::size_t sub = f.partition.subdomain_of_slot(slot);
    for (std::uint32_t i : f.partition.atoms_in_slot(slot)) {
      EXPECT_EQ(f.decomposition.subdomain_of(points[i]), sub);
    }
  }
}

TEST(Partition, ColorRangesAreContiguousAndComplete) {
  Fixture f;
  const auto points = random_points(f.box, 500, 3);
  f.partition.build(points);
  std::size_t slots = 0;
  for (int c = 0; c < f.partition.color_count(); ++c) {
    EXPECT_EQ(f.partition.color_begin(c), slots);
    EXPECT_GE(f.partition.color_end(c), f.partition.color_begin(c));
    slots = f.partition.color_end(c);
  }
  EXPECT_EQ(slots, f.partition.subdomain_count());
}

TEST(Partition, SlotsGroupedByColorHaveThatColor) {
  Fixture f;
  for (int c = 0; c < f.partition.color_count(); ++c) {
    for (std::size_t slot = f.partition.color_begin(c);
         slot < f.partition.color_end(c); ++slot) {
      EXPECT_EQ(f.coloring.color_of(f.partition.subdomain_of_slot(slot)), c);
    }
  }
}

TEST(Partition, PstartIsMonotoneCsr) {
  Fixture f;
  const auto points = random_points(f.box, 500, 3);
  f.partition.build(points);
  const auto& pstart = f.partition.pstart();
  ASSERT_EQ(pstart.size(), f.partition.subdomain_count() + 1);
  for (std::size_t s = 0; s + 1 < pstart.size(); ++s) {
    EXPECT_LE(pstart[s], pstart[s + 1]);
  }
  EXPECT_EQ(pstart.back(), points.size());
}

TEST(Partition, UniformLatticeBalancesColors) {
  // The paper: "overload balance can be achieved by the subdomains with
  // same color have roughly equal volume" under uniform density.
  // a0 chosen so the 4 A subdomain edge holds exactly two lattice cells:
  // commensurate tiling -> perfectly equal per-subdomain atom counts.
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = 2.0;
  spec.nx = spec.ny = spec.nz = 12;  // 24 A box

  Box box = spec.box();
  const auto d = SpatialDecomposition::finest(box, 3, kRange);
  const Coloring coloring(d);
  Partition partition(d, coloring);
  partition.build(build_lattice(spec));

  const auto per_color = partition.atoms_per_color();
  for (std::size_t c = 1; c < per_color.size(); ++c) {
    EXPECT_EQ(per_color[c], per_color[0]);
  }
  EXPECT_LT(partition.imbalance(), 1e-9);
}

TEST(Partition, RandomGasHasModerateImbalance) {
  Fixture f;
  const auto points = random_points(f.box, 20000, 77);
  f.partition.build(points);
  // ~93 atoms per subdomain: the worst of 216 Poisson counts deviates a
  // few sigma (~10 atoms) from the mean, far below 50%.
  EXPECT_LT(f.partition.imbalance(), 0.5);
  EXPECT_GT(f.partition.imbalance(), 0.0);
}

TEST(Partition, RebuildReflectsMovedAtoms) {
  Fixture f;
  std::vector<Vec3> points{{1.0, 1.0, 1.0}, {13.0, 13.0, 13.0}};
  f.partition.build(points);
  const auto sub_before = f.decomposition.subdomain_of(points[0]);

  points[0] = {23.0, 23.0, 23.0};
  f.partition.build(points);
  bool found = false;
  for (std::size_t slot = 0; slot < f.partition.subdomain_count(); ++slot) {
    for (std::uint32_t i : f.partition.atoms_in_slot(slot)) {
      if (i == 0) {
        EXPECT_NE(f.partition.subdomain_of_slot(slot), sub_before);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

/// Restores the OpenMP team size a test changed.
struct ThreadCountGuard {
  int saved = max_threads();
  ~ThreadCountGuard() { set_threads(saved); }
};

/// The arrays a build writes, copied for bitwise comparison.
struct PartitionArrays {
  std::vector<std::size_t> pstart;
  std::vector<std::uint32_t> partindex;

  explicit PartitionArrays(const Partition& p)
      : pstart(p.pstart()), partindex(p.partindex()) {}
  friend bool operator==(const PartitionArrays&,
                         const PartitionArrays&) = default;
};

TEST(Partition, ArraysAreBitwiseIdenticalForTeamSizesOneToFour) {
  // Each thread counts and scatters its own chunk of atoms, so the
  // chunking changes with the team size; pstart and partindex must not.
  ThreadCountGuard guard;
  Fixture f;
  const auto points = random_points(f.box, 6000, 91);
  set_threads(1);
  f.partition.build(points);
  const PartitionArrays expected(f.partition);
  for (std::size_t slot = 0; slot < f.partition.subdomain_count(); ++slot) {
    const auto atoms = f.partition.atoms_in_slot(slot);
    EXPECT_TRUE(std::is_sorted(atoms.begin(), atoms.end())) << slot;
  }
  for (int team = 2; team <= 4; ++team) {
    set_threads(team);
    Partition partition(f.decomposition, f.coloring);
    partition.build(points);
    EXPECT_TRUE(PartitionArrays(partition) == expected) << "team " << team;
  }
}

TEST(Partition, ArraysStayIdenticalAcrossGrowingAndShrinkingRebuilds) {
  // A rebuild with more atoms outgrows the previous build's arrays; one
  // back on the smaller set shrinks them. Both must reproduce a fresh
  // single-thread build exactly.
  ThreadCountGuard guard;
  Fixture f;
  const auto small = random_points(f.box, 3000, 92);
  const auto large = random_points(f.box, 9000, 93);
  set_threads(1);
  Partition fresh_small(f.decomposition, f.coloring);
  Partition fresh_large(f.decomposition, f.coloring);
  fresh_small.build(small);
  fresh_large.build(large);
  const PartitionArrays expect_small(fresh_small), expect_large(fresh_large);
  for (int team = 1; team <= 4; ++team) {
    set_threads(team);
    Partition partition(f.decomposition, f.coloring);
    partition.build(small);
    EXPECT_TRUE(PartitionArrays(partition) == expect_small)
        << "first, team " << team;
    partition.build(large);
    EXPECT_TRUE(PartitionArrays(partition) == expect_large)
        << "grow, team " << team;
    partition.build(small);
    EXPECT_TRUE(PartitionArrays(partition) == expect_small)
        << "shrink, team " << team;
  }
}

TEST(Partition, BuildAllocatesOnlyOnTheCallingThread) {
  // Like the neighbor list, the partition's counting sort sizes all its
  // scratch before the parallel region, growing rebuilds included.
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

  Fixture f;
  const auto small = random_points(f.box, 3000, 94);
  const auto large = random_points(f.box, 9000, 95);
  arm_allocation_probe();
  f.partition.build(small);
  f.partition.build(large);
  f.partition.build(small);
  EXPECT_EQ(disarm_allocation_probe(), 0);
}

}  // namespace
}  // namespace sdcmd
