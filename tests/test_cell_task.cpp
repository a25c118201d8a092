// CellTask execution shape: block-grid schedule invariants, work-stealing
// accounting, force equivalence against the serial reference (including an
// inhomogeneous carved-void system), and governor-style hot-swaps in and
// out of the shape.
#include "core/cell_task_schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "core/eam_force.hpp"
#include "geom/defects.hpp"
#include "geom/lattice.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/tabulated.hpp"

namespace sdcmd {
namespace {

constexpr double kSkin = 0.4;

struct Workload {
  Box box;
  std::vector<Vec3> positions;
  FinnisSinclair potential{FinnisSinclairParams::iron()};
  std::unique_ptr<NeighborList> half;

  explicit Workload(int cells, double jitter = 0.05, std::uint64_t seed = 7)
      : box(Box::cubic(cells * units::kLatticeFe)) {
    LatticeSpec spec;
    spec.type = LatticeType::Bcc;
    spec.a0 = units::kLatticeFe;
    spec.nx = spec.ny = spec.nz = cells;
    positions = build_lattice(spec);
    if (jitter > 0.0) {
      Xoshiro256 rng(seed);
      for (auto& r : positions) {
        r += Vec3{rng.normal(0.0, jitter), rng.normal(0.0, jitter),
                  rng.normal(0.0, jitter)};
        r = box.wrap(r);
      }
    }
    rebuild_list();
  }

  void rebuild_list() {
    NeighborListConfig cfg;
    cfg.cutoff = potential.cutoff();
    cfg.skin = kSkin;
    half = std::make_unique<NeighborList>(box, cfg);
    half->build(positions);
  }

  double range() const { return potential.cutoff() + kSkin; }

  struct Output {
    std::vector<double> rho, fp;
    std::vector<Vec3> force;
    EamForceResult result;
  };

  Output run(ReductionStrategy strategy) {
    EamForceConfig cfg;
    cfg.strategy = strategy;
    cfg.sdc.dimensionality = 2;
    EamForceComputer computer(potential, cfg);
    computer.attach_schedule(box, range());
    computer.on_neighbor_rebuild(positions);
    return run_with(computer);
  }

  Output run_with(EamForceComputer& computer) {
    Output out;
    out.rho.resize(positions.size());
    out.fp.resize(positions.size());
    out.force.resize(positions.size());
    out.result = computer.compute(box, positions, *half, out.rho, out.fp,
                                  out.force);
    return out;
  }
};

void expect_matches_serial(const Workload::Output& serial,
                           const Workload::Output& task, double tol) {
  ASSERT_EQ(serial.rho.size(), task.rho.size());
  for (std::size_t i = 0; i < serial.rho.size(); ++i) {
    EXPECT_NEAR(serial.rho[i], task.rho[i], tol) << "rho, atom " << i;
    EXPECT_NEAR(norm(serial.force[i] - task.force[i]), 0.0, tol)
        << "force, atom " << i;
  }
  EXPECT_NEAR(serial.result.pair_energy, task.result.pair_energy,
              tol * std::max(1.0, std::abs(serial.result.pair_energy)));
  EXPECT_NEAR(serial.result.embedding_energy, task.result.embedding_energy,
              tol * std::max(1.0, std::abs(serial.result.embedding_energy)));
  EXPECT_NEAR(serial.result.virial, task.result.virial,
              tol * std::max(1.0, std::abs(serial.result.virial)));
}

// ---------------------------------------------------------------------------
// Schedule invariants.

TEST(CellTaskSchedule, BlockGridPartitionsEveryAtomExactlyOnce) {
  Workload w(6);
  CellTaskSchedule sched(w.box, w.range());
  sched.rebuild(w.positions);
  ASSERT_TRUE(sched.built());
  EXPECT_EQ(sched.atom_count(), w.positions.size());

  std::vector<int> seen(w.positions.size(), 0);
  for (std::size_t b = 0; b < sched.block_count(); ++b) {
    for (std::uint32_t atom : sched.atoms_in_block(b)) {
      ASSERT_LT(atom, w.positions.size());
      ++seen[atom];
      // CSR membership and the reverse map agree.
      EXPECT_EQ(sched.block_of(atom), b);
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
}

TEST(CellTaskSchedule, TaskOrderIsLargestFirst) {
  Workload w(6, 0.3, 11);
  CellTaskSchedule sched(w.box, w.range());
  sched.rebuild(w.positions);
  const auto& order = sched.task_order();
  ASSERT_EQ(order.size(), sched.block_count());
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_GE(sched.atoms_in_block(order[k - 1]).size(),
              sched.atoms_in_block(order[k]).size());
  }
}

TEST(CellTaskSchedule, FeasibleMatchesConstructor) {
  // Feasible wherever >= 2 blocks fit; the probe and the constructor must
  // agree on both sides of the boundary.
  const Box slab({0.0, 0.0, 0.0}, {10.0, 4.0, 4.0});  // 2 x 1 x 1 blocks
  EXPECT_TRUE(CellTaskSchedule::feasible(slab, 4.0));
  EXPECT_NO_THROW(CellTaskSchedule(slab, 4.0));

  const Box tiny = Box::cubic(3.0);  // a single block
  EXPECT_FALSE(CellTaskSchedule::feasible(tiny, 4.0));
  EXPECT_THROW(CellTaskSchedule(tiny, 4.0), InfeasibleError);
}

TEST(CellTaskSchedule, DescribeNamesTheGrid) {
  Workload w(6);
  CellTaskSchedule sched(w.box, w.range());
  EXPECT_NE(sched.describe().find("cell-task"), std::string::npos);
  EXPECT_NE(sched.describe().find("blocks"), std::string::npos);
}

TEST(CellTaskRuntime, QueueDepthIsCeilOfBlocksOverThreads) {
  CellTaskRuntime rt;
  rt.reset(4, 27);
  EXPECT_EQ(rt.team(), 4);
  EXPECT_EQ(rt.max_queue_depth(), 7u);  // ceil(27 / 4)
  rt.reset(8, 8);
  EXPECT_EQ(rt.max_queue_depth(), 1u);
}

// ---------------------------------------------------------------------------
// Kernel correctness.

TEST(CellTaskKernels, ForcesMatchSerialReference) {
  Workload w(6);
  const auto serial = w.run(ReductionStrategy::Serial);
  const auto task = w.run(ReductionStrategy::CellTask);
  expect_matches_serial(serial, task, 1e-12);
}

TEST(CellTaskKernels, ForcesMatchSerialOnCarvedVoidSystem) {
  // The shape's reason to exist: inhomogeneous systems. Carve a spherical
  // void so the block populations are wildly uneven, then demand the same
  // 1e-12 agreement.
  Workload w(6, 0.02, 3);
  const Vec3 center = 0.5 * (w.box.lo() + w.box.hi());
  const std::size_t removed =
      carve_sphere(w.positions, w.box, center, 0.3 * w.box.length(0));
  ASSERT_GT(removed, 0u);
  w.rebuild_list();

  const auto serial = w.run(ReductionStrategy::Serial);
  const auto task = w.run(ReductionStrategy::CellTask);
  expect_matches_serial(serial, task, 1e-12);
}

TEST(CellTaskKernels, RepeatedComputesStayConsistent) {
  // Work stealing makes the task->thread assignment non-deterministic;
  // the physics must not care. Two computes on the same computer and a
  // fresh computer must agree to 1e-12.
  Workload w(6);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::CellTask;
  EamForceComputer computer(w.potential, cfg);
  computer.attach_schedule(w.box, w.range());
  computer.on_neighbor_rebuild(w.positions);
  const auto first = w.run_with(computer);
  const auto second = w.run_with(computer);
  expect_matches_serial(first, second, 1e-12);
}

TEST(CellTaskKernels, ComputeWithoutScheduleThrows) {
  Workload w(4);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::CellTask;
  EamForceComputer computer(w.potential, cfg);
  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  EXPECT_THROW(
      computer.compute(w.box, w.positions, *w.half, rho, fp, force),
      PreconditionError);
}

TEST(CellTaskKernels, StatsCountTasksAndQueueShape) {
  Workload w(6);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::CellTask;
  EamForceComputer computer(w.potential, cfg);
  computer.attach_schedule(w.box, w.range());
  computer.on_neighbor_rebuild(w.positions);
  w.run_with(computer);
  w.run_with(computer);

  const CellTaskSchedule* sched = computer.task_schedule();
  ASSERT_NE(sched, nullptr);
  const auto& stats = computer.stats();
  // Every block runs exactly once per scatter phase: 2 computes x 2 phases.
  EXPECT_EQ(stats.task_spawned, 4 * sched->block_count());
  EXPECT_LE(stats.task_steals, stats.task_spawned);
  EXPECT_GE(stats.task_max_queue_depth, 1u);
  // Busy fractions are normalized to the slowest thread.
  EXPECT_GT(stats.task_busy_min, 0.0);
  EXPECT_GE(stats.task_busy_mean, stats.task_busy_min);
  EXPECT_LE(stats.task_busy_mean, 1.0 + 1e-12);
  // Color-barrier accounting stays zero: the shape has no color sweeps.
  EXPECT_EQ(stats.color_sweeps, 0u);

  computer.reset_instrumentation();
  EXPECT_EQ(computer.stats().task_spawned, 0u);
  EXPECT_EQ(computer.stats().task_busy_mean, 0.0);
}

// ---------------------------------------------------------------------------
// Hot-swap (the governor's ladder moves).

TEST(CellTaskKernels, HotSwapFromSdcAndBackMatchesSerial) {
  Workload w(6);
  const auto serial = w.run(ReductionStrategy::Serial);

  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  cfg.sdc.dimensionality = 2;
  EamForceComputer computer(w.potential, cfg);
  computer.attach_schedule(w.box, w.range());
  computer.on_neighbor_rebuild(w.positions);
  expect_matches_serial(serial, w.run_with(computer), 1e-12);

  // Demote to CellTask: the SDC schedule is dropped, the block grid and
  // per-block lock pool are built, the pair cache carries over.
  computer.set_strategy(ReductionStrategy::CellTask);
  EXPECT_EQ(computer.schedule(), nullptr);
  computer.attach_schedule(w.box, w.range());
  computer.on_neighbor_rebuild(w.positions);
  ASSERT_NE(computer.task_schedule(), nullptr);
  expect_matches_serial(serial, w.run_with(computer), 1e-12);

  // Promote back.
  computer.set_strategy(ReductionStrategy::Sdc);
  EXPECT_EQ(computer.task_schedule(), nullptr);
  computer.attach_schedule(w.box, w.range());
  computer.on_neighbor_rebuild(w.positions);
  expect_matches_serial(serial, w.run_with(computer), 1e-12);
}

TEST(CellTaskKernels, SwapToAtomicDropsTaskState) {
  Workload w(6);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::CellTask;
  EamForceComputer computer(w.potential, cfg);
  computer.attach_schedule(w.box, w.range());
  computer.on_neighbor_rebuild(w.positions);
  w.run_with(computer);
  computer.set_strategy(ReductionStrategy::Atomic);
  EXPECT_EQ(computer.task_schedule(), nullptr);
  const auto serial = w.run(ReductionStrategy::Serial);
  expect_matches_serial(serial, w.run_with(computer), 1e-10);
}

}  // namespace
}  // namespace sdcmd
