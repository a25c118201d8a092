#include "core/pair_force.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "geom/lattice.hpp"
#include "potential/lennard_jones.hpp"

namespace sdcmd {
namespace {

constexpr double kSkin = 0.3;

struct Workload {
  Box box;
  std::vector<Vec3> positions;
  LennardJones potential{0.0103, 3.405, 7.0};
  std::unique_ptr<NeighborList> half;
  std::unique_ptr<NeighborList> full;

  Workload() : box(Box::cubic(30.0)) {
    // fcc argon-like crystal, lightly jittered
    LatticeSpec spec;
    spec.type = LatticeType::Fcc;
    spec.a0 = 5.0;
    spec.nx = spec.ny = spec.nz = 6;
    box = spec.box();
    positions = build_lattice(spec);
    Xoshiro256 rng(11);
    for (auto& r : positions) {
      r += Vec3{rng.normal(0.0, 0.05), rng.normal(0.0, 0.05),
                rng.normal(0.0, 0.05)};
      r = box.wrap(r);
    }
    NeighborListConfig cfg;
    cfg.cutoff = potential.cutoff();
    cfg.skin = kSkin;
    half = std::make_unique<NeighborList>(box, cfg);
    half->build(positions);
    cfg.mode = NeighborMode::Full;
    full = std::make_unique<NeighborList>(box, cfg);
    full->build(positions);
  }

  std::pair<std::vector<Vec3>, PairForceResult> run(
      ReductionStrategy strategy) {
    PairForceConfig cfg;
    cfg.strategy = strategy;
    PairForceComputer computer(potential, cfg);
    computer.attach_schedule(box, potential.cutoff() + kSkin);
    computer.on_neighbor_rebuild(positions);
    std::vector<Vec3> force(positions.size());
    const NeighborList& list =
        required_mode(strategy) == NeighborMode::Full ? *full : *half;
    const auto result = computer.compute(box, positions, list, force);
    return {std::move(force), result};
  }
};

TEST(PairForce, MatchesDirectDoubleSum) {
  Workload w;
  const auto [force, result] = w.run(ReductionStrategy::Serial);

  double energy = 0.0;
  std::vector<Vec3> expected(w.positions.size());
  for (std::size_t i = 0; i < w.positions.size(); ++i) {
    for (std::size_t j = i + 1; j < w.positions.size(); ++j) {
      const Vec3 dr = w.box.minimum_image(w.positions[i], w.positions[j]);
      const double r = norm(dr);
      if (r >= w.potential.cutoff()) continue;
      double v, dvdr;
      w.potential.evaluate(r, v, dvdr);
      energy += v;
      const Vec3 fv = (-dvdr / r) * dr;
      expected[i] += fv;
      expected[j] -= fv;
    }
  }
  EXPECT_NEAR(result.energy, energy, 1e-9 * std::abs(energy));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(norm(expected[i] - force[i]), 0.0, 1e-10);
  }
}

TEST(PairForce, TotalForceVanishes) {
  Workload w;
  const auto [force, result] = w.run(ReductionStrategy::Sdc);
  Vec3 total{};
  for (const auto& f : force) total += f;
  EXPECT_NEAR(norm(total), 0.0, 1e-9);
}

TEST(PairForce, CrystalBindsWithNegativeEnergy) {
  Workload w;
  const auto [force, result] = w.run(ReductionStrategy::Serial);
  EXPECT_LT(result.energy, 0.0);
}

TEST(PairForce, WrongModeThrows) {
  Workload w;
  PairForceConfig cfg;
  cfg.strategy = ReductionStrategy::RedundantComputation;
  PairForceComputer computer(w.potential, cfg);
  std::vector<Vec3> force(w.positions.size());
  EXPECT_THROW(computer.compute(w.box, w.positions, *w.half, force),
               PreconditionError);
}

TEST(PairForce, SdcRequiresSchedule) {
  Workload w;
  PairForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  PairForceComputer computer(w.potential, cfg);
  std::vector<Vec3> force(w.positions.size());
  EXPECT_THROW(computer.compute(w.box, w.positions, *w.half, force),
               PreconditionError);
}

TEST(PairForce, HotSwapsAlongTheGovernorLadder) {
  // The pair backend runs the governor's whole ladder: swap Sdc -> SAP ->
  // LockStriped and back, re-attaching schedules the way Simulation does,
  // and match Serial at every rung.
  Workload w;
  const auto [f_serial, r_serial] = w.run(ReductionStrategy::Serial);
  PairForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  PairForceComputer computer(w.potential, cfg);
  for (ReductionStrategy s :
       {ReductionStrategy::Sdc, ReductionStrategy::ArrayPrivatization,
        ReductionStrategy::LockStriped, ReductionStrategy::Sdc}) {
    computer.set_strategy(s);
    computer.attach_schedule(w.box, w.potential.cutoff() + kSkin);
    computer.on_neighbor_rebuild(w.positions);
    std::vector<Vec3> force(w.positions.size());
    const PairForceResult r =
        computer.compute(w.box, w.positions, *w.half, force);
    for (std::size_t i = 0; i < force.size(); ++i) {
      EXPECT_NEAR(norm(f_serial[i] - force[i]), 0.0, 1e-10)
          << to_string(s) << ", atom " << i;
    }
    EXPECT_NEAR(r_serial.energy, r.energy, 1e-10 * std::abs(r_serial.energy))
        << to_string(s);
  }
}

}  // namespace
}  // namespace sdcmd
