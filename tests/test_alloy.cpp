// Multi-species EAM: mixing rules, alloy tables, and the alloy force
// engine, pinned against the single-species engine and against finite
// differences.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "core/alloy_force.hpp"
#include "core/eam_force.hpp"
#include "geom/lattice.hpp"
#include "potential/alloy.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/johnson.hpp"
#include "potential/setfl_alloy.hpp"

namespace sdcmd {
namespace {

const FinnisSinclair& iron() {
  static FinnisSinclair fe{FinnisSinclairParams::iron()};
  return fe;
}
const JohnsonEam& copper() {
  static JohnsonEam cu{JohnsonParams::copper()};
  return cu;
}

JohnsonMixedAlloy fecu() {
  return JohnsonMixedAlloy({{&iron(), units::kMassFe, "Fe"},
                            {&copper(), 63.546, "Cu"}});
}

TEST(JohnsonMixedAlloy, MetadataIsPerSpecies) {
  const auto alloy = fecu();
  EXPECT_EQ(alloy.species_count(), 2);
  EXPECT_DOUBLE_EQ(alloy.cutoff(), copper().cutoff());
  EXPECT_EQ(alloy.species_name(0), "Fe");
  EXPECT_EQ(alloy.species_name(1), "Cu");
  EXPECT_DOUBLE_EQ(alloy.mass(0), units::kMassFe);
  EXPECT_NEAR(alloy.mass(1), 63.546, 1e-12);
}

TEST(JohnsonMixedAlloy, SameSpeciesPairsPassThrough) {
  const auto alloy = fecu();
  for (double r = 2.0; r < 3.3; r += 0.1) {
    double va, da, ve, de;
    alloy.pair(0, 0, r, va, da);
    iron().pair(r, ve, de);
    EXPECT_DOUBLE_EQ(va, ve);
    EXPECT_DOUBLE_EQ(da, de);
  }
}

TEST(JohnsonMixedAlloy, CrossPairIsSymmetric) {
  const auto alloy = fecu();
  for (double r = 2.0; r < 4.9; r += 0.13) {
    double v01, d01, v10, d10;
    alloy.pair(0, 1, r, v01, d01);
    alloy.pair(1, 0, r, v10, d10);
    EXPECT_DOUBLE_EQ(v01, v10) << "r=" << r;
    EXPECT_DOUBLE_EQ(d01, d10) << "r=" << r;
  }
}

TEST(JohnsonMixedAlloy, IdenticalElementsReduceToPurePair) {
  // Mixing a potential with itself must give back the same-species V.
  JohnsonMixedAlloy twin({{&iron(), units::kMassFe, "Fe"},
                          {&iron(), units::kMassFe, "Fe2"}});
  for (double r = 2.0; r < 3.3; r += 0.07) {
    double v_cross, d_cross, v_pure, d_pure;
    twin.pair(0, 1, r, v_cross, d_cross);
    iron().pair(r, v_pure, d_pure);
    EXPECT_NEAR(v_cross, v_pure, 1e-12) << "r=" << r;
    EXPECT_NEAR(d_cross, d_pure, 1e-10) << "r=" << r;
  }
}

class CrossPairDerivativeTest : public ::testing::TestWithParam<double> {};

TEST_P(CrossPairDerivativeTest, MatchesFiniteDifference) {
  const auto alloy = fecu();
  const double r = GetParam();
  double v, dvdr, vp, vm, unused;
  alloy.pair(0, 1, r, v, dvdr);
  const double h = 1e-6;
  alloy.pair(0, 1, r + h, vp, unused);
  alloy.pair(0, 1, r - h, vm, unused);
  EXPECT_NEAR(dvdr, (vp - vm) / (2.0 * h),
              1e-4 * std::max(1.0, std::abs(dvdr)))
      << "r=" << r;
}

INSTANTIATE_TEST_SUITE_P(RadialSweep, CrossPairDerivativeTest,
                         ::testing::Values(2.1, 2.5, 2.9, 3.2, 3.45, 3.8,
                                           4.3, 4.8));

// ---------------------------------------------------------------------------
// Alloy force engine.

struct AlloyWorkload {
  Box box;
  std::vector<Vec3> positions;
  std::vector<std::uint8_t> types;
  std::unique_ptr<NeighborList> list;
  double skin = 0.3;

  AlloyWorkload(const AlloyEamPotential& pot, int cells, double cu_fraction,
                std::uint64_t seed = 77)
      : box(Box::cubic(cells * units::kLatticeFe)) {
    LatticeSpec spec;
    spec.type = LatticeType::Bcc;
    spec.a0 = units::kLatticeFe;
    spec.nx = spec.ny = spec.nz = cells;
    positions = build_lattice(spec);
    types.assign(positions.size(), 0);
    Xoshiro256 rng(seed);
    for (auto& r : positions) {
      r += Vec3{rng.normal(0.0, 0.04), rng.normal(0.0, 0.04),
                rng.normal(0.0, 0.04)};
      r = box.wrap(r);
    }
    if (pot.species_count() > 1) {
      for (auto& t : types) {
        if (rng.uniform() < cu_fraction) t = 1;
      }
    }
    NeighborListConfig cfg;
    cfg.cutoff = pot.cutoff();
    cfg.skin = skin;
    list = std::make_unique<NeighborList>(box, cfg);
    list->build(positions);
  }

  struct Output {
    std::vector<double> rho, fp;
    std::vector<Vec3> force;
    EamForceResult result;
  };

  Output run(const AlloyEamPotential& pot, ReductionStrategy strategy) {
    EamForceConfig cfg;
    cfg.strategy = strategy;
    cfg.sdc.dimensionality = 2;
    AlloyForceComputer computer(pot, cfg);
    computer.attach_schedule(box, pot.cutoff() + skin);
    computer.on_neighbor_rebuild(positions);
    Output out;
    out.rho.resize(positions.size());
    out.fp.resize(positions.size());
    out.force.resize(positions.size());
    out.result = computer.compute(box, positions, types, *list, out.rho,
                                  out.fp, out.force);
    return out;
  }
};

TEST(AlloyForce, SingleSpeciesMatchesTheScalarEngine) {
  SingleSpeciesAlloy wrapped(iron(), units::kMassFe, "Fe");
  AlloyWorkload w(wrapped, 6, 0.0);
  const auto alloy_out = w.run(wrapped, ReductionStrategy::Serial);

  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Serial;
  EamForceComputer scalar(iron(), cfg);
  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  const auto scalar_result =
      scalar.compute(w.box, w.positions, *w.list, rho, fp, force);

  for (std::size_t i = 0; i < rho.size(); ++i) {
    EXPECT_NEAR(alloy_out.rho[i], rho[i], 1e-12 * std::max(1.0, rho[i]));
    EXPECT_NEAR(norm(alloy_out.force[i] - force[i]), 0.0, 1e-10);
  }
  EXPECT_NEAR(alloy_out.result.pair_energy, scalar_result.pair_energy,
              1e-10 * std::abs(scalar_result.pair_energy));
  EXPECT_NEAR(alloy_out.result.embedding_energy,
              scalar_result.embedding_energy,
              1e-10 * std::abs(scalar_result.embedding_energy));
  EXPECT_NEAR(alloy_out.result.virial, scalar_result.virial,
              1e-9 * std::max(1.0, std::abs(scalar_result.virial)));
}

TEST(AlloyForce, SdcMatchesSerialOnABinaryAlloy) {
  const auto alloy = fecu();
  AlloyWorkload w(alloy, 8, 0.15);
  const auto serial = w.run(alloy, ReductionStrategy::Serial);
  const auto sdc = w.run(alloy, ReductionStrategy::Sdc);
  for (std::size_t i = 0; i < serial.rho.size(); ++i) {
    EXPECT_NEAR(serial.rho[i], sdc.rho[i],
                1e-10 * std::max(1.0, serial.rho[i]));
    EXPECT_NEAR(norm(serial.force[i] - sdc.force[i]), 0.0, 1e-9);
  }
  EXPECT_NEAR(serial.result.total_energy(), sdc.result.total_energy(),
              1e-9 * std::abs(serial.result.total_energy()));
}

TEST(AlloyForce, NewtonsThirdLawHoldsForMixedSpecies) {
  const auto alloy = fecu();
  AlloyWorkload w(alloy, 8, 0.3);
  const auto out = w.run(alloy, ReductionStrategy::Serial);
  Vec3 total{};
  for (const auto& f : out.force) total += f;
  EXPECT_NEAR(norm(total), 0.0, 1e-8);
}

TEST(AlloyForce, ForceMatchesEnergyGradient) {
  const auto alloy = fecu();
  AlloyWorkload w(alloy, 8, 0.25, 5);
  const auto base = w.run(alloy, ReductionStrategy::Serial);

  const double h = 1e-6;
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 6; ++trial) {
    const auto atom =
        static_cast<std::size_t>(rng.below(w.positions.size()));
    const int dim = static_cast<int>(rng.below(3));
    const double original = w.positions[atom][dim];

    w.positions[atom][dim] = original + h;
    w.list->build(w.positions);
    const double ep =
        w.run(alloy, ReductionStrategy::Serial).result.total_energy();
    w.positions[atom][dim] = original - h;
    w.list->build(w.positions);
    const double em =
        w.run(alloy, ReductionStrategy::Serial).result.total_energy();
    w.positions[atom][dim] = original;
    w.list->build(w.positions);

    EXPECT_NEAR(base.force[atom][dim], -(ep - em) / (2.0 * h), 5e-4)
        << "atom " << atom << " (type " << int(w.types[atom]) << ") dim "
        << dim;
  }
}

TEST(AlloyForce, RejectsBadInput) {
  // The list contract is the shared table test (ListContract in
  // test_eam_force); what is the alloy's own is the species check.
  const auto alloy = fecu();
  AlloyWorkload w(alloy, 8, 0.2);
  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Serial;
  AlloyForceComputer computer(alloy, cfg);
  w.types[0] = 7;  // out of range
  EXPECT_THROW(computer.compute(w.box, w.positions, w.types, *w.list, rho,
                                fp, force),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Alloy tables / setfl round trips.

TEST(SetflAlloy, PairIndexIsLowerTriangular) {
  EXPECT_EQ(AlloyTables::pair_index(0, 0), 0u);
  EXPECT_EQ(AlloyTables::pair_index(1, 0), 1u);
  EXPECT_EQ(AlloyTables::pair_index(0, 1), 1u);  // symmetric
  EXPECT_EQ(AlloyTables::pair_index(1, 1), 2u);
  EXPECT_EQ(AlloyTables::pair_index(2, 1), 4u);
}

TEST(SetflAlloy, TabulatedAlloyTracksTheAnalyticMixture) {
  const auto alloy = fecu();
  TabulatedAlloyEam tab(tabulate_alloy(alloy, 4000, 2000, 80.0));
  EXPECT_EQ(tab.species_count(), 2);
  EXPECT_EQ(tab.species_name(1), "Cu");
  for (double r = 2.0; r < alloy.cutoff() - 0.01; r += 0.037) {
    double va, da, vt, dt;
    alloy.pair(0, 1, r, va, da);
    tab.pair(0, 1, r, vt, dt);
    EXPECT_NEAR(vt, va, 5e-5 * std::max(1.0, std::abs(va))) << "r=" << r;
    alloy.density(1, r, va, da);
    tab.density(1, r, vt, dt);
    EXPECT_NEAR(vt, va, 1e-6) << "r=" << r;
  }
  for (double rho = 1.0; rho < 70.0; rho += 1.3) {
    double fa, da, ft, dt;
    alloy.embed(0, rho, fa, da);
    tab.embed(0, rho, ft, dt);
    EXPECT_NEAR(ft, fa, 1e-6) << "rho=" << rho;
  }
}

TEST(SetflAlloy, FileRoundTripPreservesTables) {
  const auto alloy = fecu();
  const AlloyTables original = tabulate_alloy(alloy, 300, 200, 80.0);
  std::stringstream stream;
  write_setfl_alloy(stream, original);
  const AlloyTables parsed = read_setfl_alloy(stream);

  ASSERT_EQ(parsed.elements.size(), 2u);
  EXPECT_EQ(parsed.elements[0].name, "Fe");
  EXPECT_EQ(parsed.elements[1].name, "Cu");
  EXPECT_DOUBLE_EQ(parsed.dr, original.dr);
  EXPECT_DOUBLE_EQ(parsed.cutoff, original.cutoff);
  for (std::size_t e = 0; e < 2; ++e) {
    for (std::size_t i = 0; i < original.elements[e].embed.size(); ++i) {
      EXPECT_NEAR(parsed.elements[e].embed[i],
                  original.elements[e].embed[i], 1e-13);
    }
  }
  for (std::size_t p = 0; p < original.pair_lower.size(); ++p) {
    for (std::size_t i = 1; i < original.pair_lower[p].size(); ++i) {
      EXPECT_NEAR(
          parsed.pair_lower[p][i], original.pair_lower[p][i],
          1e-11 * std::max(1.0, std::abs(original.pair_lower[p][i])));
    }
  }
}

TEST(SetflAlloy, SingleElementFilesStillParse) {
  // A 1-element alloy file is valid input for the alloy reader.
  FinnisSinclair fe(FinnisSinclairParams::iron());
  SingleSpeciesAlloy single(fe, units::kMassFe, "Fe");
  const AlloyTables t = tabulate_alloy(single, 100, 100, 60.0);
  std::stringstream stream;
  write_setfl_alloy(stream, t);
  const AlloyTables parsed = read_setfl_alloy(stream);
  EXPECT_EQ(parsed.elements.size(), 1u);
  EXPECT_EQ(parsed.pair_lower.size(), 1u);
}

TEST(SetflAlloy, RejectsMalformedInput) {
  std::stringstream s1("c1\nc2\nc3\n0\n");
  EXPECT_THROW(read_setfl_alloy(s1), ParseError);
  std::stringstream s2("c1\nc2\nc3\n1 Fe\n1 0.1 10 0.1 3.0\n");
  EXPECT_THROW(read_setfl_alloy(s2), ParseError);
  EXPECT_THROW(read_setfl_alloy_file("/nonexistent/x.setfl"), ParseError);
}

}  // namespace
}  // namespace sdcmd
