// SoA fast path: RC's SIMD full-list gathers must reproduce the scalar
// gathers to 1e-12, including sentinel-padded tail tiles, odd atom counts
// and a post-update_box mirror refresh; the path must engage exactly when
// the list carries padded tiles and the potential packed tables. The
// padded-tile emission and the interval-indexed (packed) spline layout are
// pinned against their scalar counterparts. (Every strategy's agreement
// with the serial reference is test_conformance's job.)
#include "core/detail/eam_soa.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/random.hpp"
#include "common/units.hpp"
#include "core/eam_force.hpp"
#include "geom/lattice.hpp"
#include "neighbor/neighbor_list.hpp"
#include "potential/cubic_spline.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/tabulated.hpp"

namespace sdcmd {
namespace {

constexpr double kSkin = 0.4;
constexpr double kTol = 1e-12;

/// Jittered bcc iron workload evaluated through the tabulated potential
/// (the SoA path requires packed spline tables). Full lists are built both
/// with padded tiles (SoA) and without (scalar gathers), with identical
/// pair enumeration.
struct SoaWorkload {
  Box box;
  std::vector<Vec3> positions;
  FinnisSinclair fe{FinnisSinclairParams::iron()};
  TabulatedEam tab = TabulatedEam::from_analytic(fe, 2000, 2000, 60.0);
  std::unique_ptr<NeighborList> half;
  std::unique_ptr<NeighborList> full;
  std::unique_ptr<NeighborList> full_unpadded;

  explicit SoaWorkload(int cells, bool odd_atom_count = false,
                       std::uint64_t seed = 7)
      : box(Box::cubic(cells * units::kLatticeFe)) {
    LatticeSpec spec;
    spec.type = LatticeType::Bcc;
    spec.a0 = units::kLatticeFe;
    spec.nx = spec.ny = spec.nz = cells;
    positions = build_lattice(spec);
    // Odd atom counts exercise tiles whose last pad group is mostly
    // sentinel and the n+1-slot position mirror with an odd n.
    if (odd_atom_count) positions.pop_back();
    Xoshiro256 rng(seed);
    for (auto& r : positions) {
      r += Vec3{rng.normal(0.0, 0.05), rng.normal(0.0, 0.05),
                rng.normal(0.0, 0.05)};
      r = box.wrap(r);
    }
    rebuild_lists();
  }

  void rebuild_lists() {
    NeighborListConfig cfg;
    cfg.cutoff = tab.cutoff();
    cfg.skin = kSkin;
    cfg.pad_width = detail::kSoaPadWidth;
    half = std::make_unique<NeighborList>(box, cfg);
    half->build(positions);
    cfg.mode = NeighborMode::Full;
    full = std::make_unique<NeighborList>(box, cfg);
    full->build(positions);
    cfg.pad_width = 0;
    full_unpadded = std::make_unique<NeighborList>(box, cfg);
    full_unpadded->build(positions);
  }

  struct Output {
    std::vector<double> rho, fp;
    std::vector<Vec3> force;
    EamForceResult result;
    EamKernelStats stats;
  };

  /// RC over the padded (SoA) or unpadded (scalar) full list.
  Output run_rc(bool soa) {
    EamForceConfig cfg;
    cfg.strategy = ReductionStrategy::RedundantComputation;
    return run(cfg, soa ? *full : *full_unpadded);
  }

  Output run(const EamForceConfig& cfg, const NeighborList& list) {
    EamForceComputer computer(tab, cfg);
    computer.attach_schedule(box, tab.cutoff() + kSkin);
    computer.on_neighbor_rebuild(positions);
    Output out;
    out.rho.resize(positions.size());
    out.fp.resize(positions.size());
    out.force.resize(positions.size());
    out.result = computer.compute(box, positions, list, out.rho, out.fp,
                                  out.force);
    out.stats = computer.stats();
    return out;
  }
};

void expect_equivalent(const SoaWorkload::Output& scalar,
                       const SoaWorkload::Output& soa) {
  ASSERT_EQ(scalar.rho.size(), soa.rho.size());
  for (std::size_t i = 0; i < scalar.rho.size(); ++i) {
    EXPECT_NEAR(scalar.rho[i], soa.rho[i],
                kTol * std::max(1.0, std::abs(scalar.rho[i])))
        << "rho mismatch at atom " << i;
    EXPECT_NEAR(norm(scalar.force[i] - soa.force[i]), 0.0, kTol * 10.0)
        << "force mismatch at atom " << i;
  }
  EXPECT_NEAR(scalar.result.pair_energy, soa.result.pair_energy,
              kTol * std::abs(scalar.result.pair_energy));
  EXPECT_NEAR(scalar.result.embedding_energy, soa.result.embedding_energy,
              kTol * std::abs(scalar.result.embedding_energy));
  EXPECT_NEAR(scalar.result.virial, soa.result.virial,
              kTol * std::max(1.0, std::abs(scalar.result.virial)));
}

TEST(SoaGatherTest, OddAtomCountMatchesScalarGather) {
  SoaWorkload w(6, /*odd_atom_count=*/true);
  ASSERT_EQ(w.positions.size() % 2, 1u);
  const auto scalar = w.run_rc(/*soa=*/false);
  const auto soa = w.run_rc(/*soa=*/true);
  EXPECT_EQ(scalar.stats.soa_steps, 0u);
  EXPECT_EQ(soa.stats.soa_steps, 1u) << "SoA path did not engage";
  expect_equivalent(scalar, soa);
}

TEST(SoaRefreshTest, MirrorRefreshesAfterUpdateBox) {
  // The SoA position mirror is refreshed from `positions` every step; a
  // box change (deform/barostat path) plus rebuilt lists must therefore
  // still match the scalar path exactly.
  SoaWorkload w(5);
  const auto before_scalar = w.run_rc(false);
  const auto before_soa = w.run_rc(true);
  expect_equivalent(before_scalar, before_soa);

  const double scale = 1.01;
  w.box = Box::cubic(w.box.lengths().x * scale);
  for (auto& r : w.positions) r = w.box.wrap(r * scale);
  EXPECT_FALSE(w.full->update_box(w.box));  // same grid shape, reused
  w.rebuild_lists();

  const auto after_scalar = w.run_rc(false);
  const auto after_soa = w.run_rc(true);
  expect_equivalent(after_scalar, after_soa);
  // The deformation genuinely changed the answer (the test isn't vacuous).
  EXPECT_NE(after_scalar.result.pair_energy, before_scalar.result.pair_energy);
}

TEST(SoaGatingTest, PadFractionGaugeClearsWhenThePathDisengages) {
  // Regression: soa_pad_fraction is a gauge, not a counter. After a step
  // that leaves the SoA path (here: a rebuild against an UNPADDED list,
  // the shape every governor-driven list reconfiguration produces), the
  // stale value from the last SoA step must not linger in stats().
  SoaWorkload w(5);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::RedundantComputation;
  EamForceComputer computer(w.tab, cfg);
  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  computer.compute(w.box, w.positions, *w.full, rho, fp, force);
  ASSERT_EQ(computer.stats().soa_steps, 1u) << "SoA path did not engage";
  ASSERT_GT(computer.stats().soa_pad_fraction, 0.0);

  computer.compute(w.box, w.positions, *w.full_unpadded, rho, fp, force);
  EXPECT_EQ(computer.stats().soa_steps, 1u);  // did not engage again
  EXPECT_EQ(computer.stats().soa_pad_fraction, 0.0);
}

TEST(SoaGatingTest, HalfListsStayScalarEvenWhenPadded) {
  // Half-list scatter rows have no SIMD form: a padded half list under a
  // half-list strategy runs the scalar rows and ignores the tiles.
  SoaWorkload w(6);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  ASSERT_TRUE(w.half->has_padded_tiles());
  const auto sdc = w.run(cfg, *w.half);
  EXPECT_EQ(sdc.stats.soa_steps, 0u);
  EXPECT_EQ(sdc.stats.soa_pad_fraction, 0.0);
}

TEST(SoaGatingTest, NeighborPadWidthAsksForTilesOnlyUnderRc) {
  SoaWorkload w(4);
  auto pad_width = [&](const EamPotential& pot, ReductionStrategy s) {
    EamForceConfig cfg;
    cfg.strategy = s;
    return EamForceComputer(pot, cfg).neighbor_pad_width();
  };
  EXPECT_EQ(pad_width(w.tab, ReductionStrategy::RedundantComputation),
            detail::kSoaPadWidth);
  for (ReductionStrategy s : kAllStrategies) {
    if (s == ReductionStrategy::RedundantComputation) continue;
    EXPECT_EQ(pad_width(w.tab, s), 0) << to_string(s);
  }
  // Analytic potentials expose no spline tables: never padded.
  EXPECT_EQ(pad_width(w.fe, ReductionStrategy::RedundantComputation), 0);
}

TEST(PaddedTileTest, TilesReplicateSublistsWithSentinelTails) {
  SoaWorkload w(4, /*odd_atom_count=*/true);
  for (const NeighborList* list : {w.half.get(), w.full.get()}) {
    ASSERT_TRUE(list->has_padded_tiles());
    const int pw = list->pad_width();
    ASSERT_EQ(pw, detail::kSoaPadWidth);
    const auto& tile_index = list->tile_index();
    const auto& tiles = list->padded_list();
    const std::uint32_t sent = list->pad_sentinel();
    ASSERT_EQ(tile_index.size(), list->atom_count() + 1);
    EXPECT_EQ(tile_index.front(), 0u);
    EXPECT_EQ(tile_index.back(), tiles.size());
    std::size_t real = 0;
    for (std::size_t i = 0; i < list->atom_count(); ++i) {
      const std::size_t begin = tile_index[i];
      const std::size_t end = tile_index[i + 1];
      EXPECT_EQ(begin % pw, 0u) << "tile offsets must be pad-aligned";
      const auto sublist = list->neighbors(i);
      ASSERT_EQ(end - begin,
                (sublist.size() + pw - 1) / pw * pw)
          << "tile length must be the sublist rounded up to pad_width";
      for (std::size_t k = 0; k < sublist.size(); ++k) {
        EXPECT_EQ(tiles[begin + k], sublist[k])
            << "real entries must replicate neighbors(" << i << ")";
      }
      for (std::size_t k = begin + sublist.size(); k < end; ++k) {
        EXPECT_EQ(tiles[k], sent) << "tail slots must hold the sentinel";
      }
      real += sublist.size();
    }
    EXPECT_DOUBLE_EQ(
        list->pad_fraction(),
        static_cast<double>(tiles.size()) / static_cast<double>(real) - 1.0);
  }
}

TEST(PaddedTileTest, UnpaddedListsEmitNoTiles) {
  Box box = Box::cubic(3 * units::kLatticeFe);
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = spec.ny = spec.nz = 3;
  const auto positions = build_lattice(spec);
  NeighborListConfig cfg;
  cfg.cutoff = 3.6;
  NeighborList list(box, cfg);
  list.build(positions);
  EXPECT_FALSE(list.has_padded_tiles());
  EXPECT_EQ(list.padded_pair_count(), 0u);
  EXPECT_EQ(list.pad_fraction(), 0.0);
}

TEST(PackedSplineTest, PackedMatchesSplineViewAcrossKnots) {
  // A non-trivial curve sampled on a uniform grid; the packed layout must
  // agree with the four-array SplineView everywhere, in particular at and
  // around segment boundaries and outside the table (clamped segments).
  const double x0 = 1.5, dx = 0.25;
  const std::size_t n = 64;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = x0 + dx * static_cast<double>(i);
    values[i] = std::sin(1.7 * x) / x + 0.03 * x * x;
  }
  CubicSpline spline(x0, dx, values);
  const SplineView ref = spline.view();
  const PackedSplineView packed = spline.packed_view();
  ASSERT_TRUE(packed.valid());
  ASSERT_EQ(packed.segments, ref.segments);

  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) {
    const double knot = x0 + dx * static_cast<double>(i);
    xs.push_back(knot);  // exactly on the boundary
    xs.push_back(std::nextafter(knot, -1e300));
    xs.push_back(std::nextafter(knot, 1e300));
    xs.push_back(knot + 0.4 * dx);
  }
  xs.push_back(x0 - 1.0);                                  // below: clamped
  xs.push_back(x0 + dx * static_cast<double>(n) + 2.0);    // above: clamped
  for (const double x : xs) {
    double v_ref, d_ref, v_packed, d_packed;
    ref.evaluate(x, v_ref, d_ref);
    packed.evaluate(x, v_packed, d_packed);
    EXPECT_DOUBLE_EQ(v_ref, v_packed) << "value differs at x=" << x;
    EXPECT_DOUBLE_EQ(d_ref, d_packed) << "derivative differs at x=" << x;
  }
}

TEST(PackedSplineTest, TabulatedEamExposesPackedTables) {
  FinnisSinclair fe(FinnisSinclairParams::iron());
  const TabulatedEam tab = TabulatedEam::from_analytic(fe, 500, 500, 60.0);
  const EamSplineTables* tables = tab.spline_tables();
  ASSERT_NE(tables, nullptr);
  ASSERT_TRUE(tables->packed_valid());
  // Spot-check: packed and four-array views agree through the table.
  for (double r = 1.0; r < fe.cutoff(); r += 0.0371) {
    double v_a, d_a, v_b, d_b;
    tables->pair.evaluate(r, v_a, d_a);
    tables->pair_packed.evaluate(r, v_b, d_b);
    EXPECT_DOUBLE_EQ(v_a, v_b);
    EXPECT_DOUBLE_EQ(d_a, d_b);
    tables->density.evaluate(r, v_a, d_a);
    tables->density_packed.evaluate(r, v_b, d_b);
    EXPECT_DOUBLE_EQ(v_a, v_b);
    EXPECT_DOUBLE_EQ(d_a, d_b);
  }
}

}  // namespace
}  // namespace sdcmd
