// Physics and bookkeeping of the three-phase EAM force engine: Newton's
// third law, finite-difference gradients of the total energy, symmetry,
// SDC at every dimensionality, the pair cache across rebuilds, the work
// counters, the virtual-call fallback for potentials without inline
// bodies, and one neighbor-list contract table for every caller.
// Strategy-by-strategy equivalence to the serial reference lives in
// test_conformance.
#include "core/eam_force.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <tuple>

#include "analysis/stress.hpp"
#include "common/error.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "core/alloy_force.hpp"
#include "core/pair_force.hpp"
#include "core/sdc_schedule.hpp"
#include "geom/lattice.hpp"
#include "potential/alloy.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/johnson.hpp"
#include "potential/lennard_jones.hpp"
#include "potential/tabulated.hpp"

namespace sdcmd {
namespace {

constexpr double kSkin = 0.4;

struct Workload {
  Box box;
  std::vector<Vec3> positions;
  FinnisSinclair potential{FinnisSinclairParams::iron()};
  std::unique_ptr<NeighborList> half;
  std::unique_ptr<NeighborList> full;

  explicit Workload(int cells, double jitter = 0.05,
                    std::uint64_t seed = 7)
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
    NeighborListConfig cfg;
    cfg.cutoff = potential.cutoff();
    cfg.skin = kSkin;
    half = std::make_unique<NeighborList>(box, cfg);
    half->build(positions);
    cfg.mode = NeighborMode::Full;
    full = std::make_unique<NeighborList>(box, cfg);
    full->build(positions);
  }

  struct Output {
    std::vector<double> rho, fp;
    std::vector<Vec3> force;
    EamForceResult result;
  };

  Output run(ReductionStrategy strategy, int sdc_dims = 2) {
    return run_with(potential, strategy, sdc_dims);
  }

  Output run_with(const EamPotential& pot, ReductionStrategy strategy,
                  int sdc_dims = 2) {
    EamForceConfig cfg;
    cfg.strategy = strategy;
    cfg.sdc.dimensionality = sdc_dims;
    EamForceComputer computer(pot, cfg);
    computer.attach_schedule(box, pot.cutoff() + kSkin);
    computer.on_neighbor_rebuild(positions);

    Output out;
    out.rho.resize(positions.size());
    out.fp.resize(positions.size());
    out.force.resize(positions.size());
    const NeighborList& list =
        required_mode(cfg.strategy) == NeighborMode::Full ? *full : *half;
    out.result = computer.compute(box, positions, list, out.rho, out.fp,
                                  out.force);
    return out;
  }
};

void expect_outputs_match(const Workload::Output& a,
                          const Workload::Output& b, double tol) {
  ASSERT_EQ(a.rho.size(), b.rho.size());
  for (std::size_t i = 0; i < a.rho.size(); ++i) {
    EXPECT_NEAR(a.rho[i], b.rho[i], tol * std::max(1.0, std::abs(a.rho[i])))
        << "rho mismatch at atom " << i;
    EXPECT_NEAR(norm(a.force[i] - b.force[i]), 0.0, tol * 10.0)
        << "force mismatch at atom " << i;
  }
  EXPECT_NEAR(a.result.pair_energy, b.result.pair_energy,
              tol * std::abs(a.result.pair_energy));
  EXPECT_NEAR(a.result.embedding_energy, b.result.embedding_energy,
              tol * std::abs(a.result.embedding_energy));
  EXPECT_NEAR(a.result.virial, b.result.virial,
              tol * std::max(1.0, std::abs(a.result.virial)));
}

class SdcDimensionalityTest : public ::testing::TestWithParam<int> {};

TEST_P(SdcDimensionalityTest, AllDimensionalitiesMatchSerial) {
  Workload w(6);
  const auto serial = w.run(ReductionStrategy::Serial);
  const auto sdc = w.run(ReductionStrategy::Sdc, GetParam());
  expect_outputs_match(serial, sdc, 1e-10);
}

TEST_P(SdcDimensionalityTest, SdcIsDeterministic) {
  // A data race would make repeated runs disagree; SDC must be bitwise
  // stable because each memory location is touched by exactly one thread
  // per color sweep in a fixed order.
  Workload w(6);
  const auto a = w.run(ReductionStrategy::Sdc, GetParam());
  const auto b = w.run(ReductionStrategy::Sdc, GetParam());
  for (std::size_t i = 0; i < a.rho.size(); ++i) {
    EXPECT_EQ(a.rho[i], b.rho[i]);
    EXPECT_EQ(a.force[i].x, b.force[i].x);
    EXPECT_EQ(a.force[i].y, b.force[i].y);
    EXPECT_EQ(a.force[i].z, b.force[i].z);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SdcDimensionalityTest,
                         ::testing::Values(1, 2, 3));

TEST(EamForce, PairCacheResizesAcrossNeighborRebuilds) {
  // The cache is sized to the neighbor list's pair count; after a rebuild
  // changes that count the next compute() must resize and stay correct.
  Workload w(6, 0.02, 21);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  cfg.sdc.dimensionality = 2;
  EamForceComputer computer(w.potential, cfg);
  computer.attach_schedule(w.box, w.potential.cutoff() + kSkin);
  computer.on_neighbor_rebuild(w.positions);

  const std::size_t n = w.positions.size();
  std::vector<double> rho(n), fp(n);
  std::vector<Vec3> force(n);
  computer.compute(w.box, w.positions, *w.half, rho, fp, force);
  const std::size_t pairs_before = w.half->pair_count();

  // Larger jitter: atoms cross the cutoff shell, so the rebuilt list holds
  // more pairs and the cache must grow.
  Xoshiro256 rng(5);
  for (auto& r : w.positions) {
    r = w.box.wrap(r + Vec3{rng.normal(0.0, 0.12), rng.normal(0.0, 0.12),
                            rng.normal(0.0, 0.12)});
  }
  w.half->build(w.positions);
  computer.on_neighbor_rebuild(w.positions);
  const std::size_t pairs = w.half->pair_count();
  ASSERT_GT(pairs, pairs_before);
  computer.compute(w.box, w.positions, *w.half, rho, fp, force);

  // Reference: the uncached serial rows on the rebuilt configuration.
  Workload::Output reference;
  reference.rho.resize(n);
  reference.fp.resize(n);
  reference.force.resize(n);
  computer.compute_serial_reference(w.box, w.positions, *w.half,
                                    reference.rho, reference.fp,
                                    reference.force);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(rho[i], reference.rho[i],
                1e-12 * std::max(1.0, std::abs(reference.rho[i])));
    EXPECT_NEAR(norm(force[i] - reference.force[i]), 0.0, 1e-11);
  }
  // 16 B/pair high-water footprint (8 B r + 8 B dphidr; the force row
  // rebuilds dr from the list's image code). The growth reserves 12.5 %
  // slack, not the vectors' doubling.
  constexpr std::size_t kBytesPerPair = 2 * sizeof(double);
  EXPECT_GE(computer.stats().pair_cache_bytes, pairs * kBytesPerPair);
  EXPECT_LE(computer.stats().pair_cache_bytes,
            (pairs + pairs / 8) * kBytesPerPair);
}

/// Forwards every evaluation to another potential through the base class.
/// visit_eam cannot see the concrete type behind it, so the force rows
/// take the virtual-call fallback that any other EamPotential gets.
class ForwardingEam final : public EamPotential {
 public:
  explicit ForwardingEam(const EamPotential& inner) : inner_(inner) {}

  double cutoff() const override { return inner_.cutoff(); }
  void pair(double r, double& energy, double& dvdr) const override {
    inner_.pair(r, energy, dvdr);
  }
  void density(double r, double& phi, double& dphidr) const override {
    inner_.density(r, phi, dphidr);
  }
  void embed(double rho, double& f, double& dfdrho) const override {
    inner_.embed(rho, f, dfdrho);
  }
  std::string name() const override { return "forwarding-" + inner_.name(); }

 private:
  const EamPotential& inner_;
};

void expect_bitwise(const Workload::Output& a, const Workload::Output& b) {
  ASSERT_EQ(a.rho.size(), b.rho.size());
  for (std::size_t i = 0; i < a.rho.size(); ++i) {
    EXPECT_EQ(a.rho[i], b.rho[i]) << "rho, atom " << i;
    EXPECT_EQ(a.fp[i], b.fp[i]) << "fp, atom " << i;
    EXPECT_EQ(a.force[i].x, b.force[i].x) << "force.x, atom " << i;
    EXPECT_EQ(a.force[i].y, b.force[i].y) << "force.y, atom " << i;
    EXPECT_EQ(a.force[i].z, b.force[i].z) << "force.z, atom " << i;
  }
  EXPECT_EQ(a.result.pair_energy, b.result.pair_energy);
  EXPECT_EQ(a.result.embedding_energy, b.result.embedding_energy);
  EXPECT_EQ(a.result.virial, b.result.virial);
}

TEST(EamForce, VirtualFallbackMatchesInlineBodiesBitwise) {
  // FinnisSinclair and TabulatedEam reach the rows as themselves, with
  // their header bodies inlined; a potential that only forwards to them
  // reaches the rows as EamPotential and calls the same bodies through
  // the vtable. Every strategy's rows (the cached scatter rows, RC's
  // gather on a full list) and the serial reference must give the same
  // bits either way. One thread, so the strategies whose
  // scatter order depends on timing add in a fixed order.
  Workload w(6);
  const TabulatedEam tabulated =
      TabulatedEam::from_analytic(w.potential, 2000, 2000, 60.0);
  const double range = w.potential.cutoff() + kSkin;
  ASSERT_TRUE(SdcSchedule::feasible(w.box, range, SdcConfig{}));
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  for (const EamPotential* inner :
       {static_cast<const EamPotential*>(&w.potential),
        static_cast<const EamPotential*>(&tabulated)}) {
    const ForwardingEam forwarding(*inner);
    for (ReductionStrategy s : kAllStrategies) {
      SCOPED_TRACE(inner->name() + " " + to_string(s));
      expect_bitwise(w.run_with(*inner, s), w.run_with(forwarding, s));
    }
    SCOPED_TRACE(inner->name() + " serial reference");
    const std::size_t n = w.positions.size();
    Workload::Output a, b;
    for (Workload::Output* out : {&a, &b}) {
      out->rho.resize(n);
      out->fp.resize(n);
      out->force.resize(n);
    }
    const EamForceComputer direct(*inner, EamForceConfig{});
    const EamForceComputer fallback(forwarding, EamForceConfig{});
    a.result = direct.compute_serial_reference(w.box, w.positions, *w.half,
                                               a.rho, a.fp, a.force);
    b.result = fallback.compute_serial_reference(w.box, w.positions, *w.half,
                                                 b.rho, b.fp, b.force);
    expect_bitwise(a, b);
  }
  omp_set_num_threads(saved_threads);
}

TEST(EamForce, NewtonsThirdLawTotalForceVanishes) {
  Workload w(6);
  for (ReductionStrategy s :
       {ReductionStrategy::Serial, ReductionStrategy::Sdc,
        ReductionStrategy::RedundantComputation}) {
    const auto out = w.run(s);
    Vec3 total{};
    for (const auto& f : out.force) total += f;
    EXPECT_NEAR(norm(total), 0.0, 1e-9) << to_string(s);
  }
}

TEST(EamForce, PerfectLatticeHasZeroForcesBySymmetry) {
  Workload w(6, /*jitter=*/0.0);
  const auto out = w.run(ReductionStrategy::Serial);
  for (const auto& f : out.force) {
    EXPECT_NEAR(norm(f), 0.0, 1e-10);
  }
}

TEST(EamForce, PerfectLatticeEnergyIsNegativeAndExtensive) {
  // Cohesion: the FS iron crystal must bind (negative energy per atom),
  // and doubling the system doubles the energy.
  Workload small(4, 0.0);
  Workload large(8, 0.0);
  const auto e_small = small.run(ReductionStrategy::Serial).result;
  const auto e_large = large.run(ReductionStrategy::Serial).result;
  EXPECT_LT(e_small.total_energy(), 0.0);
  const double per_atom_small =
      e_small.total_energy() / static_cast<double>(small.positions.size());
  const double per_atom_large =
      e_large.total_energy() / static_cast<double>(large.positions.size());
  EXPECT_NEAR(per_atom_small, per_atom_large,
              1e-9 * std::abs(per_atom_small));
}

TEST(EamForce, ForceIsMinusGradientOfEnergy) {
  Workload w(4, 0.08, 99);
  const auto base = w.run(ReductionStrategy::Serial);

  const double h = 1e-6;
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const auto atom = static_cast<std::size_t>(
        rng.below(w.positions.size()));
    const int dim = static_cast<int>(rng.below(3));

    const double original = w.positions[atom][dim];
    w.positions[atom][dim] = original + h;
    w.half->build(w.positions);
    const double e_plus = w.run(ReductionStrategy::Serial)
                              .result.total_energy();
    w.positions[atom][dim] = original - h;
    w.half->build(w.positions);
    const double e_minus = w.run(ReductionStrategy::Serial)
                               .result.total_energy();
    w.positions[atom][dim] = original;
    w.half->build(w.positions);

    const double fd_force = -(e_plus - e_minus) / (2.0 * h);
    EXPECT_NEAR(base.force[atom][dim], fd_force, 2e-4)
        << "atom " << atom << " dim " << dim;
  }
}

TEST(EamForce, RhoMatchesDirectSum) {
  Workload w(4, 0.05);
  const auto out = w.run(ReductionStrategy::Serial);
  // Independent O(N^2) density computation.
  for (std::size_t i = 0; i < std::min<std::size_t>(w.positions.size(), 20);
       ++i) {
    double rho = 0.0;
    for (std::size_t j = 0; j < w.positions.size(); ++j) {
      if (i == j) continue;
      const double r =
          std::sqrt(w.box.distance2(w.positions[i], w.positions[j]));
      if (r >= w.potential.cutoff()) continue;
      double phi, dphidr;
      w.potential.density(r, phi, dphidr);
      rho += phi;
    }
    EXPECT_NEAR(out.rho[i], rho, 1e-10 * std::max(1.0, rho));
  }
}

TEST(EamForce, StatsCountersTrackWork) {
  Workload w(6);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  EamForceComputer computer(w.potential, cfg);
  computer.attach_schedule(w.box, w.potential.cutoff() + kSkin);
  computer.on_neighbor_rebuild(w.positions);

  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  computer.compute(w.box, w.positions, *w.half, rho, fp, force);
  computer.compute(w.box, w.positions, *w.half, rho, fp, force);

  const auto& stats = computer.stats();
  EXPECT_EQ(stats.density_pair_visits, 2 * w.half->pair_count());
  EXPECT_EQ(stats.scatter_updates, 4 * w.half->pair_count());
  EXPECT_EQ(stats.color_sweeps,
            4u * static_cast<std::size_t>(computer.schedule()->color_count()));
  // Pair cache on by default: every CSR slot stored then read, each step.
  EXPECT_EQ(stats.cache_store_slots, 2 * w.half->pair_count());
  EXPECT_EQ(stats.cache_read_slots, 2 * w.half->pair_count());
  EXPECT_GE(stats.pair_cache_bytes, w.half->pair_count() * 2 * sizeof(double));

  computer.reset_instrumentation();
  EXPECT_EQ(computer.stats().density_pair_visits, 0u);
  EXPECT_EQ(computer.stats().cache_store_slots, 0u);
}

TEST(EamForce, RcVisitsTwiceThePairs) {
  Workload w(6);
  EXPECT_EQ(w.full->pair_count(), 2 * w.half->pair_count());
}

TEST(EamForce, SapReportsPrivateMemoryProportionalToThreads) {
  Workload w(6);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::ArrayPrivatization;
  EamForceComputer computer(w.potential, cfg);
  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  computer.compute(w.box, w.positions, *w.half, rho, fp, force);
  // rho + force replicas per thread: n * (8 + 24) bytes each.
  const std::size_t per_thread =
      w.positions.size() * (sizeof(double) + sizeof(Vec3));
  EXPECT_GE(computer.stats().private_array_bytes, per_thread);
}

TEST(EamForce, SdcWithoutScheduleThrows) {
  Workload w(6);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  EamForceComputer computer(w.potential, cfg);
  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  EXPECT_THROW(
      computer.compute(w.box, w.positions, *w.half, rho, fp, force),
      PreconditionError);
}

TEST(EamForce, RetiredAndModeChangingStrategiesAreRefused) {
  // No shape remains for the retired CellTask value: every computer
  // refuses it at construction, and set_strategy refuses it as it refuses
  // a swap that would change the neighbor-list mode, before touching the
  // running strategy.
  Workload w(6);
  EamForceConfig retired;
  retired.strategy = ReductionStrategy::CellTask;
  EXPECT_THROW(EamForceComputer(w.potential, retired), PreconditionError);
  const LennardJones lj(0.1, 2.2, w.potential.cutoff());
  EXPECT_THROW(PairForceComputer(lj, retired), PreconditionError);
  const SingleSpeciesAlloy alloy(w.potential, units::kMassFe, "Fe");
  EXPECT_THROW(AlloyForceComputer(alloy, retired), PreconditionError);

  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  EamForceComputer computer(w.potential, cfg);
  computer.attach_schedule(w.box, w.potential.cutoff() + kSkin);
  computer.on_neighbor_rebuild(w.positions);
  for (ReductionStrategy refused :
       {ReductionStrategy::CellTask, ReductionStrategy::RedundantComputation}) {
    EXPECT_THROW(computer.set_strategy(refused), PreconditionError)
        << to_string(refused);
    EXPECT_EQ(computer.config().strategy, ReductionStrategy::Sdc);
  }
  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  EXPECT_NO_THROW(
      computer.compute(w.box, w.positions, *w.half, rho, fp, force));
}

TEST(EamForce, HotSwapFromSdcAndBackMatchesSerial) {
  // The governor's ladder moves on one computer: SDC -> SAP drops the SDC
  // schedule, and the pair cache carries over; back to SDC re-attaches it.
  Workload w(6);
  const Workload::Output serial = w.run(ReductionStrategy::Serial);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Sdc;
  cfg.sdc.dimensionality = 2;
  EamForceComputer computer(w.potential, cfg);
  const auto compute = [&] {
    Workload::Output out;
    out.rho.resize(w.positions.size());
    out.fp.resize(w.positions.size());
    out.force.resize(w.positions.size());
    out.result = computer.compute(w.box, w.positions, *w.half, out.rho,
                                  out.fp, out.force);
    return out;
  };
  computer.attach_schedule(w.box, w.potential.cutoff() + kSkin);
  computer.on_neighbor_rebuild(w.positions);
  expect_outputs_match(serial, compute(), 1e-12);

  computer.set_strategy(ReductionStrategy::ArrayPrivatization);
  EXPECT_EQ(computer.schedule(), nullptr);
  expect_outputs_match(serial, compute(), 1e-12);

  computer.set_strategy(ReductionStrategy::Sdc);
  EXPECT_THROW(compute(), PreconditionError);  // schedule not re-attached
  computer.attach_schedule(w.box, w.potential.cutoff() + kSkin);
  computer.on_neighbor_rebuild(w.positions);
  ASSERT_NE(computer.schedule(), nullptr);
  expect_outputs_match(serial, compute(), 1e-12);
}

/// A caller of the shared neighbor-list contract (require_list): the list
/// it walks, and one call on the given box, atoms and list.
struct ListCaller {
  std::string name;
  double cutoff;
  NeighborMode mode;
  std::function<void(const Box&, std::span<const Vec3>, const NeighborList&)>
      call;
};

/// A list with one defect, and the box and atoms of the call it meets.
struct BrokenList {
  std::string defect;
  Box box;
  std::span<const Vec3> positions;
  std::shared_ptr<NeighborList> list;
};

std::shared_ptr<NeighborList> built_list(const Box& box, double cutoff,
                                         NeighborMode mode,
                                         std::span<const Vec3> positions) {
  NeighborListConfig cfg;
  cfg.cutoff = cutoff;
  cfg.skin = kSkin;
  cfg.mode = mode;
  auto list = std::make_shared<NeighborList>(box, cfg);
  list->build(positions);
  return list;
}

/// Every way a list can fail the contract of a caller that walks a `mode`
/// list covering `cutoff` over the workload's atoms.
std::vector<BrokenList> broken_lists(const Workload& w, double cutoff,
                                     NeighborMode mode) {
  const std::span<const Vec3> all = w.positions;
  const std::span<const Vec3> fewer = all.first(all.size() - 2);
  Box other = w.box;
  other.rescale({1.01, 1.01, 1.01});
  const NeighborMode wrong =
      mode == NeighborMode::Half ? NeighborMode::Full : NeighborMode::Half;
  auto moved = built_list(w.box, cutoff, mode, all);
  moved->update_box(other);
  return {
      {"built for another box", other, all,
       built_list(w.box, cutoff, mode, all)},
      {"moved by update_box and not rebuilt", other, all, moved},
      {"more atoms than the call", w.box, fewer,
       built_list(w.box, cutoff, mode, all)},
      {"fewer atoms than the call", w.box, all,
       built_list(w.box, cutoff, mode, fewer)},
      {"shorter than the potential", w.box, all,
       built_list(w.box, cutoff - 1.0, mode, all)},
      {"the wrong mode", w.box, all, built_list(w.box, cutoff, wrong, all)},
  };
}

TEST(ListContract, EveryCallerRefusesEveryBrokenList) {
  // The rows trust the list: they index j by its rows, take each pair's
  // displacement from the image code it stored for the box it was built
  // for, and drop pairs it does not hold. So every caller refuses each
  // broken list before its region opens, with one shared check.
  Workload w(6);
  const double range = w.potential.cutoff() + kSkin;
  const auto eam_outputs = [](std::span<const Vec3> x) {
    return std::tuple(std::vector<double>(x.size()),
                      std::vector<double>(x.size()),
                      std::vector<Vec3>(x.size()));
  };

  std::vector<ListCaller> callers;
  std::vector<std::unique_ptr<EamForceComputer>> computers;
  for (const ReductionStrategy strategy : kAllStrategies) {
    EamForceConfig cfg;
    cfg.strategy = strategy;
    auto& computer =
        computers.emplace_back(std::make_unique<EamForceComputer>(w.potential,
                                                                  cfg));
    computer->attach_schedule(w.box, range);
    computer->on_neighbor_rebuild(w.positions);
    callers.push_back({"compute under " + to_string(strategy),
                       w.potential.cutoff(), required_mode(strategy),
                       [&eam_outputs, c = computer.get()](
                           const Box& box, std::span<const Vec3> x,
                           const NeighborList& list) {
                         auto [rho, fp, force] = eam_outputs(x);
                         c->compute(box, x, list, rho, fp, force);
                       }});
  }
  const EamForceComputer reference(w.potential, EamForceConfig{});
  callers.push_back({"compute_serial_reference", w.potential.cutoff(),
                     NeighborMode::Half,
                     [&](const Box& box, std::span<const Vec3> x,
                         const NeighborList& list) {
                       auto [rho, fp, force] = eam_outputs(x);
                       reference.compute_serial_reference(box, x, list, rho,
                                                          fp, force);
                     }});

  const LennardJones lj(0.1, 2.3, w.potential.cutoff());
  PairForceComputer pair(lj, EamForceConfig{ReductionStrategy::Serial, {}});
  callers.push_back({"pair", lj.cutoff(), NeighborMode::Half,
                     [&](const Box& box, std::span<const Vec3> x,
                         const NeighborList& list) {
                       std::vector<Vec3> force(x.size());
                       pair.compute(box, x, list, force);
                     }});

  const JohnsonEam cu(JohnsonParams::copper());
  const JohnsonMixedAlloy alloy(
      {{&w.potential, units::kMassFe, "Fe"}, {&cu, 63.546, "Cu"}});
  AlloyForceComputer alloy_computer(
      alloy, EamForceConfig{ReductionStrategy::Serial, {}});
  callers.push_back({"alloy", alloy.cutoff(), NeighborMode::Half,
                     [&](const Box& box, std::span<const Vec3> x,
                         const NeighborList& list) {
                       const std::vector<std::uint8_t> types(x.size(), 0);
                       auto [rho, fp, force] = eam_outputs(x);
                       alloy_computer.compute(box, x, types, list, rho, fp,
                                              force);
                     }});

  const PerAtomStress stress(w.potential);
  callers.push_back({"PerAtomStress", w.potential.cutoff(),
                     NeighborMode::Half,
                     [&](const Box& box, std::span<const Vec3> x,
                         const NeighborList& list) {
                       const std::vector<double> fp(x.size());
                       std::vector<StressTensor> tensors;
                       stress.compute(box, x, {}, 1.0, list, fp, tensors);
                     }});

  for (const ListCaller& caller : callers) {
    SCOPED_TRACE(caller.name);
    const auto good =
        built_list(w.box, caller.cutoff, caller.mode, w.positions);
    EXPECT_NO_THROW(caller.call(w.box, w.positions, *good));
    for (const BrokenList& broken :
         broken_lists(w, caller.cutoff, caller.mode)) {
      EXPECT_THROW(caller.call(broken.box, broken.positions, *broken.list),
                   PreconditionError)
          << "a list " << broken.defect;
    }
  }
}

TEST(EamForce, MismatchedOutputSizesThrow) {
  Workload w(4);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Serial;
  EamForceComputer computer(w.potential, cfg);
  std::vector<double> rho(w.positions.size() - 1), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  EXPECT_THROW(
      computer.compute(w.box, w.positions, *w.half, rho, fp, force),
      PreconditionError);
}

TEST(EamForce, ForcesInvariantUnderRigidTranslation) {
  // Translating every atom by the same vector (with PBC wrap) must leave
  // energies and forces untouched.
  Workload a(5, 0.06, 13);
  Workload b(5, 0.06, 13);
  const Vec3 shift{1.2345, -0.6789, 2.222};
  for (auto& r : b.positions) r = b.box.wrap(r + shift);
  b.half->build(b.positions);

  const auto out_a = a.run(ReductionStrategy::Serial);
  const auto out_b = b.run(ReductionStrategy::Serial);
  EXPECT_NEAR(out_a.result.total_energy(), out_b.result.total_energy(),
              1e-9 * std::abs(out_a.result.total_energy()));
  for (std::size_t i = 0; i < out_a.force.size(); ++i) {
    EXPECT_NEAR(norm(out_a.force[i] - out_b.force[i]), 0.0, 1e-9);
  }
}

TEST(EamForce, ForcesCovariantUnderLatticeRotation) {
  // Rotating the configuration by 90 degrees about z (a symmetry of the
  // cubic box) must rotate the forces with it.
  Workload a(5, 0.06, 17);
  Workload b(5, 0.0, 0);
  const double edge = a.box.length(0);
  b.positions.resize(a.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    const Vec3& r = a.positions[i];
    b.positions[i] = b.box.wrap({edge - r.y, r.x, r.z});
  }
  b.half->build(b.positions);

  const auto out_a = a.run(ReductionStrategy::Serial);
  const auto out_b = b.run(ReductionStrategy::Serial);
  EXPECT_NEAR(out_a.result.total_energy(), out_b.result.total_energy(),
              1e-9 * std::abs(out_a.result.total_energy()));
  for (std::size_t i = 0; i < out_a.force.size(); ++i) {
    const Vec3 rotated{-out_a.force[i].y, out_a.force[i].x,
                       out_a.force[i].z};
    EXPECT_NEAR(norm(rotated - out_b.force[i]), 0.0, 1e-8) << "atom " << i;
  }
}

TEST(EamForce, PhaseTimersCoverAllThreePhases) {
  Workload w(4);
  EamForceConfig cfg;
  cfg.strategy = ReductionStrategy::Serial;
  EamForceComputer computer(w.potential, cfg);
  std::vector<double> rho(w.positions.size()), fp(w.positions.size());
  std::vector<Vec3> force(w.positions.size());
  computer.compute(w.box, w.positions, *w.half, rho, fp, force);
  const auto entries = computer.timers().entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "density");
  EXPECT_EQ(entries[1].name, "embed");
  EXPECT_EQ(entries[2].name, "force");
  for (const auto& e : entries) {
    EXPECT_EQ(e.laps, 1u);
  }
}

}  // namespace
}  // namespace sdcmd
