// Conformance suite: the one contract every reduction strategy, thread
// count and workload shape is held to, and the safety net for refactoring
// the kernels.
//
//  * EAM backend: each strategy must reproduce
//    EamForceComputer::compute_serial_reference (the uncached scalar
//    reference) on the same configuration - rho and forces to 1e-12
//    absolute, energies and virial to 1e-12 relative. Two potentials:
//    analytic Finnis-Sinclair and its tabulated form (spline tables), both
//    evaluated inline in the rows; RC gathers over a full list for each.
//  * SDC is bitwise repeatable across calls.
//  * Pair backend: every strategy must reproduce its own Serial strategy
//    to the same tolerances.
//  * Alloy backend: Johnson-mixed Fe-Cu, about a fifth of the sites Cu;
//    every strategy must reproduce the alloy's own Serial strategy to the
//    EAM tolerances, and SDC is bitwise repeatable.
//
// Workloads: jittered bcc iron, a carved spherical void, a slab with free
// z surfaces, and a box deformed across a neighbor cell-count boundary
// (the list adapts through update_box rather than reconstruction). The
// alloy's longer range takes larger boxes of the same four shapes. A case
// is skipped only where the strategy's own feasibility probe rejects the
// box.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "common/threads.hpp"
#include "common/units.hpp"
#include "core/alloy_force.hpp"
#include "core/eam_force.hpp"
#include "core/pair_force.hpp"
#include "core/sdc_schedule.hpp"
#include "geom/defects.hpp"
#include "geom/lattice.hpp"
#include "potential/alloy.hpp"
#include "potential/finnis_sinclair.hpp"
#include "potential/johnson.hpp"
#include "potential/lennard_jones.hpp"
#include "potential/tabulated.hpp"

namespace sdcmd {
namespace {

constexpr double kSkin = 0.4;
constexpr double kTol = 1e-12;

enum class Shape { Bulk, Void, Slab, Deformed };
enum class Pot { Analytic, Tabulated };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::Bulk: return "bulk";
    case Shape::Void: return "void";
    case Shape::Slab: return "slab";
    case Shape::Deformed: return "deformed";
  }
  return "?";
}

/// 0 stands for hardware_threads() in the parameter lists.
int resolve_threads(int t) { return t > 0 ? t : hardware_threads(); }

std::string threads_name(int t) {
  return t > 0 ? std::to_string(t) + "t" : std::string("hw");
}

/// Box sizes of the four shapes, in bcc cells: the smallest that keep 2-D
/// SDC feasible at a backend's interaction range.
struct ShapeCells {
  int bulk;        ///< cube edge
  int void_cube;   ///< cube edge before the sphere is carved out
  int slab;        ///< film x and y (the film is 4 cells thick)
  int deformed;    ///< cube edge before compression
  double squeeze;  ///< compression that drops the neighbor grid by a cell
};

/// Finnis-Sinclair iron and the pair potential: range 3.97 A.
constexpr ShapeCells kFsCells{6, 7, 6, 7, 0.95};
/// The Fe-Cu alloy: range 5.35 A (the Cu cutoff 4.95 A plus the skin).
constexpr ShapeCells kAlloyCells{8, 9, 8, 10, 0.92};

/// Atoms and box of one workload. `list_box` is the box the neighbor list
/// is constructed for; it differs from `box` only for Shape::Deformed,
/// whose list must adapt to the final box through update_box().
struct Geometry {
  Box box;
  Box list_box;
  std::vector<Vec3> positions;
};

std::vector<Vec3> bcc(int nx, int ny, int nz) {
  LatticeSpec spec;
  spec.type = LatticeType::Bcc;
  spec.a0 = units::kLatticeFe;
  spec.nx = nx;
  spec.ny = ny;
  spec.nz = nz;
  return build_lattice(spec);
}

void jitter(std::vector<Vec3>& positions, const Box& box,
            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (auto& r : positions) {
    r += Vec3{rng.normal(0.0, 0.05), rng.normal(0.0, 0.05),
              rng.normal(0.0, 0.05)};
    r = box.wrap(r);
  }
}

Geometry make_geometry(Shape shape, const ShapeCells& cells) {
  const double a = units::kLatticeFe;
  switch (shape) {
    case Shape::Bulk: {
      // The smallest cube that fits two 2-D SDC subdomains.
      const int c = cells.bulk;
      const Box box = Box::cubic(c * a);
      Geometry g{box, box, bcc(c, c, c)};
      jitter(g.positions, box, 7);
      return g;
    }
    case Shape::Void: {
      // Uneven per-subdomain and per-block populations.
      const int c = cells.void_cube;
      const Box box = Box::cubic(c * a);
      Geometry g{box, box, bcc(c, c, c)};
      jitter(g.positions, box, 11);
      const Vec3 center = 0.5 * (box.lo() + box.hi());
      carve_sphere(g.positions, box, center, 0.3 * box.length(0));
      return g;
    }
    case Shape::Slab: {
      // Periodic in x and y; z is free, with the film floating between
      // two vacuum gaps, so atoms near either face have truncated shells.
      const double gap = 4.0;
      const int c = cells.slab;
      const Box box({0.0, 0.0, 0.0}, {c * a, c * a, 4 * a + 2 * gap},
                    {true, true, false});
      Geometry g{box, box, bcc(c, c, 4)};
      for (auto& r : g.positions) r.z += gap;
      jitter(g.positions, box, 13);
      return g;
    }
    case Shape::Deformed: {
      // The compression drops the neighbor grid from 5 to 4 cells per
      // axis while 2-D SDC stays feasible.
      const int c = cells.deformed;
      const double scale = cells.squeeze;
      const Box original = Box::cubic(c * a);
      const Box box = Box::cubic(c * a * scale);
      Geometry g{box, original, bcc(c, c, c)};
      for (auto& r : g.positions) r = scale * r;
      jitter(g.positions, box, 17);
      return g;
    }
  }
  return Geometry{Box::cubic(1.0), Box::cubic(1.0), {}};
}

std::unique_ptr<NeighborList> make_list(const Geometry& g, double cutoff,
                                        NeighborMode mode) {
  NeighborListConfig cfg;
  cfg.cutoff = cutoff;
  cfg.skin = kSkin;
  cfg.mode = mode;
  auto list = std::make_unique<NeighborList>(g.list_box, cfg);
  if (g.list_box.lengths().x != g.box.lengths().x) {
    EXPECT_TRUE(list->update_box(g.box))
        << "the deformation must cross a cell-count boundary";
  }
  list->build(g.positions);
  return list;
}

/// The strategy's own feasibility probe; false means "skip, not fail".
bool feasible(ReductionStrategy s, const Box& box, double range) {
  switch (s) {
    case ReductionStrategy::Sdc:
      return SdcSchedule::feasible(box, range, SdcConfig{});
    default:
      return true;
  }
}

/// Sets the OpenMP team size for the scope of one case.
class ThreadScope {
 public:
  explicit ThreadScope(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~ThreadScope() { omp_set_num_threads(saved_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_;
};

void expect_close_rel(double ref, double got, const char* what) {
  EXPECT_NEAR(ref, got, kTol * std::max(1.0, std::abs(ref))) << what;
}

void expect_forces_match(const std::vector<Vec3>& ref,
                         const std::vector<Vec3>& got) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(ref[i].x, got[i].x, kTol) << "force.x, atom " << i;
    EXPECT_NEAR(ref[i].y, got[i].y, kTol) << "force.y, atom " << i;
    EXPECT_NEAR(ref[i].z, got[i].z, kTol) << "force.z, atom " << i;
  }
}

// ---------------------------------------------------------------- EAM

const EamPotential& eam_potential(Pot p) {
  static const FinnisSinclair analytic(FinnisSinclairParams::iron());
  static const TabulatedEam tabulated =
      TabulatedEam::from_analytic(analytic, 2000, 2000, 60.0);
  if (p == Pot::Analytic) return analytic;
  return tabulated;
}

/// Outputs of one three-phase (EAM or alloy) force call.
template <class Result>
struct PhaseOut {
  std::vector<double> rho, fp;
  std::vector<Vec3> force;
  Result result;

  explicit PhaseOut(std::size_t n) : rho(n), fp(n), force(n) {}
};
using EamOut = PhaseOut<EamForceResult>;
using AlloyOut = PhaseOut<AlloyForceResult>;

template <class Result>
void expect_eam_match(const PhaseOut<Result>& ref,
                      const PhaseOut<Result>& got) {
  ASSERT_EQ(ref.rho.size(), got.rho.size());
  for (std::size_t i = 0; i < ref.rho.size(); ++i) {
    EXPECT_NEAR(ref.rho[i], got.rho[i], kTol) << "rho, atom " << i;
  }
  expect_forces_match(ref.force, got.force);
  expect_close_rel(ref.result.pair_energy, got.result.pair_energy,
                   "pair energy");
  expect_close_rel(ref.result.embedding_energy, got.result.embedding_energy,
                   "embedding energy");
  expect_close_rel(ref.result.virial, got.result.virial, "virial");
}

template <class Result>
void expect_bitwise(const PhaseOut<Result>& a, const PhaseOut<Result>& b) {
  for (std::size_t i = 0; i < a.rho.size(); ++i) {
    EXPECT_EQ(a.rho[i], b.rho[i]) << "rho, atom " << i;
    EXPECT_EQ(a.force[i].x, b.force[i].x) << "force.x, atom " << i;
    EXPECT_EQ(a.force[i].y, b.force[i].y) << "force.y, atom " << i;
    EXPECT_EQ(a.force[i].z, b.force[i].z) << "force.z, atom " << i;
  }
  EXPECT_EQ(a.result.pair_energy, b.result.pair_energy);
  EXPECT_EQ(a.result.embedding_energy, b.result.embedding_energy);
  EXPECT_EQ(a.result.virial, b.result.virial);
}

using EamParam = std::tuple<ReductionStrategy, int, Shape, Pot>;

class EamConformance : public ::testing::TestWithParam<EamParam> {};

TEST_P(EamConformance, MatchesSerialReference) {
  const auto [strategy, threads, shape, pot_kind] = GetParam();
  const Geometry g = make_geometry(shape, kFsCells);
  const EamPotential& pot = eam_potential(pot_kind);
  const double range = pot.cutoff() + kSkin;
  if (!feasible(strategy, g.box, range)) {
    GTEST_SKIP() << to_string(strategy) << " infeasible for this box";
  }
  const std::size_t n = g.positions.size();

  EamForceConfig cfg;
  cfg.strategy = strategy;
  EamForceComputer computer(pot, cfg);
  const auto list = make_list(g, pot.cutoff(), required_mode(strategy));
  const auto half = make_list(g, pot.cutoff(), NeighborMode::Half);

  EamOut ref(n);
  ref.result = computer.compute_serial_reference(g.box, g.positions, *half,
                                                 ref.rho, ref.fp, ref.force);

  const ThreadScope scope(resolve_threads(threads));
  computer.attach_schedule(g.box, range);
  computer.on_neighbor_rebuild(g.positions);
  EamOut got(n);
  got.result = computer.compute(g.box, g.positions, *list, got.rho, got.fp,
                                got.force);
  expect_eam_match(ref, got);

  if (strategy == ReductionStrategy::Sdc) {
    EamOut again(n);
    again.result = computer.compute(g.box, g.positions, *list, again.rho,
                                    again.fp, again.force);
    expect_bitwise(got, again);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EamConformance,
    ::testing::Combine(::testing::ValuesIn(kAllStrategies),
                       ::testing::Values(1, 2, 0),
                       ::testing::Values(Shape::Bulk, Shape::Void,
                                         Shape::Slab, Shape::Deformed),
                       ::testing::Values(Pot::Analytic, Pot::Tabulated)),
    [](const ::testing::TestParamInfo<EamParam>& param_info) {
      const EamParam& p = param_info.param;
      return to_string(std::get<0>(p)) + "_" + threads_name(std::get<1>(p)) +
             "_" + shape_name(std::get<2>(p)) +
             (std::get<3>(p) == Pot::Analytic ? "_analytic" : "_tabulated");
    });

// --------------------------------------------------------------- pair

/// Lennard-Jones tuned to the iron geometry (minimum near the bcc
/// nearest-neighbor distance) with the FS range, so the same workloads
/// stay SDC-feasible and the forces stay O(1).
const LennardJones& pair_potential() {
  static const LennardJones lj(0.1, 2.2, 3.569745);
  return lj;
}

struct PairOut {
  std::vector<Vec3> force;
  PairForceResult result;
};

PairOut run_pair(ReductionStrategy strategy, const Geometry& g) {
  const PairPotential& pot = pair_potential();
  PairForceConfig cfg;
  cfg.strategy = strategy;
  PairForceComputer computer(pot, cfg);
  computer.attach_schedule(g.box, pot.cutoff() + kSkin);
  computer.on_neighbor_rebuild(g.positions);
  const auto list = make_list(g, pot.cutoff(), required_mode(strategy));
  PairOut out;
  out.force.resize(g.positions.size());
  out.result = computer.compute(g.box, g.positions, *list, out.force);
  return out;
}

using PairParam = std::tuple<ReductionStrategy, int, Shape>;

/// Case name in a (strategy, threads, shape) matrix, e.g. "sdc_2t_void".
std::string matrix_name(const ::testing::TestParamInfo<PairParam>& info) {
  const PairParam& p = info.param;
  return to_string(std::get<0>(p)) + "_" + threads_name(std::get<1>(p)) +
         "_" + shape_name(std::get<2>(p));
}

class PairConformance : public ::testing::TestWithParam<PairParam> {};

TEST_P(PairConformance, MatchesSerialStrategy) {
  const auto [strategy, threads, shape] = GetParam();
  const Geometry g = make_geometry(shape, kFsCells);
  if (!feasible(strategy, g.box, pair_potential().cutoff() + kSkin)) {
    GTEST_SKIP() << to_string(strategy) << " infeasible for this box";
  }
  const PairOut ref = run_pair(ReductionStrategy::Serial, g);
  const ThreadScope scope(resolve_threads(threads));
  const PairOut got = run_pair(strategy, g);
  expect_forces_match(ref.force, got.force);
  expect_close_rel(ref.result.energy, got.result.energy, "energy");
  expect_close_rel(ref.result.virial, got.result.virial, "virial");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PairConformance,
    ::testing::Combine(::testing::ValuesIn(kAllStrategies),
                       ::testing::Values(1, 2, 0),
                       ::testing::Values(Shape::Bulk, Shape::Void,
                                         Shape::Slab, Shape::Deformed)),
    matrix_name);

// -------------------------------------------------------------- alloy

const AlloyEamPotential& alloy_potential() {
  static const FinnisSinclair fe(FinnisSinclairParams::iron());
  static const JohnsonEam cu(JohnsonParams::copper());
  static const JohnsonMixedAlloy fecu(
      {{&fe, units::kMassFe, "Fe"}, {&cu, 63.546, "Cu"}});
  return fecu;
}

/// Species of each site: about a fifth Cu (1), the rest Fe (0).
std::vector<std::uint8_t> alloy_types(std::size_t n) {
  Xoshiro256 rng(19);
  std::vector<std::uint8_t> types(n, 0);
  for (auto& t : types) {
    if (rng.uniform() < 0.2) t = 1;
  }
  return types;
}

/// One alloy computer with its schedule and list built for one workload.
struct AlloyRun {
  AlloyForceComputer computer;
  std::unique_ptr<NeighborList> list;

  AlloyRun(ReductionStrategy strategy, const Geometry& g)
      : computer(alloy_potential(), AlloyForceConfig{strategy, SdcConfig{}}),
        list(make_list(g, alloy_potential().cutoff(),
                       required_mode(strategy))) {
    computer.attach_schedule(g.box, alloy_potential().cutoff() + kSkin);
    computer.on_neighbor_rebuild(g.positions);
  }

  AlloyOut compute(const Geometry& g,
                   const std::vector<std::uint8_t>& types) {
    AlloyOut out(g.positions.size());
    out.result = computer.compute(g.box, g.positions, types, *list, out.rho,
                                  out.fp, out.force);
    return out;
  }
};

class AlloyConformance : public ::testing::TestWithParam<PairParam> {};

TEST_P(AlloyConformance, MatchesSerialStrategy) {
  const auto [strategy, threads, shape] = GetParam();
  const Geometry g = make_geometry(shape, kAlloyCells);
  if (!feasible(strategy, g.box, alloy_potential().cutoff() + kSkin)) {
    GTEST_SKIP() << to_string(strategy) << " infeasible for this box";
  }
  const auto types = alloy_types(g.positions.size());
  const AlloyOut ref = AlloyRun(ReductionStrategy::Serial, g).compute(g, types);
  const ThreadScope scope(resolve_threads(threads));
  AlloyRun run(strategy, g);
  const AlloyOut got = run.compute(g, types);
  expect_eam_match(ref, got);
  if (strategy == ReductionStrategy::Sdc) {
    expect_bitwise(got, run.compute(g, types));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AlloyConformance,
    ::testing::Combine(::testing::ValuesIn(kAllStrategies),
                       ::testing::Values(1, 2, 0),
                       ::testing::Values(Shape::Bulk, Shape::Void,
                                         Shape::Slab, Shape::Deformed)),
    matrix_name);

// The per-thread energy partials are summed in thread order, so a fixed
// team reproduces every bit of every call. 15 cells split into 4 x 4
// subdomains: each color has 4 slots, so every thread of the team sweeps
// rows and carries a nonzero partial (the 8-cell bulk has one slot per
// color).
TEST(AlloyRepeatability, SdcIsBitwiseAcrossAHundredCallsAtFourThreads) {
  const Box box = Box::cubic(15 * units::kLatticeFe);
  Geometry g{box, box, bcc(15, 15, 15)};
  jitter(g.positions, box, 7);
  const auto types = alloy_types(g.positions.size());
  const ThreadScope scope(4);
  AlloyRun run(ReductionStrategy::Sdc, g);
  const AlloyOut first = run.compute(g, types);
  for (int call = 1; call < 100; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    expect_bitwise(first, run.compute(g, types));
  }
}

}  // namespace
}  // namespace sdcmd
