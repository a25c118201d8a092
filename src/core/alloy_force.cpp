#include "core/alloy_force.hpp"

#include <omp.h>

#include <cmath>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "core/detail/eam_kernels.hpp"
#include "core/detail/skeleton.hpp"

namespace sdcmd {

namespace {

struct AlloyArgs {
  std::span<const Vec3> x;
  std::span<const std::uint8_t> types;
  const NeighborList& list;
  const AlloyEamPotential& pot;
  double cutoff2;
};

/// Phase 1 row body (see skeleton.hpp): atom i gathers phi_{t_j} from its
/// row; on a half list each pair also hands i's donation phi_{t_i} to j
/// through the protection (the two differ when the species do).
struct AlloyDensityRow {
  const AlloyArgs& args;

  template <class S>
  void operator()(std::size_t i, S s) const {
    const AlloyArgs& a = args;
    const Vec3 xi = a.x[i];
    const int ti = a.types[i];
    const auto nbrs = a.list.neighbors(i);
    const auto images = a.list.images(i);
    double rho_i = 0.0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      const Vec3 dr = a.list.displacement(xi, a.x[j], images[k]);
      const double r2 = norm2(dr);
      if (r2 >= a.cutoff2) continue;
      const double r = std::sqrt(r2);
      double phi, dphi;
      a.pot.density(a.types[j], r, phi, dphi);  // j donates to i
      rho_i += phi;
      if constexpr (S::kScatters) {
        a.pot.density(ti, r, phi, dphi);  // i donates to j
        s.add(j, phi);
      }
    }
    s.add(i, rho_i);
  }
};

/// Phase 2, per atom: F_{t_i}(rho_i), no scatter.
struct AlloyEmbedRow {
  const AlloyArgs& args;
  const double* rho;
  double* fp;
  double energy = 0.0;

  void operator()(std::size_t i) {
    double f, dfdrho;
    args.pot.embed(args.types[i], rho[i], f, dfdrho);
    fp[i] = dfdrho;
    energy += f;
  }
};

/// Phase 3 row body: pair forces with the species cross terms, the j side
/// through the protection (Newton's third law). Accumulates the pair
/// energy and virial of every pair it visits.
struct AlloyForceRow {
  const AlloyArgs& args;
  const double* fp_array;
  double energy = 0.0;
  double virial = 0.0;

  template <class S>
  void operator()(std::size_t i, S s) {
    const AlloyArgs& a = args;
    const double* fp = fp_array;
    double e = energy, w = virial;  // locals stay in registers
    const Vec3 xi = a.x[i];
    const int ti = a.types[i];
    const double fp_i = fp[i];
    const auto nbrs = a.list.neighbors(i);
    const auto images = a.list.images(i);
    Vec3 f_i{};
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      const Vec3 dr = a.list.displacement(xi, a.x[j], images[k]);
      const double r2 = norm2(dr);
      if (r2 >= a.cutoff2) continue;
      const double r = std::sqrt(r2);
      const int tj = a.types[j];
      double v, dvdr, phi_i, dphi_i, phi_j, dphi_j;
      a.pot.pair(ti, tj, r, v, dvdr);
      a.pot.density(ti, r, phi_i, dphi_i);  // i's donation (felt by j)
      a.pot.density(tj, r, phi_j, dphi_j);  // j's donation (felt by i)
      const double fpair = -(dvdr + fp_i * dphi_j + fp[j] * dphi_i) / r;
      const Vec3 fv = fpair * dr;
      f_i += fv;
      if constexpr (S::kScatters) s.add(j, -fv);
      e += v;
      w += fpair * r2;
    }
    s.add(i, f_i);
    energy = e;
    virial = w;
  }
};

}  // namespace

AlloyForceComputer::AlloyForceComputer(const AlloyEamPotential& potential,
                                       AlloyForceConfig config)
    : potential_(potential),
      config_(config),
      engine_(std::make_unique<detail::ReductionEngine>(config.strategy,
                                                        config.sdc)),
      t_density_(timers_.index("density")),
      t_embed_(timers_.index("embed")),
      t_force_(timers_.index("force")) {}

AlloyForceComputer::~AlloyForceComputer() = default;

void AlloyForceComputer::attach_schedule(const Box& box,
                                         double interaction_range) {
  engine_->attach_schedule(box, interaction_range);
}

void AlloyForceComputer::on_neighbor_rebuild(
    std::span<const Vec3> positions) {
  engine_->on_neighbor_rebuild(positions);
}

const SdcSchedule* AlloyForceComputer::schedule() const {
  return engine_->schedule();
}

AlloyForceResult AlloyForceComputer::compute(
    const Box& box, std::span<const Vec3> positions,
    std::span<const std::uint8_t> types, const NeighborList& list,
    std::span<double> rho, std::span<double> fp, std::span<Vec3> force) {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(types.size() == n, "types must match the atom count");
  SDCMD_REQUIRE(rho.size() == n && fp.size() == n && force.size() == n,
                "output arrays must match the atom count");
  SDCMD_REQUIRE(list.atom_count() == n, "neighbor list is stale");
  SDCMD_REQUIRE(list.mode() == required_mode(config_.strategy),
                "neighbor list mode does not match the strategy");
  SDCMD_REQUIRE(list.cutoff() >= potential_.cutoff(),
                "neighbor list cutoff shorter than the potential range");
  SDCMD_REQUIRE(list.built_for(box),
                "neighbor list was built for another box");
  const int ns = potential_.species_count();
  for (std::uint8_t t : types) {
    SDCMD_REQUIRE(t < ns, "species index out of range");
  }
  engine_->require_ready(n);

  const double cutoff = potential_.cutoff();
  const AlloyArgs args{positions, types, list, potential_, cutoff * cutoff};
  const int team_request =
      config_.strategy == ReductionStrategy::Serial ? 1 : max_threads();
  const auto slots = static_cast<std::size_t>(team_request);
  embed_parts_.assign(slots, 0.0);
  energy_parts_.assign(slots, 0.0);
  virial_parts_.assign(slots, 0.0);
  engine_->begin(n, team_request, nullptr);
  int team = 1;
  double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
  // One region for zeroing and the three phases, as in EamForceComputer;
  // each phase ends at a barrier, and the master clocks the boundaries.
#pragma omp parallel num_threads(team_request)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
#pragma omp master
    {
      team = omp_get_num_threads();
      t0 = wall_time();
    }
    // First touch with the atom sweeps' static split.
    detail::sweep(n, nullptr, 0, [&](std::size_t i) {
      rho[i] = 0.0;
      fp[i] = 0.0;
      force[i] = Vec3{};
    });
    AlloyDensityRow density{args};
    engine_->run(detail::kProfPhaseDensity, rho.data(), density);
#pragma omp master
    t1 = wall_time();
    AlloyEmbedRow embed{args, rho.data(), fp.data()};
    detail::sweep(n, nullptr, detail::kProfPhaseEmbed, embed);
    embed_parts_[tid] = embed.energy;
#pragma omp master
    t2 = wall_time();
    AlloyForceRow forces{args, fp.data()};
    engine_->run(detail::kProfPhaseForce, force.data(), forces);
    energy_parts_[tid] = forces.energy;
    virial_parts_[tid] = forces.virial;
#pragma omp master
    t3 = wall_time();
  }
  timers_.slot(t_density_).add_lap(t1 - t0);  // includes the zeroing sweep
  timers_.slot(t_embed_).add_lap(t2 - t1);
  timers_.slot(t_force_).add_lap(t3 - t2);

  // Thread-order sums; a full list visits every pair from both sides.
  AlloyForceResult result;
  for (std::size_t t = 0; t < static_cast<std::size_t>(team); ++t) {
    result.embedding_energy += embed_parts_[t];
    result.pair_energy += energy_parts_[t];
    result.virial += virial_parts_[t];
  }
  if (list.mode() == NeighborMode::Full) {
    result.pair_energy *= 0.5;
    result.virial *= 0.5;
  }
  return result;
}

}  // namespace sdcmd
