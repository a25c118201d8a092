#include "core/pair_force.hpp"

#include <omp.h>

#include <cmath>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "core/detail/skeleton.hpp"

namespace sdcmd {

namespace {

/// The pair-force row body (see skeleton.hpp): forces on atom i from its
/// neighbor row, the j side through the protection (Newton's third law).
struct PairForceRow {
  std::span<const Vec3> x;
  const NeighborList& list;
  const PairPotential& pot;
  double cutoff2;
  double energy = 0.0;
  double virial = 0.0;

  template <class S>
  void operator()(std::size_t i, S s) {
    const Vec3 xi = x[i];
    double e = energy, w = virial;  // locals stay in registers
    const auto nbrs = list.neighbors(i);
    const auto images = list.images(i);
    Vec3 f_i{};
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const std::uint32_t j = nbrs[k];
      const Vec3 dr = list.displacement(xi, x[j], images[k]);
      const double r2 = norm2(dr);
      if (r2 >= cutoff2) continue;
      const double r = std::sqrt(r2);
      double v, dvdr;
      pot.evaluate(r, v, dvdr);
      const double fpair = -dvdr / r;
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

PairForceComputer::PairForceComputer(const PairPotential& potential,
                                     PairForceConfig config)
    : potential_(potential),
      config_(config),
      engine_(std::make_unique<detail::ReductionEngine>(config.strategy,
                                                        config.sdc)),
      t_force_(timers_.index("force")) {}

PairForceComputer::~PairForceComputer() = default;

void PairForceComputer::attach_schedule(const Box& box,
                                        double interaction_range) {
  engine_->attach_schedule(box, interaction_range);
}

void PairForceComputer::set_strategy(ReductionStrategy strategy) {
  engine_->set_strategy(strategy);
  config_.strategy = strategy;
}

void PairForceComputer::on_neighbor_rebuild(
    std::span<const Vec3> positions) {
  engine_->on_neighbor_rebuild(positions);
}

const SdcSchedule* PairForceComputer::schedule() const {
  return engine_->schedule();
}

PairForceResult PairForceComputer::compute(const Box& box,
                                           std::span<const Vec3> positions,
                                           const NeighborList& list,
                                           std::span<Vec3> force) {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(force.size() == n, "force array must match the atom count");
  SDCMD_REQUIRE(list.atom_count() == n, "neighbor list is stale");
  SDCMD_REQUIRE(list.mode() == required_mode(config_.strategy),
                "neighbor list mode does not match the strategy");
  SDCMD_REQUIRE(list.cutoff() >= potential_.cutoff(),
                "neighbor list cutoff shorter than the potential range");
  SDCMD_REQUIRE(list.built_for(box),
                "neighbor list was built for another box");
  engine_->require_ready(n);

  const double cutoff = potential_.cutoff();
  const PairForceRow proto{positions, list, potential_, cutoff * cutoff};
  const int team_request =
      config_.strategy == ReductionStrategy::Serial ? 1 : max_threads();
  energy_parts_.assign(static_cast<std::size_t>(team_request), 0.0);
  virial_parts_.assign(static_cast<std::size_t>(team_request), 0.0);
  engine_->begin(n, team_request, nullptr);
  ScopedTimer timer(timers_.slot(t_force_));
#pragma omp parallel num_threads(team_request)
  {
    detail::sweep(n, nullptr, 0, [&](std::size_t i) { force[i] = Vec3{}; });
    PairForceRow row = proto;
    engine_->run(0, force.data(), row);
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    energy_parts_[tid] = row.energy;
    virial_parts_[tid] = row.virial;
  }
  // Thread-order sums; a full list visits every pair from both sides.
  PairForceResult result;
  for (std::size_t t = 0; t < energy_parts_.size(); ++t) {
    result.energy += energy_parts_[t];
    result.virial += virial_parts_[t];
  }
  if (list.mode() == NeighborMode::Full) {
    result.energy *= 0.5;
    result.virial *= 0.5;
  }
  return result;
}

}  // namespace sdcmd
