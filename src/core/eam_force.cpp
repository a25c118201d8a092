#include "core/eam_force.hpp"

#include <algorithm>
#include <type_traits>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "core/detail/eam_kernels.hpp"
#include "core/detail/skeleton.hpp"
#include "potential/eam_visit.hpp"

namespace sdcmd {

/// Per-pair distance/spline cache, indexed by CSR slot (neigh_index[i] +
/// k), 16 B per pair. The density phase writes every slot; the force phase
/// reads them back instead of recomputing sqrt + density spline, and
/// rebuilds the displacement from the list's image code. Reused across
/// steps: resize() keeps capacity when the pair count shrinks, so
/// steady-state steps never reallocate, and grows it to 12.5 % above the
/// pair count, like NeighborList's CSR arrays, rather than letting the
/// vectors double.
struct EamForceComputer::PairCache {
  std::vector<double> r;
  std::vector<double> dphidr;

  void resize(std::size_t pairs) {
    if (r.capacity() < pairs) {
      r.reserve(pairs + pairs / 8);
      dphidr.reserve(pairs + pairs / 8);
    }
    r.resize(pairs);
    dphidr.resize(pairs);
  }

  detail::PairCacheRefs refs() {
    return detail::PairCacheRefs{r.data(), dphidr.data()};
  }

  std::size_t bytes() const {
    return (r.capacity() + dphidr.capacity()) * sizeof(double);
  }
};

EamForceComputer::EamForceComputer(const EamPotential& potential,
                                   EamForceConfig config)
    : ReductionEngine(config, /*embeds=*/true),
      potential_(potential),
      cache_(std::make_unique<PairCache>()) {}

EamForceComputer::~EamForceComputer() = default;

EamForceResult EamForceComputer::compute(const Box& box,
                                         std::span<const Vec3> positions,
                                         const NeighborList& list,
                                         std::span<double> rho,
                                         std::span<double> fp,
                                         std::span<Vec3> force) {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(rho.size() == n && fp.size() == n && force.size() == n,
                "output arrays must match the atom count");
  const int team_request = prepare(box, list, n, potential_.cutoff());

  const double cutoff = potential_.cutoff();
  detail::EamArgs args{positions, list, cutoff * cutoff, {}};
  // Full lists gather (RC); half lists scatter through the pair cache.
  const bool gather = list.mode() == NeighborMode::Full;
  if (!gather) {
    cache_->resize(list.pair_count());
    args.cache = cache_->refs();
  }

  const bool sdc = config().strategy == ReductionStrategy::Sdc;
  obs::SdcSweepProfiler* prof = nullptr;
  if (profiler_.enabled()) {
    // Shape the sample store to the current sweep; the (string-building)
    // configure call runs only when the shape actually changed, so the
    // steady state does no string work.
    const int colors = sdc ? schedule()->color_count() : 1;
    const int threads = max_threads();
    if (colors != prof_colors_ || threads != prof_threads_) {
      profiler_.configure({"density", "embed", "force"}, colors, threads);
      prof_colors_ = colors;
      prof_threads_ = threads;
    }
    profiler_.begin_step();
    prof = &profiler_;
  }

  obs::PerfPhaseProfiler* hw = nullptr;
  if (hw_profiler_.enabled()) {
    // Same reshape discipline as the sweep profiler: string work only when
    // the thread count actually changed.
    if (team_request != hw_threads_) {
      hw_profiler_.configure({"density", "embed", "force"}, team_request);
      hw_threads_ = team_request;
    }
    hw_profiler_.begin_step();
    hw = &hw_profiler_;
  }

  // The rows are compiled once per potential type visit_eam can pick, so
  // FinnisSinclair and TabulatedEam evaluate inline. RC's uncached
  // full-list rows run only under the gather shape.
  const EamForceResult result = visit_eam(potential_, [&](const auto& pot) {
    using Pot = std::decay_t<decltype(pot)>;
    const detail::EmbedRow<Pot> embed{pot, rho.data(), fp.data()};
    if (gather) {
      return run_phases<true>(
          rho, fp, force, detail::EamDensityRow<false, Pot>{args, pot}, embed,
          detail::EamForceRow<false, Pot>{args, pot, fp.data()}, prof, hw);
    }
    return run_phases(rho, fp, force,
                      detail::EamDensityRow<true, Pot>{args, pot}, embed,
                      detail::EamForceRow<true, Pot>{args, pot, fp.data()},
                      prof, hw);
  });

  // Exact work accounting (derived, not sampled: list sizes are exact).
  stats_.density_pair_visits += list.pair_count();
  stats_.force_pair_visits += list.pair_count();
  if (!gather) stats_.scatter_updates += 2 * list.pair_count();
  if (sdc) {
    stats_.color_sweeps +=
        2 * static_cast<std::size_t>(schedule()->color_count());
  }
  stats_.private_array_bytes =
      std::max(stats_.private_array_bytes, replica_bytes());
  if (!gather) {
    stats_.cache_store_slots += list.pair_count();
    stats_.cache_read_slots += list.pair_count();
    stats_.pair_cache_bytes =
        std::max(stats_.pair_cache_bytes, cache_->bytes());
  }
  return result;
}

EamForceResult EamForceComputer::compute_serial_reference(
    const Box& box, std::span<const Vec3> positions, const NeighborList& list,
    std::span<double> rho, std::span<double> fp,
    std::span<Vec3> force) const {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(rho.size() == n && fp.size() == n && force.size() == n,
                "output arrays must match the atom count");
  // The serial reference kernels walk a half list.
  require_list(box, list, n, NeighborMode::Half, potential_.cutoff());
  const double cutoff = potential_.cutoff();
  const detail::EamArgs args{positions, list, cutoff * cutoff, {}};
  std::fill(rho.begin(), rho.end(), 0.0);
  std::fill(force.begin(), force.end(), Vec3{});
  return visit_eam(potential_, [&](const auto& pot) {
    using Pot = std::decay_t<decltype(pot)>;
    // The skeleton's static sweep in a team of one: every row in order,
    // plain adds, whatever region the caller is in.
    const detail::EamDensityRow<false, Pot> density{args, pot};
    detail::EmbedRow<Pot> embed{pot, rho.data(), fp.data()};
    detail::EamForceRow<false, Pot> forces{args, pot, fp.data()};
#pragma omp parallel num_threads(1)
    {
      detail::PlainScatter<double> to_rho{rho.data()};
      detail::sweep(n, nullptr, 0, [&](std::size_t i) { density(i, to_rho); });
      detail::sweep(n, nullptr, 0, embed);
      detail::PlainScatter<Vec3> to_force{force.data()};
      detail::sweep(n, nullptr, 0,
                    [&](std::size_t i) { forces(i, to_force); });
    }
    EamForceResult result;
    result.embedding_energy = embed.energy;
    result.pair_energy = forces.energy;
    result.virial = forces.virial;
    return result;
  });
}

void EamForceComputer::reset_instrumentation() {
  timers().reset();
  stats_ = EamKernelStats{};
}

}  // namespace sdcmd
