#include "core/eam_force.hpp"

#include <omp.h>

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
    : potential_(potential),
      config_(config),
      engine_(std::make_unique<detail::ReductionEngine>(config.strategy,
                                                        config.sdc)),
      cache_(std::make_unique<PairCache>()),
      t_density_(timers_.index("density")),
      t_embed_(timers_.index("embed")),
      t_force_(timers_.index("force")) {}

EamForceComputer::~EamForceComputer() = default;

void EamForceComputer::attach_schedule(const Box& box,
                                       double interaction_range) {
  engine_->attach_schedule(box, interaction_range);
}

void EamForceComputer::set_strategy(ReductionStrategy strategy) {
  engine_->set_strategy(strategy);
  config_.strategy = strategy;
}

void EamForceComputer::on_neighbor_rebuild(std::span<const Vec3> positions) {
  engine_->on_neighbor_rebuild(positions);
}

const SdcSchedule* EamForceComputer::schedule() const {
  return engine_->schedule();
}

EamForceResult EamForceComputer::compute(const Box& box,
                                         std::span<const Vec3> positions,
                                         const NeighborList& list,
                                         std::span<double> rho,
                                         std::span<double> fp,
                                         std::span<Vec3> force) {
  const std::size_t n = positions.size();
  SDCMD_REQUIRE(rho.size() == n && fp.size() == n && force.size() == n,
                "output arrays must match the atom count");
  SDCMD_REQUIRE(list.atom_count() == n, "neighbor list is stale");
  SDCMD_REQUIRE(list.mode() == required_mode(config_.strategy),
                "strategy " + to_string(config_.strategy) + " needs a " +
                    (required_mode(config_.strategy) == NeighborMode::Full
                         ? std::string("full")
                         : std::string("half")) +
                    " neighbor list");
  SDCMD_REQUIRE(list.cutoff() >= potential_.cutoff(),
                "neighbor list cutoff shorter than the potential range");
  SDCMD_REQUIRE(list.built_for(box),
                "neighbor list was built for another box");
  // All preconditions are checked here, BEFORE the parallel region opens:
  // the kernels themselves must never throw.
  engine_->require_ready(n);

  const double cutoff = potential_.cutoff();
  detail::EamArgs args{positions, list, cutoff * cutoff, {}};
  // Full lists gather (RC); half lists scatter through the pair cache.
  const bool gather = list.mode() == NeighborMode::Full;
  if (!gather) {
    cache_->resize(list.pair_count());
    args.cache = cache_->refs();
  }

  const bool serial = config_.strategy == ReductionStrategy::Serial;
  const int team_request = serial ? 1 : max_threads();
  obs::SdcSweepProfiler* prof = nullptr;
  if (profiler_.enabled()) {
    // Shape the sample store to the current sweep; the (string-building)
    // configure call runs only when the shape actually changed, so the
    // steady state does no string work.
    const int colors = config_.strategy == ReductionStrategy::Sdc
                           ? engine_->schedule()->color_count()
                           : 1;
    const int threads = max_threads();
    if (colors != prof_colors_ || threads != prof_threads_) {
      profiler_.configure({"density", "embed", "force"}, colors, threads);
      prof_colors_ = colors;
      prof_threads_ = threads;
    }
    profiler_.begin_step();
    prof = &profiler_;
  }

  const bool hw = hw_profiler_.enabled();
  if (hw) {
    // Same reshape discipline as the sweep profiler: string work only when
    // the thread count actually changed.
    if (team_request != hw_threads_) {
      hw_profiler_.configure({"density", "embed", "force"}, team_request);
      hw_threads_ = team_request;
    }
    hw_profiler_.begin_step();
  }

  // Fused pipeline: ONE parallel region covers zeroing, density, embed and
  // force, so each step pays a single fork/join instead of three (plus
  // serial zeroing) - the paper's "one parallel region per sweep" idea
  // extended to the whole step. Serial runs the same pipeline in a team of
  // one. Every phase ends at a barrier; the master clocks those boundaries
  // so the per-phase timers keep working.
  const auto slots = static_cast<std::size_t>(team_request);
  embed_parts_.assign(slots, 0.0);
  energy_parts_.assign(slots, 0.0);
  virial_parts_.assign(slots, 0.0);
  engine_->begin(n, team_request, prof);
  int team = 1;
  double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
  // `run_phase` is the engine's strategy dispatch for half-list rows, or
  // its gather shape for RC's full-list rows.
  auto fused = [&](auto density_row, auto embed_row, auto force_row,
                   auto run_phase) {
#pragma omp parallel num_threads(team_request)
    {
      const int tid = omp_get_thread_num();
      // Counter baselines are per-thread state, so unlike the master-only
      // clock reads below, every thread takes its own reading.
      if (hw) hw_profiler_.thread_begin(tid);
#pragma omp master
      {
        team = omp_get_num_threads();
        t0 = wall_time();
      }
      // First-touch zeroing with the same static split as the atom sweeps,
      // so each page lands on the NUMA node of the thread that will
      // process it.
      detail::sweep(n, nullptr, 0, [&](std::size_t i) {
        rho[i] = 0.0;
        fp[i] = 0.0;
        force[i] = Vec3{};
      });
      auto density = density_row;
      run_phase(detail::kProfPhaseDensity, rho.data(), density);
      if (hw) hw_profiler_.thread_mark(0, tid);
#pragma omp master
      t1 = wall_time();
      auto embed = embed_row;
      detail::sweep(n, prof, detail::kProfPhaseEmbed, embed);
      embed_parts_[static_cast<std::size_t>(tid)] = embed.energy;
      if (hw) hw_profiler_.thread_mark(1, tid);
#pragma omp master
      t2 = wall_time();
      auto forces = force_row;
      run_phase(detail::kProfPhaseForce, force.data(), forces);
      energy_parts_[static_cast<std::size_t>(tid)] = forces.energy;
      virial_parts_[static_cast<std::size_t>(tid)] = forces.virial;
      if (hw) hw_profiler_.thread_mark(2, tid);
#pragma omp master
      t3 = wall_time();
    }
  };
  auto run_scatter = [this](int phase, auto* out, auto& row) {
    engine_->run(phase, out, row);
  };
  auto run_gather = [this](int phase, auto* out, auto& row) {
    engine_->gather(phase, out, row);
  };
  // The rows are compiled once per potential type visit_eam can pick, so
  // FinnisSinclair and TabulatedEam evaluate inline.
  visit_eam(potential_, [&](const auto& pot) {
    using Pot = std::decay_t<decltype(pot)>;
    const detail::EmbedRow<Pot> embed{pot, rho.data(), fp.data()};
    if (gather) {
      fused(detail::EamDensityRow<false, Pot>{args, pot}, embed,
            detail::EamForceRow<false, Pot>{args, pot, fp.data()},
            run_gather);
    } else {
      fused(detail::EamDensityRow<true, Pot>{args, pot}, embed,
            detail::EamForceRow<true, Pot>{args, pot, fp.data()},
            run_scatter);
    }
  });
  timers_.slot(t_density_).add_lap(t1 - t0);  // includes the zeroing sweep
  timers_.slot(t_embed_).add_lap(t2 - t1);
  timers_.slot(t_force_).add_lap(t3 - t2);

  // Sum the per-thread partials in thread order: deterministic for a fixed
  // team size (unlike an OpenMP reduction's arrival order). Full lists
  // visit every pair from both sides, so their pair sums are halved.
  EamForceResult result;
  for (int t = 0; t < team; ++t) {
    const auto k = static_cast<std::size_t>(t);
    result.embedding_energy += embed_parts_[k];
    result.pair_energy += energy_parts_[k];
    result.virial += virial_parts_[k];
  }
  if (gather) {
    result.pair_energy *= 0.5;
    result.virial *= 0.5;
  }

  // Exact work accounting (derived, not sampled: list sizes are exact).
  stats_.density_pair_visits += list.pair_count();
  stats_.force_pair_visits += list.pair_count();
  if (!gather) stats_.scatter_updates += 2 * list.pair_count();
  if (config_.strategy == ReductionStrategy::Sdc) {
    stats_.color_sweeps +=
        2 * static_cast<std::size_t>(engine_->schedule()->color_count());
  }
  stats_.private_array_bytes =
      std::max(stats_.private_array_bytes, engine_->replica_bytes());
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
  SDCMD_REQUIRE(list.atom_count() == n, "neighbor list is stale");
  SDCMD_REQUIRE(list.mode() == NeighborMode::Half,
                "the serial reference kernels walk a half neighbor list");
  SDCMD_REQUIRE(list.built_for(box),
                "neighbor list was built for another box");
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
  timers_.reset();
  stats_ = EamKernelStats{};
}

}  // namespace sdcmd
