#include "core/reduction_engine.hpp"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "core/lock_pool.hpp"

namespace sdcmd {

namespace {

/// A retired strategy value (one not in kAllStrategies) has no shape or
/// protection left; refuse it before any parallel region opens.
void require_runnable(ReductionStrategy strategy) {
  SDCMD_REQUIRE(std::find(std::begin(kAllStrategies), std::end(kAllStrategies),
                          strategy) != std::end(kAllStrategies),
                "reduction strategy '" + to_string(strategy) +
                    "' is retired and no longer runs");
}

}  // namespace

void require_list(const Box& box, const NeighborList& list, std::size_t n,
                  NeighborMode mode, double cutoff) {
  SDCMD_REQUIRE(list.atom_count() == n, "neighbor list is stale");
  SDCMD_REQUIRE(list.mode() == mode,
                std::string("this call needs a ") +
                    (mode == NeighborMode::Full ? "full" : "half") +
                    " neighbor list");
  SDCMD_REQUIRE(list.cutoff() >= cutoff,
                "neighbor list cutoff shorter than the potential range");
  SDCMD_REQUIRE(list.built_for(box),
                "neighbor list was built for another box");
}

ReductionEngine::ReductionEngine(EamForceConfig config, bool embeds)
    : config_(config) {
  require_runnable(config.strategy);
  if (embeds) {
    t_density_ = timers_.index("density");
    t_embed_ = timers_.index("embed");
  }
  t_force_ = timers_.index("force");
}

ReductionEngine::~ReductionEngine() = default;

void ReductionEngine::attach_schedule(const Box& box,
                                      double interaction_range) {
  if (config_.strategy == ReductionStrategy::Sdc) {
    schedule_ =
        std::make_unique<SdcSchedule>(box, interaction_range, config_.sdc);
  }
}

void ReductionEngine::on_neighbor_rebuild(std::span<const Vec3> positions) {
  if (config_.strategy == ReductionStrategy::Sdc) {
    SDCMD_REQUIRE(schedule_ != nullptr,
                  "attach_schedule must run before on_neighbor_rebuild");
    schedule_->rebuild(positions);
  }
}

void ReductionEngine::set_strategy(ReductionStrategy strategy) {
  if (strategy == config_.strategy) return;
  require_runnable(strategy);
  SDCMD_REQUIRE(required_mode(strategy) == required_mode(config_.strategy),
                "cannot hot-swap " + to_string(config_.strategy) + " -> " +
                    to_string(strategy) +
                    ": the swap would change the neighbor-list mode");
  config_.strategy = strategy;
  // Free the outgoing schedule; a later re-promotion rebuilds it through
  // attach_schedule + on_neighbor_rebuild.
  if (strategy != ReductionStrategy::Sdc) schedule_.reset();
}

int ReductionEngine::prepare(const Box& box, const NeighborList& list,
                             std::size_t n, double cutoff) {
  // Every check runs here, BEFORE the parallel region opens: the shapes
  // and rows never throw.
  require_list(box, list, n, required_mode(config_.strategy), cutoff);
  if (config_.strategy == ReductionStrategy::Sdc) {
    SDCMD_REQUIRE(schedule_ != nullptr && schedule_->built(),
                  "SDC schedule not built; call attach_schedule and "
                  "on_neighbor_rebuild first");
    SDCMD_REQUIRE(schedule_->partition().atom_count() == n,
                  "partition is stale: rebuild the SDC schedule after the "
                  "neighbor list");
  }
  n_ = n;
  team_request_ =
      config_.strategy == ReductionStrategy::Serial ? 1 : max_threads();
  const auto slots = static_cast<std::size_t>(team_request_);
  embed_parts_.assign(slots, 0.0);
  pair_parts_.assign(slots, 0.0);
  virial_parts_.assign(slots, 0.0);
  switch (config_.strategy) {
    case ReductionStrategy::ArrayPrivatization:
      // Only the outer vectors are sized here; each thread zeroes (and
      // first-touches) its own replica inside the region.
      if (sap_scalar_.size() < slots) sap_scalar_.resize(slots);
      if (sap_vec_.size() < slots) sap_vec_.resize(slots);
      break;
    case ReductionStrategy::LockStriped:
      if (stripes_ == nullptr) stripes_ = std::make_unique<LockPool>();
      break;
    default:
      break;
  }
  return team_request_;
}

EamForceResult ReductionEngine::sum(int team) const {
  EamForceResult result;
  for (int t = 0; t < team; ++t) {
    const auto k = static_cast<std::size_t>(t);
    result.embedding_energy += embed_parts_[k];
    result.pair_energy += pair_parts_[k];
    result.virial += virial_parts_[k];
  }
  if (required_mode(config_.strategy) == NeighborMode::Full) {
    result.pair_energy *= 0.5;
    result.virial *= 0.5;
  }
  return result;
}

std::size_t ReductionEngine::replica_bytes() const {
  std::size_t total = 0;
  for (const auto& r : sap_scalar_) total += r.capacity() * sizeof(double);
  for (const auto& r : sap_vec_) total += r.capacity() * sizeof(Vec3);
  return total;
}

}  // namespace sdcmd
