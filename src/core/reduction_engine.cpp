#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "core/detail/skeleton.hpp"

namespace sdcmd::detail {

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

ReductionEngine::ReductionEngine(ReductionStrategy strategy, SdcConfig sdc)
    : strategy_(strategy), sdc_(sdc) {
  require_runnable(strategy);
}

ReductionEngine::~ReductionEngine() = default;

void ReductionEngine::attach_schedule(const Box& box,
                                      double interaction_range) {
  if (strategy_ == ReductionStrategy::Sdc) {
    schedule_ = std::make_unique<SdcSchedule>(box, interaction_range, sdc_);
  }
}

void ReductionEngine::on_neighbor_rebuild(std::span<const Vec3> positions) {
  if (strategy_ == ReductionStrategy::Sdc) {
    SDCMD_REQUIRE(schedule_ != nullptr,
                  "attach_schedule must run before on_neighbor_rebuild");
    schedule_->rebuild(positions);
  }
}

void ReductionEngine::set_strategy(ReductionStrategy strategy) {
  if (strategy == strategy_) return;
  require_runnable(strategy);
  SDCMD_REQUIRE(required_mode(strategy) == required_mode(strategy_),
                "cannot hot-swap " + to_string(strategy_) + " -> " +
                    to_string(strategy) +
                    ": the swap would change the neighbor-list mode");
  strategy_ = strategy;
  // Free the outgoing schedule; a later re-promotion rebuilds it through
  // attach_schedule + on_neighbor_rebuild.
  if (strategy != ReductionStrategy::Sdc) schedule_.reset();
}

void ReductionEngine::require_ready(std::size_t n) const {
  if (strategy_ == ReductionStrategy::Sdc) {
    SDCMD_REQUIRE(schedule_ != nullptr && schedule_->built(),
                  "SDC schedule not built; call attach_schedule and "
                  "on_neighbor_rebuild first");
    SDCMD_REQUIRE(schedule_->partition().atom_count() == n,
                  "partition is stale: rebuild the SDC schedule after the "
                  "neighbor list");
  }
}

void ReductionEngine::begin(std::size_t n, int team,
                            obs::SdcSweepProfiler* prof) {
  n_ = n;
  prof_ = prof;
  const auto slots = static_cast<std::size_t>(team);
  switch (strategy_) {
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
}

std::size_t ReductionEngine::replica_bytes() const {
  std::size_t total = 0;
  for (const auto& r : sap_scalar_) total += r.capacity() * sizeof(double);
  for (const auto& r : sap_vec_) total += r.capacity() * sizeof(Vec3);
  return total;
}

}  // namespace sdcmd::detail
