// Generic colored irregular-reduction engine.
//
// The paper closes by noting SDC solves "a class of short-range force
// calculations problems", not just EAM. This type factors the pattern out
// of MD entirely: any computation of the form
//
//   for each point i:  scatter updates to data of points within `range` of i
//
// can run race-free in parallel by sweeping the SDC colors. Examples:
// smoothed-particle hydrodynamics density sums, contact-force accumulation
// in granular dynamics, or the demo in examples/irregular_reduction.cpp
// (local mass smoothing over a random point cloud).
//
// Contract for the user functor: processing point i may read anything but
// may only WRITE per-point data of points within `interaction_range` of
// point i (at rebuild time). That is precisely the guarantee under which
// same-color subdomains never collide.
#pragma once

#include <omp.h>

#include <cstdint>
#include <memory>
#include <span>

#include "common/error.hpp"
#include "core/detail/skeleton.hpp"
#include "core/sdc_schedule.hpp"
#include "obs/sweep_profile.hpp"

namespace sdcmd {

class ColoredScatterEngine {
 public:
  /// Throws InfeasibleError when `box` cannot be decomposed at the
  /// requested dimensionality with subdomain edges >= 2 * range.
  ColoredScatterEngine(const Box& box, double interaction_range,
                       SdcConfig config);

  /// Non-throwing probe: would the constructor succeed? Lets callers (the
  /// StrategyGovernor in particular) poll a changing box without try/catch.
  static bool feasible(const Box& box, double interaction_range,
                       const SdcConfig& config) {
    return SdcSchedule::feasible(box, interaction_range, config);
  }

  /// Re-bin the points (call whenever they move materially).
  void rebuild(std::span<const Vec3> points);

  const SdcSchedule& schedule() const { return *schedule_; }
  int color_count() const { return schedule_->color_count(); }

  /// Attach (or detach, with nullptr) a per-thread x per-color span
  /// profiler. When enabled, for_each_point_colored() shapes it to the
  /// schedule (one phase named "sweep") and records each thread's work and
  /// barrier-wait time per color, exactly like the EAM SDC kernels.
  void set_profiler(obs::SdcSweepProfiler* profiler) {
    profiler_ = profiler;
  }

  /// Invoke `fn(i)` once for every point, colors swept serially with the
  /// points of a color processed in parallel - the EAM kernels' SDC shape
  /// (detail::color_sweep). `fn` must honor the class contract above.
  template <typename VertexFn>
  void for_each_point_colored(VertexFn&& fn) const {
    SDCMD_REQUIRE(schedule_->built(), "rebuild() has not run yet");
    const Partition& part = schedule_->partition();
    const int colors = part.color_count();
    obs::SdcSweepProfiler* prof =
        (profiler_ != nullptr && profiler_->enabled()) ? profiler_ : nullptr;
    if (prof != nullptr) {
      prof->configure({"sweep"}, colors, omp_get_max_threads());
      prof->begin_step();
    }
#pragma omp parallel
    detail::color_sweep(part, prof, 0,
                        [&fn](std::size_t i) { fn(i); });
  }

  /// Serial sweep in the same slot order; reference for testing.
  template <typename VertexFn>
  void for_each_point_serial(VertexFn&& fn) const {
    SDCMD_REQUIRE(schedule_->built(), "rebuild() has not run yet");
    const Partition& part = schedule_->partition();
    for (std::size_t slot = 0; slot < part.subdomain_count(); ++slot) {
      for (std::uint32_t i : part.atoms_in_slot(slot)) {
        fn(static_cast<std::size_t>(i));
      }
    }
  }

 private:
  std::unique_ptr<SdcSchedule> schedule_;
  obs::SdcSweepProfiler* profiler_ = nullptr;  ///< not owned
};

}  // namespace sdcmd
