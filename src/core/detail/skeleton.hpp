// The one kernel skeleton behind every irregular reduction in the force
// computers (the paper's Section II.C strategies).
//
// A scatter phase is three independent choices, each written once:
//
//  * row body   - the per-atom physics (eam_kernels.hpp, pair_force.cpp,
//                 alloy_force.cpp):
//                 `body(i, s)` walks atom i's neighbor row, hands each
//                 pair's j-side contribution to the protection with
//                 `s.add(j, v)` (skipped when S::kScatters is false) and
//                 the row's own total once with `s.add(i, v)`. Protections
//                 are small value types passed by value, so a row keeps
//                 them in registers;
//  * protection - how a contribution reaches the shared array: plain add,
//                 critical section, atomic, striped lock, gather-only
//                 (full lists), or a thread replica;
//  * shape      - which thread runs which rows and where the team syncs:
//                 a static sweep over rows, the SDC color sweep, or SAP
//                 replicas plus merge.
//
// ReductionEngine (core/reduction_engine.hpp) maps a ReductionStrategy to
// its (shape, protection) pair, owns the schedule and scratch that pair
// needs, and runs a call's phases in one region; its templates are defined
// at the end of this file. Shapes are orphaned
// OpenMP team code: every thread of the caller's parallel region calls
// them, and each ends at a barrier, so its output is complete on return.
// Outside a region they run as a team of one (the serial reference).
//
// Profiled variants: with an enabled SdcSweepProfiler each thread clocks
// its work span and its wait at the closing barrier, recorded under
// (phase, color, thread); colorless shapes record color 0. With the
// profiler off no clock is read.
#pragma once

#include <omp.h>

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/timer.hpp"
#include "common/vec3.hpp"
#include "core/lock_pool.hpp"
#include "core/reduction_engine.hpp"
#include "core/sdc_schedule.hpp"
#include "core/strategy.hpp"
#include "obs/perf_counters.hpp"
#include "obs/sweep_profile.hpp"

namespace sdcmd::detail {

// --- protections ------------------------------------------------------------

/// Unprotected add: the Serial strategy, and SDC, whose same-color
/// subdomains never share a scatter target.
template <class T>
struct PlainScatter {
  static constexpr bool kScatters = true;
  T* out;
  void add(std::size_t k, const T& v) const { out[k] += v; }
};

/// Full-list gather (RC): every pair appears under both atoms, so a row
/// writes only its own total and no location is shared.
template <class T>
struct GatherScatter {
  static constexpr bool kScatters = false;
  T* out;
  void add(std::size_t k, const T& v) const { out[k] += v; }
};

/// Paper class 1: one global critical section around every write.
template <class T>
struct CriticalScatter {
  static constexpr bool kScatters = true;
  T* out;
  void add(std::size_t k, const T& v) const {
#pragma omp critical(sdcmd_scatter)
    out[k] += v;
  }
};

/// Per-scalar atomic read-modify-write.
template <class T>
struct AtomicScatter {
  static constexpr bool kScatters = true;
  T* out;
  void add(std::size_t k, const T& v) const {
    if constexpr (std::is_same_v<T, Vec3>) {
#pragma omp atomic
      out[k].x += v.x;
#pragma omp atomic
      out[k].y += v.y;
#pragma omp atomic
      out[k].z += v.z;
    } else {
#pragma omp atomic
      out[k] += v;
    }
  }
};

/// Lock striping: target k is guarded by locks[k % stripes]; one lock is
/// held at a time, so no deadlock.
template <class T>
struct StripedLockScatter {
  static constexpr bool kScatters = true;
  T* out;
  LockPool* locks;
  void add(std::size_t k, const T& v) const {
    LockPool::Guard guard(*locks, k);
    out[k] += v;
  }
};

// --- profiled spans ---------------------------------------------------------

inline double span_start(const obs::SdcSweepProfiler* prof) {
  return prof != nullptr ? wall_time() : 0.0;
}

/// Record one thread's span: work = [start, t_work), wait = t_work to now.
inline void record_span(obs::SdcSweepProfiler* prof, int phase, int color,
                        double start, double t_work) {
  obs::SweepSample sample;
  sample.start = start;
  sample.work = t_work - start;
  sample.wait = wall_time() - t_work;
  sample.valid = true;
  prof->record(phase, color, omp_get_thread_num(), sample);
}

/// The barrier closing a worksharing loop (the loops themselves are
/// `nowait`); profiled, it also clocks this thread's work and wait.
inline void close_span(obs::SdcSweepProfiler* prof, int phase, int color,
                       double start) {
  if (prof == nullptr) {
#pragma omp barrier
    return;
  }
  const double t_work = wall_time();
#pragma omp barrier
  record_span(prof, phase, color, start, t_work);
}

// --- shapes -----------------------------------------------------------------

/// Static sweep: rows [0, count) split into one contiguous chunk per
/// thread (the same split on every call, which keeps first-touch page
/// placement and the per-thread sum order stable).
template <class Row>
void sweep(std::size_t count, obs::SdcSweepProfiler* prof, int phase,
           Row&& row) {
  const double start = span_start(prof);
#pragma omp for schedule(static) nowait
  for (std::size_t i = 0; i < count; ++i) row(i);
  close_span(prof, phase, 0, start);
}

/// SDC color sweep (the paper's Figs. 7-8): colors run one after another;
/// a color's subdomains are split over the team, and the barrier closing
/// each color is the only synchronization. Same-color subdomains are
/// >= 2 * interaction range apart, so their rows never write the same
/// location.
template <class Row>
void color_sweep(const Partition& part, obs::SdcSweepProfiler* prof,
                 int phase, Row&& row) {
  const int colors = part.color_count();
  for (int c = 0; c < colors; ++c) {
    const std::size_t begin = part.color_begin(c);
    const std::size_t end = part.color_end(c);
    const double start = span_start(prof);
#pragma omp for schedule(static) nowait
    for (std::size_t slot = begin; slot < end; ++slot) {
      for (std::uint32_t i : part.atoms_in_slot(slot)) row(i);
    }
    close_span(prof, phase, c, start);
  }
}

/// Paper class 2 (SAP): each thread zeroes its own replica (first touch),
/// sweeps its rows into it unprotected, then the team merges - each
/// thread sums one index range across every replica, in thread order.
/// `priv` must hold at least one replica per thread.
template <class T, class Body>
void replica_sweep(std::vector<std::vector<T>>& priv, std::size_t n, T* out,
                   Body& body, obs::SdcSweepProfiler* prof, int phase) {
  const int team = omp_get_num_threads();
  std::vector<T>& mine = priv[static_cast<std::size_t>(omp_get_thread_num())];
  mine.assign(n, T{});
  PlainScatter<T> s{mine.data()};
  sweep(n, prof, phase, [&](std::size_t i) { body(i, s); });
#pragma omp for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    T sum{};
    for (int t = 0; t < team; ++t) sum += priv[static_cast<std::size_t>(t)][i];
    out[i] += sum;
  }
}

/// Profiler phase indices (match the phase names EamForceComputer
/// configures its profilers with).
inline constexpr int kProfPhaseDensity = 0;
inline constexpr int kProfPhaseEmbed = 1;
inline constexpr int kProfPhaseForce = 2;

}  // namespace sdcmd::detail

namespace sdcmd {

// --- strategy -> (shape, protection) ----------------------------------------

/// Inside the region: one scatter phase of `body` into `out`, under the
/// active strategy. `phase` indexes the profiler.
template <class T, class Body>
void ReductionEngine::run(int phase, T* out, Body& body) {
  using namespace detail;
  auto rows = [&body](auto& s) {
    return [&body, &s](std::size_t i) { body(i, s); };
  };
  switch (config_.strategy) {
    case ReductionStrategy::Serial: {
      PlainScatter<T> s{out};
      sweep(n_, prof_, phase, rows(s));
      break;
    }
    case ReductionStrategy::Critical: {
      CriticalScatter<T> s{out};
      sweep(n_, prof_, phase, rows(s));
      break;
    }
    case ReductionStrategy::Atomic: {
      AtomicScatter<T> s{out};
      sweep(n_, prof_, phase, rows(s));
      break;
    }
    case ReductionStrategy::LockStriped: {
      StripedLockScatter<T> s{out, stripes_.get()};
      sweep(n_, prof_, phase, rows(s));
      break;
    }
    case ReductionStrategy::RedundantComputation:
      gather(phase, out, body);
      break;
    case ReductionStrategy::Sdc: {
      PlainScatter<T> s{out};
      color_sweep(schedule_->partition(), prof_, phase, rows(s));
      break;
    }
    case ReductionStrategy::ArrayPrivatization:
      replica_sweep(replicas<T>(), n_, out, body, prof_, phase);
      break;
    case ReductionStrategy::CellTask:
      // Retired: the constructor and set_strategy refuse it.
      break;
  }
}

/// RC's shape, alone for rows that only exist as full-list gathers.
template <class T, class Body>
void ReductionEngine::gather(int phase, T* out, Body& body) {
  detail::GatherScatter<T> s{out};
  detail::sweep(n_, prof_, phase, [&](std::size_t i) { body(i, s); });
}

template <class T>
std::vector<std::vector<T>>& ReductionEngine::replicas() {
  if constexpr (std::is_same_v<T, Vec3>) {
    return sap_vec_;
  } else {
    return sap_scalar_;
  }
}

// --- the one-region pipeline ------------------------------------------------

// ONE parallel region covers zeroing and every phase, so a call pays a
// single fork/join - the paper's "one parallel region per sweep" idea
// extended to the whole call. Serial runs the same pipeline in a team of
// one. Every phase ends at a barrier; the master clocks those boundaries
// into the phase timers.
template <bool kGatherOnly, class Density, class Embed, class Force>
EamForceResult ReductionEngine::run_phases(
    std::span<double> rho, std::span<double> fp, std::span<Vec3> force,
    Density density_row, Embed embed_row, Force force_row,
    obs::SdcSweepProfiler* prof, obs::PerfPhaseProfiler* hw) {
  constexpr bool kEmbeds = !std::is_same_v<Density, NoRow>;
  prof_ = prof;
  auto phase = [this](int index, auto* out, auto& row) {
    if constexpr (kGatherOnly) {
      gather(index, out, row);
    } else {
      run(index, out, row);
    }
  };
  const std::size_t n = n_;
  int team = 1;
  double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0;
#pragma omp parallel num_threads(team_request_)
  {
    const int tid = omp_get_thread_num();
    const auto slot = static_cast<std::size_t>(tid);
    // Counter baselines are per-thread state, so unlike the master-only
    // clock reads below, every thread takes its own reading.
    if (hw != nullptr) hw->thread_begin(tid);
#pragma omp master
    {
      team = omp_get_num_threads();
      t0 = wall_time();
    }
    // First-touch zeroing with the same static split as the atom sweeps,
    // so each page lands on the NUMA node of the thread that will process
    // it.
    detail::sweep(n, nullptr, 0, [&](std::size_t i) {
      if constexpr (kEmbeds) {
        rho[i] = 0.0;
        fp[i] = 0.0;
      }
      force[i] = Vec3{};
    });
    if constexpr (kEmbeds) {
      auto density = density_row;
      phase(detail::kProfPhaseDensity, rho.data(), density);
      if (hw != nullptr) hw->thread_mark(detail::kProfPhaseDensity, tid);
#pragma omp master
      t1 = wall_time();
      auto embed = embed_row;
      detail::sweep(n, prof, detail::kProfPhaseEmbed, embed);
      embed_parts_[slot] = embed.energy;
      if (hw != nullptr) hw->thread_mark(detail::kProfPhaseEmbed, tid);
#pragma omp master
      t2 = wall_time();
    }
    auto forces = force_row;
    phase(detail::kProfPhaseForce, force.data(), forces);
    pair_parts_[slot] = forces.energy;
    virial_parts_[slot] = forces.virial;
    if (hw != nullptr) hw->thread_mark(detail::kProfPhaseForce, tid);
#pragma omp master
    t3 = wall_time();
  }
  if constexpr (kEmbeds) {
    timers_.slot(t_density_).add_lap(t1 - t0);  // includes the zeroing
    timers_.slot(t_embed_).add_lap(t2 - t1);
    timers_.slot(t_force_).add_lap(t3 - t2);
  } else {
    timers_.slot(t_force_).add_lap(t3 - t0);  // includes the zeroing
  }
  return sum(team);
}

}  // namespace sdcmd
