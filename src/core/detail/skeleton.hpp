// The one kernel skeleton behind every irregular reduction in the force
// computers (the paper's Section II.C strategies and the CellTask shape).
//
// A scatter phase is three independent choices, each written once:
//
//  * row body   - the per-atom physics (eam_kernels.hpp, pair_force.cpp):
//                 `body(i, s)` walks atom i's neighbor row, hands each
//                 pair's j-side contribution to the protection with
//                 `s.add(j, v)` (skipped when S::kScatters is false) and
//                 the row's own total once with `s.add(i, v)`. Protections
//                 are small value types passed by value, so a row keeps
//                 them in registers;
//  * protection - how a contribution reaches the shared array: plain add,
//                 critical section, atomic, striped lock, gather-only
//                 (full lists), a thread replica, or block staging;
//  * shape      - which thread runs which rows and where the team syncs:
//                 a static sweep over rows, the SDC color sweep, CellTask
//                 block queues, or SAP replicas plus merge.
//
// ReductionEngine maps a ReductionStrategy to its (shape, protection) pair
// and owns the schedule and scratch that pair needs. Shapes are orphaned
// OpenMP team code: every thread of the caller's parallel region calls
// them, and each ends at a barrier, so its output is complete on return.
// Outside a region they run as a team of one (the serial reference).
//
// Profiled variants: with an enabled SdcSweepProfiler each thread clocks
// its work span and its wait at the closing barrier, recorded under
// (phase, color, thread); colorless shapes record color 0. With the
// profiler off no clock is read (CellTask always clocks its busy time).
#pragma once

#include <omp.h>

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/timer.hpp"
#include "common/vec3.hpp"
#include "core/cell_task_schedule.hpp"
#include "core/lock_pool.hpp"
#include "core/sdc_schedule.hpp"
#include "core/strategy.hpp"
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

/// CellTask: while a task holds its own block's lock, writes into that
/// block go straight through; writes into foreign blocks are staged and
/// flushed afterwards under each target block's lock (grouped by runs of
/// the same target block, which rows cluster: a row lists its neighbors
/// cell by cell, in the list's stencil order). At most one lock is held
/// at a time, so the scheme is deadlock-free for any block geometry.
template <class T>
struct BlockStagedScatter {
  static constexpr bool kScatters = true;
  T* out;
  const CellTaskSchedule* sched;
  std::vector<CellTaskRuntime::Entry<T>>* stage;
  std::uint32_t block = 0;  ///< the running task's block

  void add(std::size_t k, const T& v) const {
    const auto j = static_cast<std::uint32_t>(k);
    if (sched->block_of(j) == block) {
      out[k] += v;
    } else {
      stage->push_back({j, v});
    }
  }

  void flush(LockPool& locks) {
    std::size_t k = 0;
    while (k < stage->size()) {
      const std::uint32_t tb = sched->block_of((*stage)[k].j);
      locks.acquire(tb);
      do {
        out[(*stage)[k].j] += (*stage)[k].v;
        ++k;
      } while (k < stage->size() && sched->block_of((*stage)[k].j) == tb);
      locks.release(tb);
    }
    stage->clear();
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

/// CellTask block queues (Mangiardi/Meyer, arXiv:1611.00075): each block
/// is one task; threads drain their strided home slice of the LPT order
/// through an atomic cursor, then steal round-robin from the other
/// slices with the same fetch_add, so a task runs exactly once and no
/// thread idles while any queue holds work. A task runs its block's rows
/// under the block's lock and flushes its staged cross-block writes
/// after releasing it. The only barrier is the phase boundary.
template <class T, class Body>
void task_sweep(const CellTaskSchedule& sched, CellTaskRuntime& rt,
                LockPool& locks, T* out, Body& body,
                obs::SdcSweepProfiler* prof, int phase) {
  const int tid = omp_get_thread_num();
  CellTaskRuntime::ThreadState& me = rt.thread(tid);
  BlockStagedScatter<T> s{out, &sched, &me.stage<T>()};
  const std::vector<std::uint32_t>& order = sched.task_order();
  const std::size_t team = static_cast<std::size_t>(rt.team());
  auto run_task = [&](std::uint32_t b) {
    s.block = b;
    locks.acquire(b);
    for (std::uint32_t i : sched.atoms_in_block(b)) body(i, s);
    locks.release(b);
    s.flush(locks);
  };
  const double start = wall_time();
  for (std::size_t off = 0; off < team; ++off) {
    const std::size_t victim = (static_cast<std::size_t>(tid) + off) % team;
    std::atomic<std::uint32_t>& cursor =
        rt.thread(static_cast<int>(victim)).cursor[phase];
    for (;;) {
      const std::size_t pos =
          victim + static_cast<std::size_t>(
                       cursor.fetch_add(1, std::memory_order_relaxed)) *
                       team;
      if (pos >= order.size()) break;
      run_task(order[pos]);
      ++me.tasks;
      if (off > 0) ++me.steals;
    }
  }
  const double t_work = wall_time();
  me.busy_seconds += t_work - start;
#pragma omp barrier
  if (prof != nullptr) record_span(prof, phase, 0, start, t_work);
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

// --- strategy -> (shape, protection) ----------------------------------------

/// A force computer's reduction strategy plus the schedule and scratch its
/// shape needs: the SDC schedule, the cell-task grid with one lock per
/// block and its work-stealing runtime, the striped lock pool, and the SAP
/// replicas. Shared by the EAM and pair computers.
class ReductionEngine {
 public:
  ReductionEngine(ReductionStrategy strategy, SdcConfig sdc);
  ~ReductionEngine();

  ReductionStrategy strategy() const { return strategy_; }

  /// Build the SDC schedule (Sdc) or the cell-task grid and its per-block
  /// locks (CellTask); a no-op otherwise.
  void attach_schedule(const Box& box, double interaction_range);
  /// Re-partition atoms after a neighbor-list rebuild (Sdc, CellTask).
  void on_neighbor_rebuild(std::span<const Vec3> positions);
  /// Swap strategies; drops the outgoing strategy's schedule. Throws
  /// PreconditionError when the swap changes the neighbor-list mode.
  void set_strategy(ReductionStrategy strategy);
  /// Throws PreconditionError unless the strategy's schedule is built for
  /// `n` atoms. Call before the parallel region: shapes never throw.
  void require_ready(std::size_t n) const;

  /// Serial, before the region: size the per-thread state for a team of
  /// `team` threads sweeping `n` atoms, and take the step's profiler
  /// (null or enabled).
  void begin(std::size_t n, int team, obs::SdcSweepProfiler* prof);

  /// Inside the region: one scatter phase of `body` into `out`, under the
  /// active strategy. `phase` indexes the profiler and, for CellTask, the
  /// work queue (each phase of a step drains its own).
  template <class T, class Body>
  void run(int phase, T* out, Body& body) {
    auto rows = [&body](auto& s) {
      return [&body, &s](std::size_t i) { body(i, s); };
    };
    switch (strategy_) {
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
      case ReductionStrategy::CellTask:
        task_sweep(*task_sched_, *task_rt_, *block_locks_, out, body, prof_,
                   phase);
        break;
      case ReductionStrategy::ArrayPrivatization:
        replica_sweep(replicas<T>(), n_, out, body, prof_, phase);
        break;
    }
  }

  /// RC's shape for rows that only exist as full-list gathers.
  template <class T, class Body>
  void gather(int phase, T* out, Body& body) {
    GatherScatter<T> s{out};
    sweep(n_, prof_, phase, [&](std::size_t i) { body(i, s); });
  }

  const SdcSchedule* schedule() const { return schedule_.get(); }
  const CellTaskSchedule* task_schedule() const { return task_sched_.get(); }
  /// The work-stealing runtime of the last CellTask step (null before).
  const CellTaskRuntime* task_runtime() const { return task_rt_.get(); }
  /// Bytes held by SAP replicas (0 unless SAP has run).
  std::size_t replica_bytes() const;

 private:
  template <class T>
  std::vector<std::vector<T>>& replicas() {
    if constexpr (std::is_same_v<T, Vec3>) {
      return sap_vec_;
    } else {
      return sap_scalar_;
    }
  }

  ReductionStrategy strategy_;
  SdcConfig sdc_;
  std::unique_ptr<SdcSchedule> schedule_;
  std::unique_ptr<CellTaskSchedule> task_sched_;
  std::unique_ptr<LockPool> block_locks_;  ///< one lock per cell block
  std::unique_ptr<CellTaskRuntime> task_rt_;
  std::unique_ptr<LockPool> stripes_;
  std::vector<std::vector<double>> sap_scalar_;
  std::vector<std::vector<Vec3>> sap_vec_;
  std::size_t n_ = 0;
  obs::SdcSweepProfiler* prof_ = nullptr;
};

}  // namespace sdcmd::detail
