// CellTaskSchedule: the block grid + work-stealing state behind the
// CellTask execution shape (Mangiardi/Meyer hybrid cell-task algorithm,
// arXiv:1611.00075; Meyer's many-core study arXiv:1305.4196).
//
// Where SDC separates conflicting subdomains in *time* (color sweeps with a
// barrier between colors), CellTask separates them with *locks taken only on
// actual conflict*: the box is cut into blocks with edge >= the interaction
// range, each block's atoms become one task, and a task holds its own
// block's lock while scattering into its own atoms. Contributions that land
// in a foreign block are staged in a per-thread buffer and flushed under the
// target block's lock afterwards - at most one lock is ever held at a time,
// so the scheme is deadlock-free regardless of how blocks interleave, and no
// thread ever waits at a color barrier.
//
// Scheduling is LPT work stealing: blocks are sorted by descending atom
// count, thread t's home queue is the strided slice {t, t+T, t+2T, ...} of
// that order, consumed through a per-thread atomic cursor. A thread whose
// home queue drains advances the other threads' cursors instead of idling -
// each such task counts as a steal. This is what makes the shape win on
// inhomogeneous systems (voids, surfaces, crack tips) where SDC's even
// spatial split load-balances badly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/vec3.hpp"
#include "geom/box.hpp"

namespace sdcmd {

class CellTaskSchedule {
 public:
  /// Builds the block grid for `box`; `interaction_range` must cover
  /// cutoff + neighbor skin (block edges never drop below it, so most
  /// pairs stay intra-block). Throws InfeasibleError when the box yields
  /// fewer than two blocks - correctness would hold, but every scatter
  /// would serialize behind a single lock.
  CellTaskSchedule(const Box& box, double interaction_range);

  /// Non-throwing probe: would the constructor succeed? Exactly the
  /// constructor's arithmetic, so probe == build. Note the bound is two
  /// *blocks*, not SDC's two-subdomains-per-axis: CellTask stays feasible
  /// on thin boxes where even 1-D SDC cannot split.
  static bool feasible(const Box& box, double interaction_range);

  /// Re-bin atoms into blocks and recompute the LPT task order; call
  /// whenever the neighbor list is rebuilt (same cadence as the SDC
  /// partition).
  void rebuild(std::span<const Vec3> positions);

  std::size_t block_count() const { return block_count_; }
  bool built() const { return built_; }
  std::size_t atom_count() const { return block_of_atom_.size(); }

  /// Block owning atom `i` (valid after rebuild).
  std::uint32_t block_of(std::uint32_t atom) const {
    return block_of_atom_[atom];
  }

  /// Atoms of block `b`, CSR layout (valid after rebuild).
  std::span<const std::uint32_t> atoms_in_block(std::size_t b) const {
    return {bindex_.data() + bstart_[b], bindex_.data() + bstart_[b + 1]};
  }

  /// Blocks sorted by descending atom count - the LPT task order the
  /// work-stealing queues consume.
  const std::vector<std::uint32_t>& task_order() const { return order_; }

  /// Human-readable summary for bench headers:
  /// "cell-task, 4 x 4 x 4 = 64 blocks".
  std::string describe() const;

 private:
  std::uint32_t block_index(const Vec3& r) const;

  std::array<int, 3> dims_{};
  std::size_t block_count_ = 0;
  Vec3 lo_{};
  Vec3 inv_width_{};
  std::vector<std::size_t> bstart_;        // per block, atom offsets
  std::vector<std::uint32_t> bindex_;      // atom ids grouped by block
  std::vector<std::uint32_t> block_of_atom_;
  std::vector<std::uint32_t> order_;       // blocks, largest first
  bool built_ = false;
};

/// Shared work-stealing state for one fused step: per-thread queue cursors
/// (one per step phase, so no mid-region reset is needed), per-thread
/// staging buffers for cross-block contributions, and the task.* counters.
/// Owned by the force computer's reduction engine, reset serially before
/// the parallel region opens, then shared by the whole team inside it.
class CellTaskRuntime {
 public:
  /// Queues per step, indexed like the sweep profiler's phases (density,
  /// embed, force); the embed phase has no scatter and leaves its unused.
  static constexpr int kPhases = 3;

  /// A staged cross-block contribution: out[j] += v.
  template <class T>
  struct Entry {
    std::uint32_t j;
    T v;
  };

  /// Cache-line separated per-thread state; cursors are the only fields
  /// other threads touch (when stealing).
  struct alignas(64) ThreadState {
    std::atomic<std::uint32_t> cursor[kPhases];
    std::size_t tasks = 0;                 // block tasks this thread ran
    std::size_t steals = 0;                // of those, from foreign queues
    double busy_seconds = 0.0;             // kernel time across both phases
    std::vector<Entry<double>> rho_stage;
    std::vector<Entry<Vec3>> force_stage;

    template <class T>
    std::vector<Entry<T>>& stage() {
      if constexpr (std::is_same_v<T, Vec3>) {
        return force_stage;
      } else {
        return rho_stage;
      }
    }
  };

  /// Size for `team` threads and zero the cursors/counters. Buffers keep
  /// their capacity across steps. Serial, before the region.
  void reset(int team, std::size_t blocks);

  int team() const { return team_; }
  std::size_t blocks() const { return blocks_; }
  ThreadState& thread(int tid) {
    return *threads_[static_cast<std::size_t>(tid)];
  }
  const ThreadState& thread(int tid) const {
    return *threads_[static_cast<std::size_t>(tid)];
  }

  /// Longest home queue over the team at the last reset (= the max initial
  /// queue depth the stealing loop drains).
  std::size_t max_queue_depth() const;

  std::size_t bytes() const;

 private:
  int team_ = 0;
  std::size_t blocks_ = 0;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

}  // namespace sdcmd
