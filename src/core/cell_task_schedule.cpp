#include "core/cell_task_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace sdcmd {

namespace {

std::array<int, 3> block_dims(const Box& box, double interaction_range) {
  std::array<int, 3> dims;
  for (int d = 0; d < 3; ++d) {
    const int n =
        static_cast<int>(std::floor(box.length(d) / interaction_range));
    dims[static_cast<std::size_t>(d)] = std::max(1, n);
  }
  return dims;
}

}  // namespace

CellTaskSchedule::CellTaskSchedule(const Box& box, double interaction_range)
    : lo_(box.lo()) {
  SDCMD_REQUIRE(interaction_range > 0.0,
                "interaction range must be positive");
  dims_ = block_dims(box, interaction_range);
  block_count_ = static_cast<std::size_t>(dims_[0]) *
                 static_cast<std::size_t>(dims_[1]) *
                 static_cast<std::size_t>(dims_[2]);
  if (block_count_ < 2) {
    throw InfeasibleError(
        "cell-task infeasible: box " + std::to_string(box.length(0)) + " x " +
        std::to_string(box.length(1)) + " x " + std::to_string(box.length(2)) +
        " yields a single block at interaction range " +
        std::to_string(interaction_range) +
        " (every scatter would serialize behind one lock)");
  }
  for (int d = 0; d < 3; ++d) {
    inv_width_[d] =
        static_cast<double>(dims_[static_cast<std::size_t>(d)]) /
        box.length(d);
  }
  bstart_.assign(block_count_ + 1, 0);
}

bool CellTaskSchedule::feasible(const Box& box, double interaction_range) {
  if (interaction_range <= 0.0) return false;
  const std::array<int, 3> dims = block_dims(box, interaction_range);
  return static_cast<std::size_t>(dims[0]) * static_cast<std::size_t>(dims[1]) *
             static_cast<std::size_t>(dims[2]) >=
         2;
}

std::uint32_t CellTaskSchedule::block_index(const Vec3& r) const {
  std::array<int, 3> c;
  for (int d = 0; d < 3; ++d) {
    const std::size_t sd = static_cast<std::size_t>(d);
    int v = static_cast<int>((r[d] - lo_[d]) * inv_width_[d]);
    // Wrapped positions sit in [lo, hi), but float rounding at the upper
    // face (and transiently unwrapped integrator positions) can land one
    // cell outside; clamping only moves such atoms to a boundary block.
    c[sd] = std::clamp(v, 0, dims_[sd] - 1);
  }
  return static_cast<std::uint32_t>(
      (static_cast<std::size_t>(c[2]) * static_cast<std::size_t>(dims_[1]) +
       static_cast<std::size_t>(c[1])) *
          static_cast<std::size_t>(dims_[0]) +
      static_cast<std::size_t>(c[0]));
}

void CellTaskSchedule::rebuild(std::span<const Vec3> positions) {
  const std::size_t n = positions.size();
  block_of_atom_.resize(n);
  bindex_.resize(n);
  std::fill(bstart_.begin(), bstart_.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = block_index(positions[i]);
    block_of_atom_[i] = b;
    ++bstart_[b + 1];
  }
  for (std::size_t b = 0; b < block_count_; ++b) bstart_[b + 1] += bstart_[b];
  {
    std::vector<std::size_t> fill(bstart_.begin(), bstart_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      bindex_[fill[block_of_atom_[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  // LPT order: largest blocks first, so the tail of the schedule is made of
  // small tasks that pack the stragglers' gaps. Ties break on block index
  // for determinism.
  order_.resize(block_count_);
  for (std::size_t b = 0; b < block_count_; ++b) {
    order_[b] = static_cast<std::uint32_t>(b);
  }
  std::sort(order_.begin(), order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const std::size_t na = bstart_[a + 1] - bstart_[a];
              const std::size_t nb = bstart_[b + 1] - bstart_[b];
              if (na != nb) return na > nb;
              return a < b;
            });
  built_ = true;
}

std::string CellTaskSchedule::describe() const {
  std::ostringstream os;
  os << "cell-task, " << dims_[0] << " x " << dims_[1] << " x " << dims_[2]
     << " = " << block_count_ << " blocks";
  return os.str();
}

void CellTaskRuntime::reset(int team, std::size_t blocks) {
  team_ = team;
  blocks_ = blocks;
  const std::size_t t = static_cast<std::size_t>(team);
  while (threads_.size() < t) {
    threads_.push_back(std::make_unique<ThreadState>());
  }
  for (std::size_t i = 0; i < t; ++i) {
    ThreadState& s = *threads_[i];
    for (auto& c : s.cursor) c.store(0, std::memory_order_relaxed);
    s.tasks = 0;
    s.steals = 0;
    s.busy_seconds = 0.0;
    s.rho_stage.clear();
    s.force_stage.clear();
  }
}

std::size_t CellTaskRuntime::max_queue_depth() const {
  if (team_ <= 0) return 0;
  // Thread 0's strided slice {0, T, 2T, ...} is the longest (ceil division).
  return (blocks_ + static_cast<std::size_t>(team_) - 1) /
         static_cast<std::size_t>(team_);
}

std::size_t CellTaskRuntime::bytes() const {
  std::size_t total = threads_.size() * sizeof(ThreadState);
  for (const auto& s : threads_) {
    total += s->rho_stage.capacity() * sizeof(Entry<double>) +
             s->force_stage.capacity() * sizeof(Entry<Vec3>);
  }
  return total;
}

}  // namespace sdcmd
