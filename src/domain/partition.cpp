#include "domain/partition.hpp"

#include <algorithm>

#include <omp.h>

#include "common/error.hpp"
#include "common/threads.hpp"

namespace sdcmd {

namespace {
/// Below this atom count the counting sort runs on the calling thread
/// alone: the parallel region's barriers cost more than the walk it saves.
constexpr std::size_t kParallelPartitionThreshold = 2048;
}  // namespace

Partition::Partition(const SpatialDecomposition& decomposition,
                     const Coloring& coloring)
    : decomposition_(decomposition),
      coloring_(coloring),
      color_count_(coloring.color_count()) {
  const std::size_t nsub = decomposition_.subdomain_count();
  subdomain_of_slot_.resize(nsub);
  slot_of_subdomain_.resize(nsub);
  color_start_.assign(static_cast<std::size_t>(color_count_) + 1, 0);

  std::size_t slot = 0;
  for (int c = 0; c < color_count_; ++c) {
    color_start_[c] = slot;
    for (std::size_t s : coloring_.groups()[static_cast<std::size_t>(c)]) {
      subdomain_of_slot_[slot] = s;
      slot_of_subdomain_[s] = slot;
      ++slot;
    }
  }
  color_start_[color_count_] = slot;
  SDCMD_REQUIRE(slot == nsub, "coloring groups must cover every subdomain");
}

void Partition::build(std::span<const Vec3> positions) {
  const std::size_t nsub = subdomain_of_slot_.size();
  const std::size_t n = positions.size();
  const auto slots = static_cast<std::size_t>(std::max(1, max_threads()));
  // Only the calling thread sizes the scratch: an OpenMP worker that
  // allocates opens a malloc arena of its own and keeps it.
  slot_of_atom_.resize(n);
  partindex_.resize(n);
  pstart_.resize(nsub + 1);
  if (hist_.size() < slots * nsub) hist_.resize(slots * nsub);
#pragma omp parallel if (n >= kParallelPartitionThreshold && slots > 1)
  {
    const auto t = static_cast<std::size_t>(thread_id());
    const auto team = static_cast<std::size_t>(omp_get_num_threads());
    // Contiguous ascending chunks keep atoms ascending within each slot
    // for any team size.
    const std::size_t chunk = (n + team - 1) / team;
    const std::size_t begin = std::min(t * chunk, n);
    const std::size_t end = std::min(begin + chunk, n);
    std::size_t* mine = hist_.data() + t * nsub;
    std::fill_n(mine, nsub, std::size_t{0});
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t sub = decomposition_.subdomain_of(positions[i]);
      const auto slot = static_cast<std::uint32_t>(slot_of_subdomain_[sub]);
      slot_of_atom_[i] = slot;
      ++mine[slot];
    }
#pragma omp barrier
#pragma omp master
    {
      // Exclusive scan over (slot, thread): each count becomes that
      // thread's write cursor for the slot.
      std::size_t running = 0;
      for (std::size_t s = 0; s < nsub; ++s) {
        pstart_[s] = running;
        for (std::size_t t2 = 0; t2 < team; ++t2) {
          const std::size_t count = hist_[t2 * nsub + s];
          hist_[t2 * nsub + s] = running;
          running += count;
        }
      }
      pstart_[nsub] = running;
    }
#pragma omp barrier
    for (std::size_t i = begin; i < end; ++i) {
      partindex_[mine[slot_of_atom_[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
}

std::vector<std::size_t> Partition::atoms_per_color() const {
  std::vector<std::size_t> out(static_cast<std::size_t>(color_count_), 0);
  for (int c = 0; c < color_count_; ++c) {
    out[static_cast<std::size_t>(c)] =
        pstart_[color_end(c)] - pstart_[color_begin(c)];
  }
  return out;
}

double Partition::imbalance() const {
  double worst = 0.0;
  for (int c = 0; c < color_count_; ++c) {
    const std::size_t begin = color_begin(c);
    const std::size_t end = color_end(c);
    if (begin == end) continue;
    const double mean =
        static_cast<double>(pstart_[end] - pstart_[begin]) /
        static_cast<double>(end - begin);
    if (mean == 0.0) continue;
    for (std::size_t s = begin; s < end; ++s) {
      const auto count = static_cast<double>(pstart_[s + 1] - pstart_[s]);
      worst = std::max(worst, std::abs(count - mean) / mean);
    }
  }
  return worst;
}

}  // namespace sdcmd
