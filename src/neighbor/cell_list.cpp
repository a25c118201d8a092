#include "neighbor/cell_list.hpp"

#include <algorithm>
#include <cmath>

#include <omp.h>

#include "common/error.hpp"
#include "common/threads.hpp"

namespace sdcmd {

static_assert(CellList::kUnwrapped == CellList::image_code(0, 0, 0));

namespace {
/// Below this atom count the counting sort runs serially: the parallel
/// path's barriers cost more than the walk it saves.
constexpr std::size_t kParallelBinThreshold = 2048;
}  // namespace

CellList::CellList(const Box& box, double min_cell_size)
    : box_(box), min_cell_size_(min_cell_size) {
  SDCMD_REQUIRE(min_cell_size > 0.0, "cell size must be positive");
  set_geometry(box);
  build_stencils();
}

bool CellList::set_geometry(const Box& box) {
  std::array<int, 3> n;
  for (int d = 0; d < 3; ++d) {
    if (box.periodic(d)) {
      SDCMD_REQUIRE(box.length(d) >= 2.0 * min_cell_size_,
                    "periodic box dimension shorter than twice the "
                    "interaction range; minimum image is invalid");
    }
    n[d] = std::max(1, static_cast<int>(box.length(d) / min_cell_size_));
  }
  const bool reshaped = n != n_;
  n_ = n;
  box_ = box;
  for (int d = 0; d < 3; ++d) {
    cell_len_[d] = box.length(d) / n_[d];
  }
  return reshaped;
}

bool CellList::update_box(const Box& box) {
  const bool reshaped = set_geometry(box);
  if (reshaped) build_stencils();
  return reshaped;
}

std::size_t CellList::flat_index(int ix, int iy, int iz) const {
  return (static_cast<std::size_t>(ix) * n_[1] + iy) * n_[2] + iz;
}

std::size_t CellList::cell_of(const Vec3& r) const {
  return cell_of_wrapped(wrapped(r));
}

std::uint8_t CellList::wrap_code_of(const Vec3& r, const Vec3& w) const {
  int code = 0;
  for (int d = 0; d < 3; ++d) {
    // r - w is a whole number of edges (exactly the one Box::wrap
    // subtracted, up to its rounding); 0 on an open axis.
    const double a = std::nearbyint((r[d] - w[d]) / box_.length(d));
    if (!(std::abs(a) <= 1.0)) return kFarOutside;
    code = 3 * code + static_cast<int>(a) + 1;
  }
  return static_cast<std::uint8_t>(code);
}

std::size_t CellList::cell_of_wrapped(const Vec3& w) const {
  int idx[3];
  for (int d = 0; d < 3; ++d) {
    auto i = static_cast<int>((w[d] - box_.lo()[d]) / cell_len_[d]);
    idx[d] = std::clamp(i, 0, n_[d] - 1);
  }
  return flat_index(idx[0], idx[1], idx[2]);
}

void CellList::build(std::span<const Vec3> positions, bool parallel) {
  const std::size_t n = positions.size();
  cell_of_atom_.resize(n);
  cell_atoms_.resize(n);
  slot_of_atom_.resize(n);
  slot_x_.resize(n);
  slot_y_.resize(n);
  slot_z_.resize(n);
  wrap_code_.resize(n);
  cell_start_.resize(cell_count() + 1);
  // The runs keep integer image codes; the shifts follow the current box.
  const Vec3& len = box_.lengths();
  for (int sx = -1; sx <= 1; ++sx) {
    for (int sy = -1; sy <= 1; ++sy) {
      for (int sz = -1; sz <= 1; ++sz) {
        image_shift_[static_cast<std::size_t>(image_code(sx, sy, sz))] = {
            len.x * sx, len.y * sy, len.z * sz};
      }
    }
  }
  const std::size_t cells = cell_count();
  const bool fan_out =
      parallel && n >= kParallelBinThreshold && max_threads() > 1;
  const auto slots = static_cast<std::size_t>(fan_out ? max_threads() : 1);
  if (hist_.size() < slots * cells) hist_.resize(slots * cells);
  std::size_t wrapped = 0, far = 0;
#pragma omp parallel if (fan_out) reduction(+ : wrapped, far)
  {
    const auto t = static_cast<std::size_t>(thread_id());
    const auto team = static_cast<std::size_t>(omp_get_num_threads());
    // Contiguous ascending chunks make the scatter below reproduce the
    // one-thread order (atoms ascending within each cell) for any team
    // size.
    const std::size_t chunk = (n + team - 1) / team;
    const std::size_t begin = std::min(t * chunk, n);
    const std::size_t end = std::min(begin + chunk, n);
    std::uint32_t* mine = hist_.data() + t * cells;
    std::fill_n(mine, cells, 0u);  // first-touch: each thread its own slice
    for (std::size_t i = begin; i < end; ++i) {
      const auto c = static_cast<std::uint32_t>(cell_of(positions[i]));
      cell_of_atom_[i] = c;
      ++mine[c];
    }
#pragma omp barrier
#pragma omp master
    {
      // Exclusive scan over (cell, thread): each histogram slot becomes
      // that thread's write cursor for the cell.
      std::uint32_t running = 0;
      std::uint32_t most = 0;
      for (std::size_t c = 0; c < cells; ++c) {
        cell_start_[c] = running;
        for (std::size_t t2 = 0; t2 < team; ++t2) {
          const std::uint32_t count = hist_[t2 * cells + c];
          hist_[t2 * cells + c] = running;
          running += count;
        }
        most = std::max(most, running - cell_start_[c]);
      }
      cell_start_[cells] = running;
      max_cell_atoms_ = most;
    }
#pragma omp barrier
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint8_t code =
          place(i, mine[cell_of_atom_[i]]++, positions[i]);
      wrapped += code != kUnwrapped;
      far += code == kFarOutside;
    }
  }
  wrapped_atoms_ = wrapped;
  far_atoms_ = far;
}

std::span<const std::uint32_t> CellList::atoms_in(std::size_t cell) const {
  SDCMD_REQUIRE(cell < cell_count(), "cell index out of range");
  const auto begin = cell_start_[cell];
  const auto end = cell_start_[cell + 1];
  return {cell_atoms_.data() + begin, cell_atoms_.data() + end};
}

namespace {
/// `relative` resolved against the flat index `cell`.
StencilRuns resolve(std::span<const StencilRun> relative, std::size_t cell) {
  StencilRuns out;
  for (const StencilRun& run : relative) {
    out.run[out.count++] = {static_cast<std::uint32_t>(cell) + run.first,
                            run.cells, run.image};
  }
  return out;
}
}  // namespace

StencilRuns CellList::runs(std::size_t cell) const {
  SDCMD_REQUIRE(cell < cell_count(), "cell index out of range");
  return resolve(class_runs(cell, false), cell);
}

StencilRuns CellList::half_runs(std::size_t cell) const {
  SDCMD_REQUIRE(cell < cell_count(), "cell index out of range");
  return resolve(class_runs(cell, true), cell);
}

void CellList::build_stencils() {
  ++stencil_rebuilds_;
  // Boundary class per axis: 0 first, 1 interior, 2 last. A 1-cell axis
  // is class 0 alone, a 2-cell axis has no interior.
  auto axis_class = [](int i, int n) {
    return i == 0 ? 0 : i == n - 1 ? 2 : 1;
  };
  class_runs_.clear();
  class_start_[0] = 0;
  for (int k = 0; k < 27; ++k) {
    const int cls[3] = {k / 9, k / 3 % 3, k % 3};
    // A representative cell of the class; classes the grid does not have
    // keep empty tables.
    int at[3];
    bool present = true;
    for (int d = 0; d < 3; ++d) {
      at[d] = cls[d] == 0 ? 0 : cls[d] == 1 ? 1 : n_[d] - 1;
      present = present && at[d] < n_[d] && axis_class(at[d], n_[d]) == cls[d];
    }
    if (present) append_class_runs(at, false);
    class_start_[2 * k + 1] = static_cast<std::uint32_t>(class_runs_.size());
    if (present) append_class_runs(at, true);
    class_start_[2 * k + 2] = static_cast<std::uint32_t>(class_runs_.size());
  }
  class_of_cell_.resize(cell_count());
  for (int ix = 0; ix < n_[0]; ++ix) {
    for (int iy = 0; iy < n_[1]; ++iy) {
      for (int iz = 0; iz < n_[2]; ++iz) {
        class_of_cell_[flat_index(ix, iy, iz)] = static_cast<std::uint8_t>(
            axis_class(ix, n_[0]) * 9 + axis_class(iy, n_[1]) * 3 +
            axis_class(iz, n_[2]));
      }
    }
  }
}

void CellList::append_class_runs(const int (&at)[3], bool half) {
  // One stencil entry: a neighbor cell and the image it is seen through.
  struct Entry {
    std::uint32_t cell;
    std::uint16_t image;
  };
  std::array<Entry, 27> entries{};
  std::size_t count = 0;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        int idx[3] = {at[0] + dx, at[1] + dy, at[2] + dz};
        int image[3] = {0, 0, 0};
        bool valid = true;
        for (int d = 0; d < 3; ++d) {
          if (idx[d] >= 0 && idx[d] < n_[d]) continue;
          if (!box_.periodic(d)) {
            valid = false;
            break;
          }
          // Wrapped from below: the cell's atoms are seen one edge lower
          // (x_j - L); from above, one edge higher.
          image[d] = idx[d] < 0 ? -1 : 1;
          idx[d] -= image[d] * n_[d];
        }
        if (!valid) continue;
        entries[count++] = {
            static_cast<std::uint32_t>(flat_index(idx[0], idx[1], idx[2])),
            static_cast<std::uint16_t>(
                image_code(image[0], image[1], image[2]))};
      }
    }
  }
  // Ascending flat order is the order the rows list neighbors in.
  std::sort(entries.begin(), entries.begin() + count,
            [](const Entry& a, const Entry& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.image < b.image;
            });
  const auto cell =
      static_cast<std::uint32_t>(flat_index(at[0], at[1], at[2]));
  // The half stencil starts at the cell itself: periodic axes have at
  // least 2 cells, so no other offset lands on it.
  const Entry* first = entries.data();
  if (half) {
    first = std::find_if(entries.data(), entries.data() + count,
                         [&](const Entry& e) { return e.cell >= cell; });
  }
  // An entry extends the previous run when it is the next cell in flat
  // order, seen through the same image. Runs are stored relative to the
  // cell (modulo 2^32).
  const std::size_t own = class_runs_.size();
  for (const Entry* e = first; e != entries.data() + count; ++e) {
    if (class_runs_.size() > own) {
      StencilRun& prev = class_runs_.back();
      if (prev.image == e->image &&
          cell + prev.first + prev.cells == e->cell) {
        ++prev.cells;
        continue;
      }
    }
    class_runs_.push_back({e->cell - cell, 1, e->image});
  }
}

std::size_t CellList::memory_bytes() const {
  return cell_start_.size() * sizeof(std::uint32_t) +
         cell_atoms_.size() * sizeof(std::uint32_t) +
         (slot_x_.size() + slot_y_.size() + slot_z_.size()) * sizeof(double) +
         slot_of_atom_.size() * sizeof(std::uint32_t) +
         wrap_code_.size() * sizeof(std::uint8_t) +
         class_of_cell_.size() * sizeof(std::uint8_t) +
         class_start_.size() * sizeof(std::uint32_t) +
         class_runs_.size() * sizeof(StencilRun) +
         cell_of_atom_.size() * sizeof(std::uint32_t) +
         hist_.size() * sizeof(std::uint32_t);
}

}  // namespace sdcmd
