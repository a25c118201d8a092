#include "neighbor/neighbor_list.hpp"

#include <algorithm>
#include <cstring>
#include <numbers>

#include <omp.h>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "common/timer.hpp"

namespace sdcmd {

namespace {
/// Entries every chunk buffer holds beyond its estimate, so a chunk of a
/// few atoms does not overflow on one dense row.
constexpr std::size_t kChunkSlack = 64;

/// Sorts a row by id, its image codes moving with their ids, through
/// packed (id, code) keys in `keys` (room for `len`).
void sort_row(std::uint32_t* ids, std::uint8_t* images, std::size_t len,
              std::uint64_t* keys) {
  for (std::size_t k = 0; k < len; ++k) {
    keys[k] = std::uint64_t{ids[k]} << 8 | images[k];
  }
  std::sort(keys, keys + len);
  for (std::size_t k = 0; k < len; ++k) {
    ids[k] = static_cast<std::uint32_t>(keys[k] >> 8);
    images[k] = static_cast<std::uint8_t>(keys[k]);
  }
}

/// Image code `code` seen between an atom wrapped from image `wrap_i` and
/// one wrapped from image `wrap_j` (all CellList::image_code values):
/// s + a_i - a_j per axis, or -1 when that leaves {-1, 0, 1}.
int fold_image(int code, int wrap_i, int wrap_j) {
  int folded = 0;
  for (int place = 9; place >= 1; place /= 3) {
    // Each base-3 digit is its axis's shift + 1.
    const int digit = code / place % 3 + wrap_i / place % 3 -
                      wrap_j / place % 3;
    if (digit < 0 || digit > 2) return -1;
    folded += digit * place;
  }
  return folded;
}
}  // namespace

NeighborList::NeighborList(const Box& box, NeighborListConfig config)
    : box_(box),
      config_(config),
      cells_(box, config.cutoff + config.skin),
      built_box_(box) {
  SDCMD_REQUIRE(config.cutoff > 0.0, "cutoff must be positive");
  SDCMD_REQUIRE(config.skin >= 0.0, "skin must be non-negative");
  SDCMD_REQUIRE(config.pad_width >= 0, "pad width must be non-negative");
}

// One row per atom, specialized per mode so the hot loop carries no
// per-pair mode test. Candidates come from the stencil runs of atom i's
// cell, each a contiguous range of cell-order slots seen through one
// periodic image s, tested as dr = (x_i - x_j) - L*s per axis. For a pair
// within range that is the arithmetic Box::minimum_image does, so rows are
// bitwise those of a minimum-image scan over the same cells. Each
// candidate's image code is written beside its id.
//   Half : the half runs. The first one starts at i's own cell, where only
//          the slots after i's (greater ids) pair with it. Each cross-cell
//          pair is stored under the atom in the lower-index cell;
//          intra-cell pairs under min(i, j).
//   Full : the full runs, skipping only i's own slot.
// The append is branchless: every candidate is written and the cursor
// advances only past kept ones, so a run fits only when the buffer has
// room for all its candidates. Appends atom i's row to out[used, cap) and
// its codes to images[used, cap); false when it does not fit.
template <NeighborMode Mode>
bool NeighborList::append_row(std::size_t i, double range2,
                              std::uint32_t* out, std::uint8_t* images,
                              std::size_t cap, std::size_t& used) const {
  const double* xs = cells_.slot_x();
  const double* ys = cells_.slot_y();
  const double* zs = cells_.slot_z();
  const std::uint32_t* ids = cells_.slot_atoms();
  const std::size_t si = cells_.slot_of(i);
  const double xi = xs[si];
  const double yi = ys[si];
  const double zi = zs[si];
  const std::uint32_t ci = cells_.binned_cell(i);
  // The runs of ci's boundary class, relative to ci.
  const auto runs = cells_.class_runs(ci, Mode == NeighborMode::Half);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::uint32_t first = ci + runs[r].first;
    const std::size_t begin = Mode == NeighborMode::Half && r == 0
                                  ? si + 1
                                  : cells_.cell_begin(first);
    const std::size_t end = cells_.cell_begin(first + runs[r].cells);
    if (cap - used < end - begin) return false;
    const auto image = static_cast<std::uint8_t>(runs[r].image);
    const Vec3& s = cells_.image_shift(image);
    for (std::size_t k = begin; k < end; ++k) {
      const Vec3 dr{(xi - xs[k]) - s.x, (yi - ys[k]) - s.y,
                    (zi - zs[k]) - s.z};
      out[used] = ids[k];
      images[used] = image;
      if constexpr (Mode == NeighborMode::Half) {
        used += norm2(dr) < range2;
      } else {
        used += (norm2(dr) < range2) & (k != si);
      }
    }
  }
  return true;
}

std::size_t NeighborList::chunk_begin(std::size_t c) const {
  return std::min(c * chunk_atoms_, neigh_len_.size());
}

std::size_t NeighborList::chunk_end(std::size_t c) const {
  return std::min(chunk_begin(c) + chunk_atoms_, neigh_len_.size());
}

void NeighborList::reserve_chunks(double per_atom) {
  const auto count = static_cast<std::size_t>(std::max(1, max_threads()));
  chunks_.resize(count);
  chunk_atoms_ = (neigh_len_.size() + count - 1) / count;
  // A row holds at most its stencil's candidates: 27 cells' atoms.
  const std::size_t row_max =
      config_.sort_neighbors ? 27 * cells_.max_cell_atoms() : 0;
  for (std::size_t c = 0; c < count; ++c) {
    ChunkScratch& chunk = chunks_[c];
    chunk.used = 0;
    chunk.next = chunk_begin(c);
    const double atoms = static_cast<double>(chunk_end(c) - chunk.next);
    const std::size_t want =
        static_cast<std::size_t>(1.125 * per_atom * atoms) + kChunkSlack;
    if (chunk.pairs.size() < want) {
      chunk.pairs.resize(want);
      chunk.images.resize(want);
    }
    if (chunk.keys.size() < row_max) chunk.keys.resize(row_max);
  }
}

template <NeighborMode Mode>
bool NeighborList::enumerate_and_compact(double range2,
                                         double& enumerated_at) {
  const std::size_t n = neigh_len_.size();
  const std::size_t count = chunks_.size();
  bool complete = true;
#pragma omp parallel
  {
    const auto t = static_cast<std::size_t>(thread_id());
    const auto team = static_cast<std::size_t>(omp_get_num_threads());
    // Enumerate: chunk c's rows go back to back into its own buffer. A
    // full buffer stops the chunk before the row that did not fit; the
    // caller grows it and the next pass resumes there.
    for (std::size_t c = t; c < count; c += team) {
      ChunkScratch& chunk = chunks_[c];
      std::uint32_t* out = chunk.pairs.data();
      std::uint8_t* images = chunk.images.data();
      const std::size_t cap = chunk.pairs.size();
      const std::size_t end = chunk_end(c);
      std::size_t i = chunk.next;
      std::size_t used = chunk.used;
      for (; i < end; ++i) {
        const std::size_t row = used;
        if (!append_row<Mode>(i, range2, out, images, cap, used)) {
          used = row;
          break;
        }
        if (config_.sort_neighbors) {
          sort_row(out + row, images + row, used - row, chunk.keys.data());
        }
        neigh_len_[i] = static_cast<std::uint32_t>(used - row);
      }
      chunk.next = i;
      chunk.used = used;
    }
#pragma omp barrier
#pragma omp master
    {
      enumerated_at = wall_time();
      for (std::size_t c = 0; c < count; ++c) {
        if (chunks_[c].next != chunk_end(c)) complete = false;
      }
      if (complete) {
        neigh_index_[0] = 0;
        for (std::size_t i = 0; i < n; ++i) {
          neigh_index_[i + 1] = neigh_index_[i] + neigh_len_[i];
        }
        // Reserve with slack so steady-state rebuilds (pair counts drift
        // by a few percent as atoms cross the skin) stay
        // reallocation-free. With padded tiles enabled the worst case per
        // atom is pad_width - 1 extra slots; fold that into the slack
        // bound so the FIRST padded build (and every rebuild after it)
        // sizes both arrays once.
        const std::size_t needed = neigh_index_[n];
        const std::size_t pad_slack =
            config_.pad_width > 1
                ? n * static_cast<std::size_t>(config_.pad_width - 1)
                : 0;
        if (neigh_list_.capacity() < needed) {
          neigh_list_.reserve(needed + needed / 8);
          neigh_image_.reserve(needed + needed / 8);
        }
        neigh_list_.resize(needed);
        neigh_image_.resize(needed);
        if (config_.pad_width > 1 &&
            padded_list_.capacity() < needed + pad_slack) {
          padded_list_.reserve(needed + needed / 8 + pad_slack);
        }
      }
    }
#pragma omp barrier
    // Compact: each chunk's rows land at its first atom's offset.
    if (complete) {
      for (std::size_t c = t; c < count; c += team) {
        const ChunkScratch& chunk = chunks_[c];
        const std::size_t at = neigh_index_[chunk_begin(c)];
        std::copy_n(chunk.pairs.data(), chunk.used, neigh_list_.data() + at);
        std::copy_n(chunk.images.data(), chunk.used,
                    neigh_image_.data() + at);
      }
    }
  }
  return complete;
}

void NeighborList::build(std::span<const Vec3> positions) {
  const std::size_t n = positions.size();
  const double range = config_.cutoff + config_.skin;
  const double range2 = range * range;

  const double t0 = wall_time();
  cells_.build(positions);
  const double t1 = wall_time();
  if (cells_.far_atoms() > 0) {
    clear_rows();
    throw PreconditionError(
        "neighbor list: a position lies one edge or more outside the box, "
        "or is not finite; wrap positions before building");
  }

  // Entries per atom to reserve for: the last build's mean, or before the
  // first build the count a uniform density puts within range.
  const double per_atom =
      !neigh_len_.empty()
          ? static_cast<double>(neigh_list_.size()) /
                static_cast<double>(neigh_len_.size())
          : static_cast<double>(n) / box_.volume() * 4.0 / 3.0 *
                std::numbers::pi * range * range2 *
                (config_.mode == NeighborMode::Half ? 0.5 : 1.0);
  // Every slot of neigh_len_ is written by the enumeration and of
  // neigh_index_ by the prefix sum, so growth is the only allocation.
  neigh_len_.resize(n);
  neigh_index_.resize(n + 1);
  reserve_chunks(per_atom);

  double t2 = t1;
  while (!(config_.mode == NeighborMode::Full
               ? enumerate_and_compact<NeighborMode::Full>(range2, t2)
               : enumerate_and_compact<NeighborMode::Half>(range2, t2))) {
    // A chunk outgrew its estimate: double its buffer, keeping the rows
    // already enumerated, and resume it where it stopped.
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      ChunkScratch& chunk = chunks_[c];
      if (chunk.next != chunk_end(c)) {
        chunk.pairs.resize(2 * chunk.pairs.size() + kChunkSlack);
        chunk.images.resize(chunk.pairs.size());
      }
    }
  }
  if (cells_.wrapped_atoms() > 0 && !fold_wraps()) {
    clear_rows();
    throw PreconditionError(
        "neighbor list: two neighbors lie so far outside opposite faces of "
        "the box that their image has no code; wrap positions before "
        "building");
  }
  if (config_.pad_width > 1) build_padded_tiles();

  positions_at_build_.assign(positions.begin(), positions.end());
  built_box_ = box_;
  const double t3 = wall_time();

  ++stats_.builds;
  stats_.last_bin_seconds = t1 - t0;
  stats_.last_count_seconds = t2 - t1;
  stats_.last_fill_seconds = t3 - t2;
  stats_.bin_seconds += stats_.last_bin_seconds;
  stats_.count_seconds += stats_.last_count_seconds;
  stats_.fill_seconds += stats_.last_fill_seconds;
  stats_.stencil_rebuilds = cells_.stencil_rebuilds();
}

bool NeighborList::fold_wraps() {
  const std::size_t n = neigh_len_.size();
  bool coded = true;
#pragma omp parallel for schedule(static) reduction(&& : coded)
  for (std::size_t i = 0; i < n; ++i) {
    const int wrap_i = cells_.wrap_code(i);
    for (std::size_t k = neigh_index_[i]; k < neigh_index_[i + 1]; ++k) {
      const int wrap_j = cells_.wrap_code(neigh_list_[k]);
      if (wrap_i == CellList::kUnwrapped && wrap_j == CellList::kUnwrapped) {
        continue;
      }
      const int folded = fold_image(neigh_image_[k], wrap_i, wrap_j);
      coded = coded && folded >= 0;
      neigh_image_[k] = static_cast<std::uint8_t>(std::max(folded, 0));
    }
  }
  return coded;
}

void NeighborList::clear_rows() {
  neigh_len_.clear();
  neigh_index_.assign(1, 0);
  neigh_list_.clear();
  neigh_image_.clear();
  tile_index_.clear();
  padded_list_.clear();
  positions_at_build_.clear();
}

void NeighborList::build_padded_tiles() {
  // Each atom's padded block is its CSR sublist rounded up to a multiple
  // of pad_width, tail slots filled with the sentinel index atom_count().
  // SIMD loops walk whole blocks with no length test; sentinel lanes are
  // masked by an index compare, never by control flow.
  const std::size_t n = neigh_len_.size();
  const auto w = static_cast<std::size_t>(config_.pad_width);
  const std::uint32_t sentinel = pad_sentinel();
  tile_index_.resize(n + 1);
  tile_index_[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t padded = (neigh_len_[i] + w - 1) / w * w;
    tile_index_[i + 1] = tile_index_[i] + padded;
  }
  padded_list_.resize(tile_index_[n]);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = neigh_index_[i];
    const std::size_t dst = tile_index_[i];
    const std::size_t len = neigh_len_[i];
    for (std::size_t k = 0; k < len; ++k) {
      padded_list_[dst + k] = neigh_list_[src + k];
    }
    const std::size_t end = tile_index_[i + 1] - dst;
    for (std::size_t k = len; k < end; ++k) {
      padded_list_[dst + k] = sentinel;
    }
  }
}

bool NeighborList::update_box(const Box& box) {
  box_ = box;
  const bool reshaped = cells_.update_box(box);
  if (reshaped) ++stats_.grid_reshapes;
  stats_.stencil_rebuilds = cells_.stencil_rebuilds();
  return reshaped;
}

bool NeighborList::config_compatible(const NeighborListConfig& other) const {
  return other.cutoff == config_.cutoff && other.skin == config_.skin &&
         other.mode == config_.mode &&
         other.sort_neighbors == config_.sort_neighbors &&
         other.pad_width == config_.pad_width;
}

bool NeighborList::needs_rebuild(std::span<const Vec3> positions) const {
  if (positions.size() != positions_at_build_.size()) return true;
  const double limit = config_.skin * 0.5;
  const double limit2 = limit * limit;
  // Early exit on the FIRST atom past skin/2: in the common
  // must-rebuild case this touches a handful of atoms, not all N.
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (norm2(positions[i] - positions_at_build_[i]) > limit2) return true;
  }
  return false;
}

double NeighborList::mean_neighbors() const {
  if (neigh_len_.empty()) return 0.0;
  const double stored = static_cast<double>(neigh_list_.size()) /
                        static_cast<double>(neigh_len_.size());
  // A half list stores each physical pair once, so each pair contributes
  // to two atoms' coordination but only one atom's sublist.
  return config_.mode == NeighborMode::Half ? 2.0 * stored : stored;
}

bool NeighborList::built_from(const Box& box,
                              std::span<const Vec3> positions) const {
  return stats_.builds > 0 && box == built_box_ &&
         positions.size() == positions_at_build_.size() &&
         std::memcmp(positions.data(), positions_at_build_.data(),
                     positions.size() * sizeof(Vec3)) == 0;
}

std::size_t NeighborList::scratch_bytes() const {
  std::size_t bytes = 0;
  for (const ChunkScratch& chunk : chunks_) {
    bytes += chunk.pairs.size() * sizeof(std::uint32_t) +
             chunk.images.size() * sizeof(std::uint8_t) +
             chunk.keys.size() * sizeof(std::uint64_t);
  }
  return bytes;
}

std::size_t NeighborList::memory_bytes() const {
  return neigh_index_.size() * sizeof(std::size_t) +
         neigh_len_.size() * sizeof(std::uint32_t) +
         neigh_list_.size() * sizeof(std::uint32_t) +
         neigh_image_.size() * sizeof(std::uint8_t) +
         tile_index_.size() * sizeof(std::size_t) +
         padded_list_.size() * sizeof(std::uint32_t) +
         positions_at_build_.size() * sizeof(Vec3) + scratch_bytes() +
         cells_.memory_bytes();
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> brute_force_pairs(
    const Box& box, std::span<const Vec3> positions, double cutoff) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  const double cut2 = cutoff * cutoff;
  for (std::uint32_t i = 0; i < positions.size(); ++i) {
    for (std::uint32_t j = i + 1; j < positions.size(); ++j) {
      if (box.distance2(positions[i], positions[j]) < cut2) {
        pairs.emplace_back(i, j);
      }
    }
  }
  return pairs;
}

}  // namespace sdcmd
