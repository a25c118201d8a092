// Verlet neighbor lists in the CSR layout of the paper's Figs. 1-2 / 7-8.
//
// A *half* list stores each pair (i, j) exactly once: force and density
// kernels then use Newton's third law and scatter symmetric contributions
// to the other atom - exactly the irregular reduction the paper studies.
// The build walks each cell's half stencil, so a pair is stored under
// whichever atom's cell owns the cell pair (intra-cell pairs under
// min(i, j)); kernels only rely on each pair appearing once. Candidates are
// read from the cell list's cell-order position copy, one stencil run (a
// contiguous slot range seen through one periodic image) at a time, eight
// at a time with AVX-512 where the build targets it
// (neighbor/detail/candidates.hpp).
// A *full* list stores the pair under both atoms; kernels become pure
// gathers with no write conflicts at the price of doubled computation - the
// paper's "Redundant Computations" baseline.
//
// One build is one pass over the candidate pairs: each thread enumerates a
// contiguous chunk of atoms into its own scratch buffer, one prefix sum
// over neigh_len gives neigh_index, and each thread copies its buffer into
// neigh_list at its chunk's offset. Rows and their order do not depend on
// the team size. Unless sort_neighbors is set, a row keeps the stencil's
// order: cells ascending, ids ascending within a cell.
//
// Every stored pair also records the periodic image it was found through,
// one byte beside its neighbor id (neigh_image, a CellList::image_code).
// The rows compute the pair's displacement as
//   dr = (x_i - x_j) - image_shift(code)          (displacement())
// with no minimum image. For the positions passed to build() this is
// bitwise Box::minimum_image(x_i, x_j), and it stays so until the next
// build as long as no pair's displacement moves by half an edge: the
// Verlet criterion (skin/2 per atom, edges >= 2 * (cutoff + skin)) keeps
// every pair within the cutoff far inside that. The shifts belong to the
// box of the last build, so the force computers refuse a list that was
// not built for the box they are given (built_for()).
//
// The cell list wraps positions before binning; each atom's wrap is folded
// into its pairs' codes, so positions may lie outside the box. A folded
// code must stay in {-1, 0, 1} on every axis. That fails only when a
// position lies one edge or more outside the box, or when two neighbors
// stick out beyond opposite faces of an axis by more than L - range
// together (at least half an edge); build() then throws
// PreconditionError. Positions less than a quarter edge outside never do.
//
// The public arrays mirror the paper's pseudocode names:
//   neigh_index[i] : offset of atom i's sublist   (the paper's neighindex)
//   neigh_len[i]   : its length                   (the paper's neighlen)
//   neigh_list[]   : concatenated neighbor ids    (the paper's neighlist)
//   neigh_image[]  : each stored pair's image code
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "geom/box.hpp"
#include "neighbor/cell_list.hpp"

namespace sdcmd {

enum class NeighborMode { Half, Full };

struct NeighborListConfig {
  double cutoff = 0.0;  ///< interaction range (required, > 0)
  double skin = 0.4;    ///< Verlet skin; lists stay valid until an atom
                        ///< moves more than skin/2 since the last build
  NeighborMode mode = NeighborMode::Half;
  bool sort_neighbors = false;  ///< ascending j within each sublist
                                ///< (the paper's Section II.D reordering);
                                ///< image codes move with their ids
};

/// Build-pipeline accounting: phase wall times (cumulative and for the
/// most recent build) plus the storage-reuse counters the obs layer
/// exports as neighbor.* metrics.
struct NeighborBuildStats {
  std::size_t builds = 0;           ///< build() calls
  std::size_t grid_reshapes = 0;    ///< update_box() calls that reshaped
  std::size_t stencil_rebuilds = 0; ///< initial build + one per reshape
  double bin_seconds = 0.0;    ///< cell binning and the cell-order
                               ///< position copy (cumulative)
  double count_seconds = 0.0;  ///< enumeration pass with the image codes,
                               ///< rows sorted when asked (cumulative)
  double fill_seconds = 0.0;   ///< compaction into the CSR arrays, wrap
                               ///< folding and staleness snapshot
                               ///< (cumulative)
  double last_bin_seconds = 0.0;
  double last_count_seconds = 0.0;
  double last_fill_seconds = 0.0;
};

class NeighborList {
 public:
  NeighborList(const Box& box, NeighborListConfig config);

  /// Rebuild from scratch (also records positions for staleness checks).
  /// Throws PreconditionError when a position lies too far outside the box
  /// for its pairs' images to have codes (see the header comment); the
  /// list is then left empty, so every computer refuses it.
  void build(std::span<const Vec3> positions);

  /// Adapt to a changed box in place - storage is reused; the embedded cell
  /// grid recomputes its stencils only when its shape changes. The caller
  /// must build() afterwards (atom-to-cell assignments are stale). Returns
  /// true when the grid reshaped.
  bool update_box(const Box& box);

  /// True when `other` describes this list exactly, so a box change can go
  /// through update_box() instead of reconstruction.
  bool config_compatible(const NeighborListConfig& other) const;

  /// True when some atom has moved more than skin/2 since build() - the
  /// classic safe-rebuild criterion. The move is measured without minimum
  /// image, so a position wrapped since the build (which the stored images
  /// no longer describe) also asks for a rebuild.
  bool needs_rebuild(std::span<const Vec3> positions) const;

  std::size_t atom_count() const { return neigh_len_.size(); }
  std::size_t pair_count() const { return neigh_list_.size(); }

  /// Neighbors of atom i.
  std::span<const std::uint32_t> neighbors(std::size_t i) const {
    return {neigh_list_.data() + neigh_index_[i], neigh_len_[i]};
  }

  /// Image codes of atom i's neighbors, entry for entry.
  std::span<const std::uint8_t> images(std::size_t i) const {
    return {neigh_image_.data() + neigh_index_[i], neigh_len_[i]};
  }

  // Raw CSR arrays for the kernels (paper naming).
  const std::vector<std::size_t>& neigh_index() const { return neigh_index_; }
  const std::vector<std::uint32_t>& neigh_len() const { return neigh_len_; }
  const std::vector<std::uint32_t>& neigh_list() const { return neigh_list_; }
  /// Image code of each neigh_list entry (CellList::image_code).
  const std::vector<std::uint8_t>& neigh_image() const { return neigh_image_; }

  /// Shift (L_x s_x, L_y s_y, L_z s_z) of image code `code`, for the box
  /// of the last build.
  const Vec3& image_shift(std::size_t code) const {
    return cells_.image_shift(code);
  }

  /// x_i - x_j for a stored pair with image code `code`: bitwise
  /// Box::minimum_image(x_i, x_j) under the conditions in the header
  /// comment. Every row computes its displacements through this.
  Vec3 displacement(const Vec3& xi, const Vec3& xj, std::size_t code) const {
    const Vec3& s = image_shift(code);
    return {(xi.x - xj.x) - s.x, (xi.y - xj.y) - s.y, (xi.z - xj.z) - s.z};
  }

  /// True when the list was last built for exactly `box`, so the image
  /// shifts are that box's. Force computers check this before they run.
  bool built_for(const Box& box) const {
    return stats_.builds > 0 && box == built_box_;
  }

  NeighborMode mode() const { return config_.mode; }
  double cutoff() const { return config_.cutoff; }
  double skin() const { return config_.skin; }
  const Box& box() const { return box_; }
  const NeighborListConfig& config() const { return config_; }
  const CellList& cells() const { return cells_; }

  /// Mean *physical* coordination per atom within cutoff + skin,
  /// mode-aware: a half list stores each pair once, so its stored-entry
  /// average is doubled. Both modes report the same number for the same
  /// configuration (bcc Fe at the FS cutoff: ~14; tests assert this).
  double mean_neighbors() const;

  /// Resident bytes of the CSR arrays, the staleness snapshot, the build
  /// scratch AND the embedded cell grid (the obs-layer memory gauge).
  std::size_t memory_bytes() const;

  /// Bytes of the per-thread enumeration buffers kept between builds.
  std::size_t scratch_bytes() const;

  /// True when the last build() saw exactly `box` and `positions` (bitwise),
  /// so building again would reproduce the current list.
  bool built_from(const Box& box, std::span<const Vec3> positions) const;

  /// Build-phase timings and storage-reuse counters.
  const NeighborBuildStats& stats() const { return stats_; }

 private:
  /// One chunk's enumeration buffer: the rows of atoms
  /// [chunk_begin, next) back to back in pairs[0, used), their image codes
  /// in images[0, used). `keys` is a sorted row's (id, code) scratch.
  struct ChunkScratch {
    std::vector<std::uint32_t> pairs;
    std::vector<std::uint8_t> images;
    std::vector<std::uint64_t> keys;
    std::size_t used = 0;
    std::size_t next = 0;
  };

  std::size_t chunk_begin(std::size_t c) const;
  std::size_t chunk_end(std::size_t c) const;
  /// Split the atoms into one chunk per thread slot and size each chunk's
  /// buffer for `per_atom` entries per atom plus slack (never shrinks).
  void reserve_chunks(double per_atom);
  template <NeighborMode Mode>
  bool append_row(std::size_t i, double range2, std::uint32_t* out,
                  std::uint8_t* images, std::size_t cap,
                  std::size_t& used) const;
  /// One parallel region: enumerate every unfinished chunk, stamp
  /// `enumerated_at`, then (master) the prefix sum, then the compaction.
  /// False when a chunk's buffer filled up; the CSR arrays are then left
  /// for the next pass.
  template <NeighborMode Mode>
  bool enumerate_and_compact(double range2, double& enumerated_at);

  /// Fold each atom's wrap into its pairs' image codes; false when a
  /// folded code leaves {-1, 0, 1} on some axis.
  bool fold_wraps();
  /// Leave the list empty after a build that could not code its images.
  void clear_rows();

  Box box_;
  NeighborListConfig config_;
  CellList cells_;
  std::vector<std::size_t> neigh_index_;
  std::vector<std::uint32_t> neigh_len_;
  std::vector<std::uint32_t> neigh_list_;
  std::vector<std::uint8_t> neigh_image_;
  std::vector<Vec3> positions_at_build_;
  Box built_box_;  ///< box_ as of the last build()
  // Build scratch, one buffer per thread slot. Only the calling thread
  // sizes it (before the parallel region): an OpenMP worker that allocates
  // opens a malloc arena of its own and keeps it for the process lifetime.
  std::vector<ChunkScratch> chunks_;
  std::size_t chunk_atoms_ = 0;  ///< atoms per chunk in the current build
  NeighborBuildStats stats_;
};

/// Reference O(N^2) pair enumeration used by tests to validate the
/// cell-list path. Returns pairs (i, j), i < j, within `cutoff`.
std::vector<std::pair<std::uint32_t, std::uint32_t>> brute_force_pairs(
    const Box& box, std::span<const Vec3> positions, double cutoff);

}  // namespace sdcmd
