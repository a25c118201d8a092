// Linked-cell binning of atoms into a uniform grid.
//
// The grid cell edge is >= the requested interaction range, so all pairs
// within that range live in a cell and its 26 neighbors. This is the
// substrate for Verlet-list construction and for the spatial atom
// reordering pass.
//
// Binning runs as a counting sort (per-thread histograms + prefix sum) into
// persistent member scratch. The same pass copies every atom's wrapped
// position into cell order, as x/y/z arrays beside the atom ids, so a scan
// over neighboring cells streams contiguous memory.
//
// Stencils are one compact CSR table of *runs*: cells consecutive in flat
// index (a z-column, or more) that are all seen through the same periodic
// image. A run stores an integer image code, not a shift vector; every
// build multiplies the codes by the current box edges (image_shift()), so
// update_box() recomputes the runs only when the grid *shape* changes. A
// barostat run therefore performs zero heap reconstructions once warm.
//
// Every stencil offset keeps its own entry; nothing is deduplicated. On a
// periodic axis with only 2 cells both images of the other cell are kept.
// Periodic edges are at least twice the range, so at most one image of a
// pair lies within range: no pair is found twice, and a candidate's
// displacement is (x_i - x_j) - image_shift(code) with no minimum image.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/vec3.hpp"
#include "geom/box.hpp"

namespace sdcmd {

/// Cells [first, first + cells) in flat order, all seen through one
/// periodic image. Their atoms are the contiguous cell-order slots
/// [cell_begin(first), cell_begin(first + cells)).
struct StencilRun {
  std::uint32_t first;  ///< flat index of the run's first cell
  std::uint16_t cells;  ///< number of cells in the run
  std::uint16_t image;  ///< image code, see CellList::image_code
};

class CellList {
 public:
  /// Grid over `box` with cell edges >= `min_cell_size` in every dimension.
  /// Periodic dimensions must span at least 2 * min_cell_size, so at most
  /// one periodic image of a pair lies within the interaction range.
  CellList(const Box& box, double min_cell_size);

  /// Adapt to a changed box in place, reusing all storage. Stencil runs
  /// are recomputed only when the grid shape changes (the same validity
  /// requirements as the constructor apply). Returns true when the grid
  /// reshaped.
  bool update_box(const Box& box);

  /// Bin atoms and copy their wrapped positions into cell order. Positions
  /// outside the box are wrapped on periodic dimensions. Binning is a
  /// counting sort over per-thread histograms, on the calling thread alone
  /// when `parallel` is false or the atoms are few; its output (atoms
  /// ascending within each cell) is bit-identical for any thread count.
  void build(std::span<const Vec3> positions, bool parallel = true);

  int nx() const { return n_[0]; }
  int ny() const { return n_[1]; }
  int nz() const { return n_[2]; }
  std::size_t cell_count() const {
    return static_cast<std::size_t>(n_[0]) * n_[1] * n_[2];
  }

  /// Flat index of the cell containing `r` (wrapped into the box first).
  std::size_t cell_of(const Vec3& r) const;

  /// Cell that build() binned atom `i` into (valid until the next build;
  /// saves the Verlet-list passes a wrap + grid lookup per atom).
  std::uint32_t binned_cell(std::size_t i) const { return cell_of_atom_[i]; }

  /// Cell-order slot of atom `i` (valid until the next build).
  std::uint32_t slot_of(std::size_t i) const { return slot_of_atom_[i]; }

  /// First cell-order slot of `cell`; cell_begin(cell + 1) ends it.
  std::uint32_t cell_begin(std::size_t cell) const {
    return cell_start_[cell];
  }

  /// Atoms in a cell, CSR-style.
  std::span<const std::uint32_t> atoms_in(std::size_t cell) const;

  /// Per cell-order slot: the atom id and its wrapped coordinates.
  const std::uint32_t* slot_atoms() const { return cell_atoms_.data(); }
  const double* slot_x() const { return slot_x_.data(); }
  const double* slot_y() const { return slot_y_.data(); }
  const double* slot_z() const { return slot_z_.data(); }

  /// Full stencil of `cell` as runs ascending by first cell: one entry per
  /// offset in {-1, 0, 1}^3 that the boundaries allow, `cell` included.
  std::span<const StencilRun> runs(std::size_t cell) const;

  /// Half stencil: `cell` itself first, then the full-stencil entries of
  /// greater flat index. Full stencils are symmetric, so every adjacent
  /// cell pair {a, b} (in each image) appears in exactly one of the two
  /// half stencils - the invariant half-mode pair enumeration relies on.
  std::span<const StencilRun> half_runs(std::size_t cell) const;

  /// Code of the periodic image (sx, sy, sz), each in {-1, 0, 1}.
  static constexpr int image_code(int sx, int sy, int sz) {
    return (sx + 1) * 9 + (sy + 1) * 3 + (sz + 1);
  }

  /// Shift (L_x s_x, L_y s_y, L_z s_z) for image code `code` and the box
  /// of the last build: an atom j in a run with this code is seen at
  /// x_j + image_shift(code).
  const Vec3& image_shift(std::size_t code) const {
    return image_shift_[code];
  }

  std::size_t atom_count() const { return cell_atoms_.size(); }

  const Box& box() const { return box_; }

  /// Resident bytes of the cell arrays, the cell-order position copy, the
  /// stencil runs and the binning scratch.
  std::size_t memory_bytes() const;

  /// Times the stencil runs were (re)computed: once at construction plus
  /// once per grid reshape.
  std::size_t stencil_rebuilds() const { return stencil_rebuilds_; }

 private:
  std::size_t flat_index(int ix, int iy, int iz) const;
  /// Recompute n_ / cell_len_ for `box`; returns true when n_ changed.
  bool set_geometry(const Box& box);
  void build_stencils();
  /// `r` wrapped into the box on periodic dimensions. A position inside
  /// the box comes back as it is, so binning pays Box::wrap's divisions
  /// only for the atoms that left the box.
  Vec3 wrapped(const Vec3& r) const {
    const Vec3& lo = box_.lo();
    const Vec3& hi = box_.hi();
    if (r.x >= lo.x && r.x < hi.x && r.y >= lo.y && r.y < hi.y &&
        r.z >= lo.z && r.z < hi.z) {
      return r;
    }
    return box_.wrap(r);
  }
  /// Flat index of the cell holding the already wrapped position `w`.
  std::size_t cell_of_wrapped(const Vec3& w) const;
  /// Put atom `i` at cell-order `slot`, with its wrapped position.
  void place(std::size_t i, std::uint32_t slot, const Vec3& r) {
    const Vec3 w = wrapped(r);
    cell_atoms_[slot] = static_cast<std::uint32_t>(i);
    slot_of_atom_[i] = slot;
    slot_x_[slot] = w.x;
    slot_y_[slot] = w.y;
    slot_z_[slot] = w.z;
  }

  Box box_;
  double min_cell_size_ = 0.0;
  std::array<int, 3> n_{1, 1, 1};
  Vec3 cell_len_;
  std::vector<std::uint32_t> cell_start_;   // size cells+1
  std::vector<std::uint32_t> cell_atoms_;   // atom ids grouped by cell
  std::vector<double> slot_x_;              // wrapped positions, cell order
  std::vector<double> slot_y_;
  std::vector<double> slot_z_;
  std::vector<std::uint32_t> slot_of_atom_;  // atom -> cell-order slot
  // Stencil runs in CSR form: cell c's full stencil is
  // runs_[run_start_[2c] .. run_start_[2c+1]) and its half stencil
  // runs_[run_start_[2c+1] .. run_start_[2c+2]).
  std::vector<std::uint32_t> run_start_;  // size 2*cells+1
  std::vector<StencilRun> runs_;
  std::array<Vec3, 27> image_shift_{};
  // Persistent binning scratch (allocation-free once warm).
  std::vector<std::uint32_t> cell_of_atom_;  // atom -> cell
  std::vector<std::uint32_t> hist_;          // threads x cells histograms
  std::size_t stencil_rebuilds_ = 0;
};

}  // namespace sdcmd
