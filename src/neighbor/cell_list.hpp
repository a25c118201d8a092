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
// Stencils are tables of *runs*: cells consecutive in flat index (a
// z-column, or more) that are all seen through the same periodic image. A
// run stores an integer image code, not a shift vector; every build
// multiplies the codes by the current box edges (image_shift()), so
// update_box() recomputes the runs only when the grid *shape* changes. A
// barostat run therefore performs zero heap reconstructions once warm.
// Taken relative to a cell's own flat index, its runs depend only on where
// the cell sits on each axis: first, interior or last (a 2-cell axis has
// no interior, a 1-cell open axis one class). So the runs are stored once
// per boundary class, at most 27 small tables, and runs() / half_runs()
// resolve them to absolute cells.
//
// Every stencil offset keeps its own entry; nothing is deduplicated. On a
// periodic axis with only 2 cells both images of the other cell are kept.
// Periodic edges are at least twice the range, so at most one image of a
// pair lies within range: no pair is found twice, and a candidate's
// displacement is (x_i - x_j) - image_shift(code) with no minimum image.
//
// Binning records, per atom, the image it was wrapped from (wrap_code()),
// so the neighbor list can fold it into the image of each pair it stores.
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

/// One cell's stencil resolved to absolute cells: at most 27 runs, held
/// by value. A contiguous range, so it converts to a span.
struct StencilRuns {
  std::array<StencilRun, 27> run{};
  std::size_t count = 0;

  const StencilRun* data() const { return run.data(); }
  const StencilRun* begin() const { return run.data(); }
  const StencilRun* end() const { return run.data() + count; }
  std::size_t size() const { return count; }
  const StencilRun& operator[](std::size_t k) const { return run[k]; }
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
  /// outside the box are wrapped on periodic dimensions, and each atom's
  /// wrap is recorded (wrap_code()). Binning is a
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
  StencilRuns runs(std::size_t cell) const;

  /// Half stencil: `cell` itself first, then the full-stencil entries of
  /// greater flat index. Full stencils are symmetric, so every adjacent
  /// cell pair {a, b} (in each image) appears in exactly one of the two
  /// half stencils - the invariant half-mode pair enumeration relies on.
  StencilRuns half_runs(std::size_t cell) const;

  /// The stored form behind runs() / half_runs(): the table of `cell`'s
  /// boundary class, each run's `first` relative to `cell` (modulo 2^32,
  /// so `cell + first` in 32-bit arithmetic is the absolute cell). The
  /// list build walks these directly; `cell` is not range-checked.
  std::span<const StencilRun> class_runs(std::size_t cell, bool half) const {
    const std::size_t k = 2 * std::size_t{class_of_cell_[cell]} + half;
    return {class_runs_.data() + class_start_[k],
            class_runs_.data() + class_start_[k + 1]};
  }

  /// Code of the periodic image (sx, sy, sz), each in {-1, 0, 1}.
  static constexpr int image_code(int sx, int sy, int sz) {
    return (sx + 1) * 9 + (sy + 1) * 3 + (sz + 1);
  }

  /// wrap_code() of an atom that lies inside the box: image_code(0, 0, 0).
  static constexpr std::uint8_t kUnwrapped = 13;
  /// wrap_code() of an atom one edge or more outside the box on some
  /// periodic axis: its image has no code.
  static constexpr std::uint8_t kFarOutside = 0xFF;

  /// Image code (a_x, a_y, a_z) of the image atom `i` was wrapped from by
  /// the last build: its wrapped position is x_i - L*a. kUnwrapped for an
  /// atom inside the box, kFarOutside when some |a_d| > 1.
  std::uint8_t wrap_code(std::size_t i) const { return wrap_code_[i]; }

  /// Atoms the last build wrapped (wrap_code() != kUnwrapped), and of
  /// those the kFarOutside ones.
  std::size_t wrapped_atoms() const { return wrapped_atoms_; }
  std::size_t far_atoms() const { return far_atoms_; }

  /// Most atoms any one cell held at the last build.
  std::size_t max_cell_atoms() const { return max_cell_atoms_; }

  /// Shift (L_x s_x, L_y s_y, L_z s_z) for image code `code` and the box
  /// of the last build: an atom j in a run with this code is seen at
  /// x_j + image_shift(code).
  const Vec3& image_shift(std::size_t code) const {
    return image_shift_[code];
  }

  std::size_t atom_count() const { return cell_atoms_.size(); }

  const Box& box() const { return box_; }

  /// Resident bytes of the cell arrays, the cell-order position copy, the
  /// wrap codes, the stencil tables and the binning scratch.
  std::size_t memory_bytes() const;

  /// Times the stencil runs were (re)computed: once at construction plus
  /// once per grid reshape.
  std::size_t stencil_rebuilds() const { return stencil_rebuilds_; }

 private:
  std::size_t flat_index(int ix, int iy, int iz) const;
  /// Recompute n_ / cell_len_ for `box`; returns true when n_ changed.
  bool set_geometry(const Box& box);
  void build_stencils();
  /// Appends the full or half runs of the cell at grid position `at` to
  /// class_runs_, each `first` relative to that cell.
  void append_class_runs(const int (&at)[3], bool half);
  bool inside(const Vec3& r) const {
    const Vec3& lo = box_.lo();
    const Vec3& hi = box_.hi();
    return r.x >= lo.x && r.x < hi.x && r.y >= lo.y && r.y < hi.y &&
           r.z >= lo.z && r.z < hi.z;
  }
  /// `r` wrapped into the box on periodic dimensions. A position inside
  /// the box comes back as it is, so binning pays Box::wrap's divisions
  /// only for the atoms that left the box.
  Vec3 wrapped(const Vec3& r) const { return inside(r) ? r : box_.wrap(r); }
  /// Image code of the wrap that took `r` to `w` (see wrap_code()).
  std::uint8_t wrap_code_of(const Vec3& r, const Vec3& w) const;
  /// Flat index of the cell holding the already wrapped position `w`.
  std::size_t cell_of_wrapped(const Vec3& w) const;
  /// Put atom `i` at cell-order `slot`, with its wrapped position and the
  /// code of its wrap, which it returns.
  std::uint8_t place(std::size_t i, std::uint32_t slot, const Vec3& r) {
    std::uint8_t code = kUnwrapped;
    Vec3 w = r;
    if (!inside(r)) {
      w = box_.wrap(r);
      code = wrap_code_of(r, w);
    }
    cell_atoms_[slot] = static_cast<std::uint32_t>(i);
    slot_of_atom_[i] = slot;
    slot_x_[slot] = w.x;
    slot_y_[slot] = w.y;
    slot_z_[slot] = w.z;
    wrap_code_[i] = code;
    return code;
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
  std::vector<std::uint8_t> wrap_code_;      // atom -> wrap image code
  std::size_t wrapped_atoms_ = 0;
  std::size_t far_atoms_ = 0;
  std::size_t max_cell_atoms_ = 0;
  // Stencil runs per boundary class k (0..26), relative to the cell, in
  // CSR form: the full stencil is class_runs_[class_start_[2k] ..
  // class_start_[2k+1]) and the half stencil class_runs_[class_start_[2k+1]
  // .. class_start_[2k+2]).
  std::vector<std::uint8_t> class_of_cell_;  // cell -> boundary class
  std::array<std::uint32_t, 2 * 27 + 1> class_start_{};
  std::vector<StencilRun> class_runs_;
  std::array<Vec3, 27> image_shift_{};
  // Persistent binning scratch (allocation-free once warm).
  std::vector<std::uint32_t> cell_of_atom_;  // atom -> cell
  std::vector<std::uint32_t> hist_;          // threads x cells histograms
  std::size_t stencil_rebuilds_ = 0;
};

}  // namespace sdcmd
