// Atom partition over colored subdomains (the paper's pstart / partindex
// arrays from Figs. 7-8).
//
// Subdomains are laid out color-major: all subdomains of color 0 first,
// then color 1, ... For each color the SDC kernels run
//
//   #pragma omp for
//   for (s = color_begin(c); s < color_end(c); ++s)
//     for (k = pstart[s]; k < pstart[s+1]; ++k)
//       i = partindex[k]; ...
//
// which is the contiguous-range equivalent of the paper's strided
// `for (spart = cpart; spart < subdomains; spart += colors)` loop.
//
// The partition is rebuilt whenever the neighbor list is rebuilt (the paper:
// "steps 1 and 2 will be done when the neighbor list is created or
// updated"), so its cost amortizes over many time steps. The build is the
// cell list's parallel counting sort: per-thread histograms over slots, one
// exclusive scan over (slot, thread), then a scatter of each thread's
// contiguous atom chunk. Atoms stay ascending within each slot, so pstart
// and partindex are bitwise the same for any team size, and the scratch is
// persistent, sized on the calling thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "domain/coloring.hpp"
#include "domain/decomposition.hpp"

namespace sdcmd {

class Partition {
 public:
  Partition(const SpatialDecomposition& decomposition,
            const Coloring& coloring);

  /// (Re)assign atoms to subdomains from their current positions
  /// (atoms ascending within each subdomain).
  void build(std::span<const Vec3> positions);

  int color_count() const { return color_count_; }
  std::size_t subdomain_count() const { return subdomain_of_slot_.size(); }
  std::size_t atom_count() const { return partindex_.size(); }

  /// Color-major subdomain slot range for a color.
  std::size_t color_begin(int color) const { return color_start_[color]; }
  std::size_t color_end(int color) const { return color_start_[color + 1]; }

  /// Atoms of the subdomain in color-major slot `slot`.
  std::span<const std::uint32_t> atoms_in_slot(std::size_t slot) const {
    return {partindex_.data() + pstart_[slot],
            partindex_.data() + pstart_[slot + 1]};
  }

  /// Raw arrays (paper naming) for the kernels.
  const std::vector<std::size_t>& pstart() const { return pstart_; }
  const std::vector<std::uint32_t>& partindex() const { return partindex_; }

  /// Flat subdomain index occupying a color-major slot.
  std::size_t subdomain_of_slot(std::size_t slot) const {
    return subdomain_of_slot_[slot];
  }

  /// Number of atoms per color; load balance diagnostics.
  std::vector<std::size_t> atoms_per_color() const;

  /// Largest relative deviation of per-subdomain atom counts within a
  /// color from that color's mean (0 = perfectly balanced).
  double imbalance() const;

 private:
  const SpatialDecomposition& decomposition_;
  const Coloring& coloring_;
  int color_count_;
  std::vector<std::size_t> color_start_;       // per color, slot offsets
  std::vector<std::size_t> subdomain_of_slot_; // slot -> flat subdomain
  std::vector<std::size_t> slot_of_subdomain_; // flat subdomain -> slot
  std::vector<std::size_t> pstart_;            // per slot, atom offsets
  std::vector<std::uint32_t> partindex_;       // atom ids grouped by slot
  // Persistent build scratch (allocation-free once warm).
  std::vector<std::uint32_t> slot_of_atom_;    // atom -> slot
  std::vector<std::size_t> hist_;              // threads x slots counts
};

}  // namespace sdcmd
