// A simulation system: box + atoms + species mass.
#pragma once

#include "geom/box.hpp"
#include "geom/lattice.hpp"
#include "md/atoms.hpp"

namespace sdcmd {

class System {
 public:
  System(Box box, Atoms atoms, double mass);

  /// Single-species lattice system (the paper's bcc Fe cubes).
  static System from_lattice(const LatticeSpec& spec, double mass);

  const Box& box() const { return box_; }
  Box& box() { return box_; }
  const Atoms& atoms() const { return atoms_; }
  Atoms& atoms() { return atoms_; }
  double mass() const { return mass_; }
  std::size_t size() const { return atoms_.size(); }

  /// Number density (atoms per cubic angstrom).
  double number_density() const;

  /// Wrap every atom into the primary image, updating image counters:
  /// bitwise Box::wrap per atom, in parallel, skipping atoms Box::wrap
  /// would leave as they are.
  void wrap_positions();

 private:
  Box box_;
  Atoms atoms_;
  double mass_;
};

}  // namespace sdcmd
