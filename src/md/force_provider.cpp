#include "md/force_provider.hpp"

#include "common/fault.hpp"

namespace sdcmd {

EamForceResult EamForceProvider::compute(const Box& box, Atoms& atoms,
                                         const NeighborList& list) {
  const EamForceResult result = computer_.compute(
      box, atoms.position, list, atoms.rho, atoms.fp, atoms.force);
  faults::maybe_poison_forces(atoms.force);
  return result;
}

EamForceResult PairForceProvider::compute(const Box& box, Atoms& atoms,
                                          const NeighborList& list) {
  const EamForceResult result =
      computer_.compute(box, atoms.position, list, atoms.force);
  faults::maybe_poison_forces(atoms.force);
  return result;
}

}  // namespace sdcmd
