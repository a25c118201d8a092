// Concrete-type dispatch for the EAM force rows.
//
// A force row evaluates the potential once or twice per neighbor pair.
// Through the EamPotential interface each evaluation is a virtual call,
// which the row cannot inline and around which it must spill every live
// floating-point register. visit_eam picks the potential's type once per
// force call, outside the loops: FinnisSinclair and TabulatedEam (both
// final, with their bodies in their headers) are passed as themselves, so
// the rows inline them; any other EamPotential is passed as the base and
// keeps the virtual calls.
#pragma once

#include "potential/finnis_sinclair.hpp"
#include "potential/potential.hpp"
#include "potential/tabulated.hpp"

namespace sdcmd {

/// Returns `f(p)`, with `p` the potential as its concrete type when that
/// type has inline bodies, else as EamPotential. `f` must return the same
/// type for every alternative.
template <class F>
decltype(auto) visit_eam(const EamPotential& pot, F&& f) {
  if (const auto* fs = dynamic_cast<const FinnisSinclair*>(&pot)) {
    return f(*fs);
  }
  if (const auto* tab = dynamic_cast<const TabulatedEam*>(&pot)) {
    return f(*tab);
  }
  return f(pot);
}

}  // namespace sdcmd
