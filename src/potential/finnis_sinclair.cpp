#include "potential/finnis_sinclair.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sdcmd {

FinnisSinclairParams FinnisSinclairParams::iron() {
  // Finnis & Sinclair, Philos. Mag. A 50, 45 (1984), Table 1, alpha-Fe.
  FinnisSinclairParams p;
  p.c = 3.40;
  p.c0 = 1.2371147;
  p.c1 = -0.3592185;
  p.c2 = -0.0385607;
  p.d = 3.569745;
  p.beta = 1.8289905;
  p.a = 1.8289905;
  p.label = "fe";
  return p;
}

FinnisSinclairParams FinnisSinclairParams::test_metal() {
  FinnisSinclairParams p;
  p.c = 2.2;
  p.c0 = 1.0;
  p.c1 = -0.2;
  p.c2 = -0.01;
  p.d = 2.4;
  p.beta = 0.5;
  p.a = 1.0;
  p.label = "test";
  return p;
}

FinnisSinclair::FinnisSinclair(FinnisSinclairParams params)
    : p_(std::move(params)),
      cutoff_(std::max(p_.c, p_.d)),
      beta_over_d_(p_.beta / p_.d),
      three_beta_over_d_(3.0 * p_.beta / p_.d) {
  SDCMD_REQUIRE(p_.c > 0.0 && p_.d > 0.0, "cutoffs must be positive");
  SDCMD_REQUIRE(p_.a > 0.0, "embedding amplitude must be positive");
}

std::string FinnisSinclair::name() const {
  return "finnis-sinclair-" + p_.label;
}

}  // namespace sdcmd
