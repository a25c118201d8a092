#include "md/system.hpp"

#include "common/error.hpp"

namespace sdcmd {

namespace {
/// Below this atom count the wrap runs on the calling thread alone.
constexpr std::size_t kParallelWrapThreshold = 2048;

/// True when Box::wrap returns `r` as it is: on every periodic axis
/// 0 <= r - lo < L, so floor((r - lo) / L) is 0. L is hi - lo rounded, so
/// this also puts r below hi.
bool wraps_to_itself(const Box& box, const Vec3& r) {
  for (int d = 0; d < 3; ++d) {
    if (!box.periodic(d)) continue;
    const double offset = r[d] - box.lo()[d];
    if (!(offset >= 0.0 && offset < box.length(d))) return false;
  }
  return true;
}
}  // namespace

System::System(Box box, Atoms atoms, double mass)
    : box_(std::move(box)), atoms_(std::move(atoms)), mass_(mass) {
  SDCMD_REQUIRE(mass > 0.0, "atomic mass must be positive");
}

System System::from_lattice(const LatticeSpec& spec, double mass) {
  return System(spec.box(), Atoms(build_lattice(spec)), mass);
}

double System::number_density() const {
  return static_cast<double>(atoms_.size()) / box_.volume();
}

void System::wrap_positions() {
  const std::size_t n = atoms_.size();
  Vec3* position = atoms_.position.data();
  std::array<int, 3>* image = atoms_.image.data();
  // Only atoms that left the box since the last wrap pay Box::wrap's
  // divisions; the rest keep their bits, as wrap would leave them.
#pragma omp parallel for schedule(static) if (n >= kParallelWrapThreshold)
  for (std::size_t i = 0; i < n; ++i) {
    if (wraps_to_itself(box_, position[i])) continue;
    position[i] = box_.wrap(position[i], image[i]);
  }
}

}  // namespace sdcmd
