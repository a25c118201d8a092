#include "core/strategy.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"

namespace sdcmd {

std::string to_string(ReductionStrategy s) {
  switch (s) {
    case ReductionStrategy::Serial: return "serial";
    case ReductionStrategy::Critical: return "critical";
    case ReductionStrategy::Atomic: return "atomic";
    case ReductionStrategy::LockStriped: return "locks";
    case ReductionStrategy::ArrayPrivatization: return "sap";
    case ReductionStrategy::RedundantComputation: return "rc";
    case ReductionStrategy::Sdc: return "sdc";
    case ReductionStrategy::CellTask: return "celltask";
  }
  return "?";
}

ReductionStrategy parse_strategy(const std::string& name) {
  std::string lower(name.size(), '\0');
  std::transform(name.begin(), name.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "serial") return ReductionStrategy::Serial;
  if (lower == "critical" || lower == "cs") return ReductionStrategy::Critical;
  if (lower == "atomic") return ReductionStrategy::Atomic;
  if (lower == "locks" || lower == "lock-striped" ||
      lower == "striped-locks") {
    return ReductionStrategy::LockStriped;
  }
  if (lower == "sap" || lower == "privatization" ||
      lower == "array-privatization") {
    return ReductionStrategy::ArrayPrivatization;
  }
  if (lower == "rc" || lower == "redundant" ||
      lower == "redundant-computation") {
    return ReductionStrategy::RedundantComputation;
  }
  if (lower == "sdc" || lower == "coloring") return ReductionStrategy::Sdc;
  throw PreconditionError("unknown reduction strategy '" + name + "'");
}

NeighborMode required_mode(ReductionStrategy s) {
  return s == ReductionStrategy::RedundantComputation ? NeighborMode::Full
                                                      : NeighborMode::Half;
}

}  // namespace sdcmd
