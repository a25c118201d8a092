#include "core/strategy.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace sdcmd {
namespace {

TEST(Strategy, ToStringFromStringRoundTrip) {
  for (ReductionStrategy s : kAllStrategies) {
    EXPECT_EQ(parse_strategy(to_string(s)), s);
  }
}

TEST(Strategy, ParsesAliases) {
  EXPECT_EQ(parse_strategy("CS"), ReductionStrategy::Critical);
  EXPECT_EQ(parse_strategy("lock-striped"), ReductionStrategy::LockStriped);
  EXPECT_EQ(parse_strategy("striped-locks"), ReductionStrategy::LockStriped);
  EXPECT_EQ(parse_strategy("privatization"),
            ReductionStrategy::ArrayPrivatization);
  EXPECT_EQ(parse_strategy("redundant"),
            ReductionStrategy::RedundantComputation);
  EXPECT_EQ(parse_strategy("coloring"), ReductionStrategy::Sdc);
  EXPECT_EQ(parse_strategy("SDC"), ReductionStrategy::Sdc);
}

TEST(Strategy, RejectsUnknownNames) {
  EXPECT_THROW(parse_strategy("mpi"), PreconditionError);
  EXPECT_THROW(parse_strategy(""), PreconditionError);
  // The retired block-task shape has no name left.
  for (const char* retired : {"celltask", "cell-task", "task"}) {
    EXPECT_THROW(parse_strategy(retired), PreconditionError) << retired;
  }
}

TEST(Strategy, RequiredModeFullOnlyForRc) {
  for (ReductionStrategy s : kAllStrategies) {
    if (s == ReductionStrategy::RedundantComputation) {
      EXPECT_EQ(required_mode(s), NeighborMode::Full);
    } else {
      EXPECT_EQ(required_mode(s), NeighborMode::Half);
    }
  }
}

}  // namespace
}  // namespace sdcmd
