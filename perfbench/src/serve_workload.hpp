// serve_fleet: an in-process SessionServer with four small sessions and
// one closed-loop client on one connection.
#pragma once

#include "report.hpp"

namespace perfbench {

/// Run the serve workload (set-up samples, exact-count self-test, timed
/// closed loop, gates) and fill `result`.
void run_serve(const Options& opt, Result& result);

}  // namespace perfbench
