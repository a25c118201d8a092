// perfbench: one workload per process, end-to-end metrics by default,
// per-layer metrics with --trace 1. Normally launched by run.py, which
// builds it, pins it to two cores and hands it a fresh scratch root.
//
//   perfbench --workload fe54k_nve --seed 1 --seconds 45 --trace 0
//             --scratch <empty dir> [--trace-out trace.json]
//
// Prints a detail line and then the result line
// {"correct", "attempted", "failed", "metrics"} with the metrics the
// workload measured (run.py checks them against BENCHMARK.json); exits 0
// when the run completed (whether or not a correctness gate failed), 2 on
// bad usage, an unusable scratch root or an operation that threw.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/error.hpp"
#include "md_workload.hpp"
#include "report.hpp"
#include "serve_workload.hpp"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fe54k_nve|void48k_npt|serve_fleet "
               "--seed N --seconds S --trace 0|1 --scratch DIR "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--scratch") {
      opt.scratch = val;
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || opt.scratch.empty() ||
      !(opt.seconds > 0.0)) {
    return usage();
  }

  Result r;
  try {
    require_empty_dir(opt.scratch);
    if (opt.workload == "serve_fleet") {
      run_serve(opt, r);
    } else {
      run_md(opt, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    remove_tree(opt.scratch);
    return 2;
  }
  remove_tree(opt.scratch);
  if (!opt.trace) r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  r.print();
  return 0;
}
