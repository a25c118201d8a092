// bench_serve_load: latency and overload characterization of sdcmd-serve.
//
// Boots an in-process SessionServer on a temp socket, fills it to its
// admission cap, and measures per-op latency histograms (p50/p95/p99)
// under steady step traffic:
//
//   * control-plane ops (status, step, snapshot) measured from a client
//     while every session is being stepped by the worker pool;
//   * the overload drill: create attempts beyond the cap must ALL be
//     rejected explicitly (code "overloaded", never queued), and the p99
//     step-op latency under that rejection storm must stay within 2x the
//     baseline — the acceptance bar for admission control being cheap;
//   * the serve.* metric family is flushed as a kind=summary JSONL record
//     for scripts/validate_bench_output.py.
//
// Emits sdcmd.bench.v1 (--out) with one row per case; rows carry
// p50_ms/p95_ms/p99_ms and feasible=false when an invariant (full
// rejection, 2x bound) fails, so the perf gate catches regressions.

#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "obs/bench_report.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace sdcmd;

namespace {

struct Latencies {
  std::vector<double> ms;
  double p(double q) const { return percentile(ms, q); }
};

obs::BenchReport::Row latency_row(const std::string& name,
                                  const Latencies& lat, bool feasible) {
  return {{"case", obs::JsonValue(name)},
          {"ops", obs::JsonValue(static_cast<std::int64_t>(lat.ms.size()))},
          {"p50_ms", obs::JsonValue(lat.p(50.0))},
          {"p95_ms", obs::JsonValue(lat.p(95.0))},
          {"p99_ms", obs::JsonValue(lat.p(99.0))},
          {"feasible", obs::JsonValue(feasible)}};
}

/// Session id "b<i>". Built by appending: GCC 12 reports a false
/// -Wrestrict overlap inside the operator+ of a literal and a temporary.
std::string session_id(int i) {
  std::string id = "b";
  id += std::to_string(i);
  return id;
}

/// Time one request round-trip in milliseconds.
template <typename Fn>
double timed_ms(Fn&& fn) {
  const double t0 = wall_time();
  fn();
  return (wall_time() - t0) * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_serve_load",
                "Latency/overload characterization of the session server");
  cli.add_option("sessions", "4", "sessions to create (== admission cap)");
  cli.add_option("workers", "2", "server worker threads");
  cli.add_option("cells", "4", "lattice cells per session");
  cli.add_option("ops", "300", "measured requests per case");
  cli.add_option("overload-attempts", "50", "rejected creates in the drill");
  cli.add_option("steps-per-burst", "50", "step budget refreshed per round");
  cli.add_option("socket", "bench_serve.sock", "AF_UNIX socket path");
  cli.add_option("root", "bench_serve.d", "sessions root");
  cli.add_option("out", "", "write sdcmd.bench.v1 JSON here");
  cli.add_option("metrics-out", "", "write serve.* summary JSONL here");
  if (!cli.parse(argc, argv)) return 1;

  const int sessions = cli.get_int("sessions");
  const int ops = cli.get_int("ops");
  const int overload_attempts = cli.get_int("overload-attempts");
  const long burst = cli.get_int("steps-per-burst");

  obs::MetricsRegistry registry;
  serve::ServerConfig config;
  config.socket_path = cli.get("socket");
  config.root = cli.get("root");
  config.max_sessions = sessions;  // the drill needs a reachable cap
  config.workers = cli.get_int("workers");
  config.session.watchdog_min_seconds = 5.0;  // bench hosts are noisy
  config.registry = &registry;

  obs::BenchReport report("serve_load");
  report.set_context("sessions", sessions);
  report.set_context("workers", cli.get_int("workers"));
  report.set_context("cells", cli.get_int("cells"));
  report.set_context("ops_per_case", ops);
  report.set_context("overload_attempts", overload_attempts);

  try {
    serve::SessionServer server(config);
    server.start();

    serve::ClientConfig ccfg;
    ccfg.socket_path = cli.get("socket");
    serve::ServeClient client(ccfg);

    // Fill the fleet to the cap.
    for (int i = 0; i < sessions; ++i) {
      serve::WireMessage create;
      create.set("op", "create");
      create.set("id", session_id(i));
      create.set("cells", cli.get_int("cells"));
      create.set("seed", 1000 + i);
      const serve::WireMessage r = client.request(create);
      if (!r.get_bool("ok", false)) {
        throw Error("create failed: " + r.serialize());
      }
    }

    const auto step_session = [&](int i, long steps) {
      serve::WireMessage msg;
      msg.set("op", "step");
      msg.set("id", session_id(i % sessions));
      msg.set("steps", steps);
      return client.request(msg);
    };
    const auto refresh_budgets = [&] {
      for (int i = 0; i < sessions; ++i) step_session(i, burst);
    };

    // Warm-up: populate neighbor structures and the workers' caches.
    refresh_budgets();
    client.request_op("status", "b0");

    // Case 1..3: control-plane latency under steady stepping.
    Latencies status_lat;
    Latencies step_lat;
    Latencies snapshot_lat;
    std::vector<double> frame;
    for (int i = 0; i < ops; ++i) {
      if (i % 16 == 0) refresh_budgets();
      status_lat.ms.push_back(timed_ms(
          [&] { client.request_op("status", session_id(i % sessions)); }));
      step_lat.ms.push_back(timed_ms([&] { step_session(i, 1); }));
      snapshot_lat.ms.push_back(timed_ms(
          [&] { client.snapshot(session_id(i % sessions), frame); }));
    }
    report.add_result(latency_row("status", status_lat, true));
    report.add_result(latency_row("step", step_lat, true));
    report.add_result(latency_row("snapshot", snapshot_lat, true));

    // Overload drill: every create beyond the cap must be rejected
    // explicitly, and step latency for the existing fleet must not
    // degrade past 2x while the rejection storm runs.
    Latencies overload_step_lat;
    Latencies reject_lat;
    int rejected = 0;
    for (int i = 0; i < overload_attempts; ++i) {
      if (i % 16 == 0) refresh_budgets();
      serve::WireMessage extra;
      extra.set("op", "create");
      extra.set("id", "overflow" + std::to_string(i));
      extra.set("cells", cli.get_int("cells"));
      serve::WireMessage r;
      reject_lat.ms.push_back(timed_ms([&] { r = client.request(extra); }));
      if (!r.get_bool("ok", true) &&
          r.get_string("code") == "overloaded") {
        ++rejected;
      }
      overload_step_lat.ms.push_back(timed_ms([&] { step_session(i, 1); }));
    }
    const bool all_rejected = rejected == overload_attempts;
    const double baseline_p99 = step_lat.p(99.0);
    const double overloaded_p99 = overload_step_lat.p(99.0);
    const bool bounded = overloaded_p99 <= 2.0 * baseline_p99;
    report.add_result(
        {{"case", obs::JsonValue("overload_reject")},
         {"ops", obs::JsonValue(static_cast<std::int64_t>(overload_attempts))},
         {"rejected", obs::JsonValue(rejected)},
         {"p50_ms", obs::JsonValue(reject_lat.p(50.0))},
         {"p95_ms", obs::JsonValue(reject_lat.p(95.0))},
         {"p99_ms", obs::JsonValue(reject_lat.p(99.0))},
         {"feasible", obs::JsonValue(all_rejected)}});
    report.add_result(
        {{"case", obs::JsonValue("step_under_overload")},
         {"ops", obs::JsonValue(static_cast<std::int64_t>(
              overload_step_lat.ms.size()))},
         {"p50_ms", obs::JsonValue(overload_step_lat.p(50.0))},
         {"p95_ms", obs::JsonValue(overload_step_lat.p(95.0))},
         {"p99_ms", obs::JsonValue(overloaded_p99)},
         {"baseline_p99_ms", obs::JsonValue(baseline_p99)},
         {"p99_ratio", obs::JsonValue(baseline_p99 > 0.0
                                          ? overloaded_p99 / baseline_p99
                                          : 0.0)},
         {"feasible", obs::JsonValue(bounded)}});
    report.set_context("overload_all_rejected", all_rejected);
    report.set_context("overload_p99_ratio",
                       baseline_p99 > 0.0 ? overloaded_p99 / baseline_p99
                                          : 0.0);

    client.request_op("drain");
    server.wait();

    if (!cli.get("metrics-out").empty()) {
      obs::StepMetricsWriter writer(cli.get("metrics-out"));
      writer.write_summary(0, registry);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_serve_load: %s\n", e.what());
    return 1;
  }

  std::printf("bench_serve_load: %zu result rows\n", report.results());
  if (!cli.get("out").empty() && !report.write(cli.get("out"))) {
    std::fprintf(stderr, "bench_serve_load: cannot write %s\n",
                 cli.get("out").c_str());
    return 1;
  }
  return 0;
}
