// Run options, the result every workload returns, and the helpers that
// turn samples into the reported numbers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Fresh, empty directory for run directories, sessions and the socket.
  std::string scratch;
  /// Chrome trace written here at exit by a traced run ("" = none).
  std::string trace_out;
};

struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };

  std::vector<Metric> metrics;
  std::vector<Gate> gates;
  /// Diagnostic key/values printed on the line before the result (sample
  /// counts, exact counts, percentile tails).
  std::vector<std::pair<std::string, std::string>> detail;
  long attempted = 0;
  long failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A correctness gate: a failing gate counts as one failed operation.
  void gate(const std::string& name, bool ok, const std::string& why = "");
  void note(const std::string& key, const std::string& value) {
    detail.emplace_back(key, value);
  }
  void note(const std::string& key, double value);

  bool correct() const;
  /// The detail line followed by the result line, both single-line JSON.
  void print() const;
};

/// Seed of set-up sample `k`: the run's seed, except sample 1, which runs
/// another seed so the exact-count self-test sees a change.
inline std::uint64_t sample_seed(std::uint64_t seed, int k) {
  return k == 1 ? seed + 0x9E3779B97F4A7C15ull : seed;
}

/// `v` with three significant digits, for gate details ("1.2e-14").
std::string short_num(double v);

/// Linear-interpolated percentile of `xs` (0 <= p <= 100); 0 when empty.
double pct(const std::vector<double>& xs, double p);

/// Record `name_p99` (and `name_p50` unless `with_p50` is false), in ms,
/// plus the sample count and how many samples lie beyond the p99 (the
/// tail must hold at least ten).
void latency_metrics(Result& r, const std::string& name,
                     const std::vector<double>& ms, bool with_p50 = true);

/// Space-separated samples, for the detail line.
std::string join(const std::vector<double>& xs);

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// Remove `path` recursively; never throws.
void remove_tree(const std::string& path);

/// Require `path` to be an existing empty directory, so no run picks up
/// another run's files. Throws sdcmd::Error otherwise.
void require_empty_dir(const std::string& path);

}  // namespace perfbench
