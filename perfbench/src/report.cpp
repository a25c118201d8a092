#include "report.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

std::string short_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", v);
  return buf;
}

void Result::gate(const std::string& name, bool ok, const std::string& why) {
  gates.push_back({name, ok, why});
  ++attempted;
  if (!ok) ++failed;
}

void Result::note(const std::string& key, double value) {
  detail.emplace_back(key, num(value));
}

bool Result::correct() const {
  for (const Gate& g : gates) {
    if (!g.ok) return false;
  }
  return failed == 0;
}

void Result::print() const {
  std::ostringstream d;
  d << "{\"detail\": {";
  bool first = true;
  for (const auto& [k, v] : detail) {
    d << (first ? "" : ", ") << '"' << json_escape(k) << "\": \""
      << json_escape(v) << '"';
    first = false;
  }
  d << "}, \"gates\": [";
  first = true;
  for (const Gate& g : gates) {
    d << (first ? "" : ", ") << "{\"name\": \"" << json_escape(g.name)
      << "\", \"ok\": " << (g.ok ? "true" : "false") << ", \"detail\": \""
      << json_escape(g.detail) << "\"}";
    first = false;
  }
  d << "]}";
  std::printf("%s\n", d.str().c_str());

  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  first = true;
  for (const Metric& m : metrics) {
    o << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
      << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : sdcmd::percentile(xs, p);
}

void latency_metrics(Result& r, const std::string& name,
                     const std::vector<double>& ms, bool with_p50) {
  if (with_p50) r.metric(name + "_p50", pct(ms, 50.0), "ms");
  const double p99 = pct(ms, 99.0);
  r.metric(name + "_p99", p99, "ms");
  std::size_t beyond = 0;
  for (const double x : ms) beyond += x > p99 ? 1 : 0;
  r.note(name + "_p99_tail_samples", static_cast<double>(beyond));
  r.note(name + "_samples", static_cast<double>(ms.size()));
  r.note(name + "_p10_p50_p90_max",
         std::to_string(pct(ms, 10.0)) + " " + std::to_string(pct(ms, 50.0)) +
             " " + std::to_string(pct(ms, 90.0)) + " " +
             std::to_string(pct(ms, 100.0)));
}

std::string join(const std::vector<double>& xs) {
  std::string out;
  for (const double x : xs) out += std::to_string(x) + " ";
  return out;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

void require_empty_dir(const std::string& path) {
  std::error_code ec;
  if (!fs::is_directory(path, ec)) {
    throw sdcmd::Error("scratch root '" + path + "' is not a directory");
  }
  if (!fs::is_empty(path, ec) || ec) {
    throw sdcmd::Error("scratch root '" + path +
                       "' is not empty; refusing to reuse another run's files");
  }
}

}  // namespace perfbench
