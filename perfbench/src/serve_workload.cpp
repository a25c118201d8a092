#include "serve_workload.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "run/run_dir.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace sdcmd;
using serve::WireMessage;

namespace {

constexpr int kSessions = 4;
constexpr int kCells = 10;  // 2,000 atoms per session
constexpr int kAtomsPerSession = 2 * kCells * kCells * kCells;
constexpr int kWorkers = 2;
/// Steps per batch request: one default scheduler quantum.
constexpr long kBatchSteps = 25;
/// Exact-count self-test budget per session: two quanta and one cadence
/// checkpoint (default checkpoint_every = 50).
constexpr long kProbeSteps = 50;
/// Closed-loop rounds between two suspend/resume cycles.
constexpr int kSuspendEvery = 4;
/// Every fourth poll is a snapshot instead of a status.
constexpr int kSnapshotEvery = 4;
/// Fleets of the exact-count self-test: the run's seed, another seed, the
/// run's seed again. The last one goes on to the timed phase.
constexpr int kProbeFleets = 3;
/// Segments of the untraced closed loop. Between two, with every session
/// idle, one more fleet is set up and stopped beside the running one, so
/// set-up samples spread over the whole run. A set-up takes either ~50 or
/// ~75 ms, depending on how its file writes meet the disk, so the median
/// needs many samples to sit still.
constexpr int kSegments = 16;
constexpr int kCheckpointProbes = 10;
/// Pause the client takes between a poll's answer and its next poll.
/// Without it the client would spin on the same two CPUs as the workers
/// it waits for.
constexpr std::chrono::milliseconds kPollInterval{1};
constexpr double kContinuityTolerance = 1e-8;
constexpr double kMiB = 1024.0 * 1024.0;
/// A batch of 25 steps of 2,000 atoms takes tens of milliseconds; one that
/// has not finished after this long is a stuck session.
constexpr double kBatchDeadline = 30.0;
std::string session_id(int i) {
  std::string id = std::to_string(i);
  id.insert(id.begin(), 'f');
  return id;
}

/// Server + client + the bookkeeping every op goes through.
class Fleet {
 public:
  Fleet(const std::string& dir, Result& r)
      : dir_(dir), result_(r) {
    fs::create_directories(dir);
    serve::ServerConfig cfg;
    cfg.socket_path = dir + "/s.sock";
    // sockaddr_un holds ~107 bytes; run.py passes a short relative root.
    if (cfg.socket_path.size() > 100) {
      throw Error("socket path too long: " + cfg.socket_path);
    }
    cfg.root = dir + "/sessions";
    cfg.max_sessions = kSessions;
    cfg.workers = kWorkers;
    cfg.registry = &registry_;
    server_ = std::make_unique<serve::SessionServer>(cfg);
    server_->start();
    serve::ClientConfig cc;
    cc.socket_path = cfg.socket_path;
    client_ = std::make_unique<serve::ServeClient>(cc);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// One op round trip; a non-ok answer counts as a failed operation.
  WireMessage op(const WireMessage& m, const char* label,
                 std::vector<double>* ms = nullptr) {
    const double t0 = now();
    WireMessage resp = client_->request(m);
    const double t1 = now();
    account(resp, label, t0, t1, ms);
    return resp;
  }

  WireMessage snapshot(const std::string& id, std::vector<double>* ms) {
    const double t0 = now();
    WireMessage resp = client_->snapshot(id, frame_);
    const double t1 = now();
    account(resp, "snapshot", t0, t1, ms);
    return resp;
  }

  WireMessage simple(const char* op, const std::string& id,
                     std::vector<double>* ms = nullptr) {
    WireMessage m;
    m.set("op", op);
    m.set("id", id);
    return this->op(m, op, ms);
  }

  /// Give idle session `i` a budget of `steps`; returns the step at which
  /// it is done. The step op's own answer cannot tell: it reads the step
  /// after the op, by which time a worker may already have run a quantum.
  long request_steps(int i, long steps, std::vector<double>* ms) {
    WireMessage m;
    m.set("op", "step");
    m.set("id", session_id(i));
    m.set("steps", steps);
    op(m, "step", ms);
    idle_step_[i] += steps;
    return idle_step_[i];
  }

  void set_idle_step(int i, long step) { idle_step_[i] = step; }

  /// Record a failed operation the server did not report itself.
  void fail(const std::string& why) {
    ++result_.attempted;
    ++result_.failed;
    if (first_error_.empty()) first_error_ = why;
  }

  void create_all(std::uint64_t seed, std::vector<double>* ms) {
    for (int i = 0; i < kSessions; ++i) {
      WireMessage m;
      m.set("op", "create");
      m.set("id", session_id(i));
      m.set("cells", kCells);
      m.set("seed", static_cast<std::int64_t>(
                        (seed * kSessions + static_cast<std::uint64_t>(i)) &
                        0x3fffffffffffffffull));
      op(m, "create", ms);
    }
  }

  /// Checkpoint ring files of session `i`, sorted.
  std::vector<std::string> ring_files(int i) const {
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& e :
         fs::directory_iterator(dir_ + "/sessions/" + session_id(i), ec)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("ckpt_", 0) == 0 && e.path().extension() == ".chk") {
        out.push_back(name);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  double registry_value(const std::string& name) {
    for (const auto& s : registry_.totals()) {
      if (s.name == name) return s.value;
    }
    return 0.0;
  }

  void set_recorder(SpanRecorder* rec) { rec_ = rec; }
  const std::string& dir() const { return dir_; }
  /// The first non-ok answer, serialized ("" when every op succeeded).
  const std::string& first_error() const { return first_error_; }
  /// Stop the server without draining (sessions keep their on-disk state).
  void stop() {
    server_->stop();
    server_->wait();
  }

 private:
  void account(const WireMessage& resp, const char* label, double t0,
               double t1, std::vector<double>* ms) {
    ++result_.attempted;
    if (!resp.get_bool("ok", false)) {
      ++result_.failed;
      if (first_error_.empty()) first_error_ = resp.serialize();
    }
    if (ms != nullptr) ms->push_back((t1 - t0) * 1e3);
    if (rec_ != nullptr) rec_->record(Span::ServeOp, t0, t1, label);
  }

  std::string dir_;
  Result& result_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<serve::SessionServer> server_;
  std::unique_ptr<serve::ServeClient> client_;
  SpanRecorder* rec_ = nullptr;
  std::vector<double> frame_;
  std::string first_error_;
  long idle_step_[kSessions] = {};
};

/// Latencies of one closed-loop phase, accumulated over its segments.
struct Loop {
  std::vector<double> batch_ms;
  std::vector<double> control_ms;  ///< every status/snapshot poll
  std::vector<double> status_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> step_op_ms;
  std::vector<double> suspend_ms;
  std::vector<double> resume_ms;
  double worst_continuity = 0.0;
  long steps = 0;
  long batches = 0;
  long rounds = 0;
  long new_checkpoints = 0;
  double wall = 0.0;  ///< closed-loop time only
};

/// Poll session `i` until its step reaches `target`, one control op every
/// kPollInterval. A batch still unfinished after kBatchDeadline counts as
/// a failed operation.
void wait_for(Fleet& fleet, int i, long target, Loop& loop, long& polls) {
  const double deadline = now() + kBatchDeadline;
  for (;;) {
    const bool snap = ++polls % kSnapshotEvery == 0;
    const WireMessage r =
        snap ? fleet.snapshot(session_id(i), &loop.snapshot_ms)
             : fleet.simple("status", session_id(i), &loop.status_ms);
    loop.control_ms.push_back(snap ? loop.snapshot_ms.back()
                                   : loop.status_ms.back());
    if (!r.get_bool("ok", false)) return;
    if (r.get_int("step", 0) >= target) return;
    if (now() > deadline) {
      fleet.fail("batch of " + session_id(i) + " stuck below step " +
                 std::to_string(target));
      return;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
}

/// Suspend then resume session `i`, proving continuity.
void cycle(Fleet& fleet, int i, Loop& loop) {
  fleet.simple("suspend", session_id(i), &loop.suspend_ms);
  const WireMessage r = fleet.simple("resume", session_id(i), &loop.resume_ms);
  fleet.set_idle_step(i, r.get_int("step", 0));
  const double rel = r.get_double("continuity_rel", 1.0);
  loop.worst_continuity =
      std::max(loop.worst_continuity, rel < 0.0 ? 1.0 : rel);
}

/// The closed loop for `seconds`, appending to `loop`: a batch per
/// session, poll each to completion, and every kSuspendEvery rounds
/// suspend/resume one session.
void closed_loop(Fleet& fleet, double seconds, bool watch_ring, Loop& loop) {
  long polls = 0;
  std::vector<std::set<std::string>> seen(kSessions);
  if (watch_ring) {
    for (int i = 0; i < kSessions; ++i) {
      for (const auto& f : fleet.ring_files(i)) seen[i].insert(f);
    }
  }
  const auto watch = [&](int i) {
    if (!watch_ring) return;
    for (const auto& f : fleet.ring_files(i)) {
      if (seen[i].insert(f).second) ++loop.new_checkpoints;
    }
  };
  const double start = now();
  double end = start;
  do {
    double t_req[kSessions];
    long target[kSessions];
    for (int i = 0; i < kSessions; ++i) {
      t_req[i] = now();
      target[i] = fleet.request_steps(i, kBatchSteps, &loop.step_op_ms);
    }
    for (int i = 0; i < kSessions; ++i) {
      wait_for(fleet, i, target[i], loop, polls);
      loop.batch_ms.push_back((now() - t_req[i]) * 1e3);
      loop.steps += kBatchSteps;
      ++loop.batches;
      watch(i);
    }
    ++loop.rounds;
    if (loop.rounds % kSuspendEvery == 0) {
      const int i = static_cast<int>((loop.rounds / kSuspendEvery) % kSessions);
      cycle(fleet, i, loop);
      watch(i);
    }
    end = now();
  } while (end - start < seconds);
  loop.wall += end - start;
}

/// Determinism witness of one fleet after the probe budget. The probe's
/// suspend/resume continuity is folded into `worst_continuity`.
std::string probe_counts(Fleet& fleet, double& worst_continuity) {
  Loop scratch;
  long polls = 0;
  long target[kSessions];
  for (int i = 0; i < kSessions; ++i) {
    target[i] = fleet.request_steps(i, kProbeSteps, nullptr);
  }
  for (int i = 0; i < kSessions; ++i) wait_for(fleet, i, target[i], scratch, polls);
  cycle(fleet, 0, scratch);
  std::ostringstream o;
  for (int i = 0; i < kSessions; ++i) {
    const WireMessage s = fleet.simple("status", session_id(i));
    o << session_id(i) << ": step=" << s.get_int("step", -1)
      << " quanta=" << s.get_int("quanta", -1)
      << " steps_run=" << s.get_int("steps_run", -1) << " energy_bits="
      << std::hex
      << std::bit_cast<std::uint64_t>(s.get_double("total_energy", 0.0))
      << std::dec << " ring=";
    for (const auto& f : fleet.ring_files(i)) o << f << ',';
    o << "; ";
  }
  worst_continuity = std::max(worst_continuity, scratch.worst_continuity);
  return o.str();
}

double file_mb(const std::string& path) {
  std::error_code ec;
  const auto bytes = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / kMiB;
}

/// Median commit time of a session's newest ring generation, loaded from
/// its stopped session directory and committed again through RunDir into
/// `probe_dir`: the path every session's supervisor takes (the server
/// exposes no run.* metrics of its own). Also returns the committed file's
/// size.
double checkpoint_probe_ms(const std::string& session_dir,
                           const std::string& probe_dir, double& file_mib) {
  std::optional<run::ResumePoint> point =
      run::RunDir(session_dir, 3).try_resume_provable();
  if (!point) throw Error("no provable ring generation in " + session_dir);
  run::RunDir ring(probe_dir, 3);
  run::RunState state = point->state;
  std::vector<double> ms;
  for (int k = 0; k < kCheckpointProbes; ++k) {
    // A later step each time, so the ring rotates and prunes as a
    // session's does at its checkpoint cadence.
    state.step += 50;
    const double t0 = now();
    ring.commit(point->checkpoint.system, state);
    ms.push_back((now() - t0) * 1e3);
  }
  const std::vector<run::RingEntry> entries = ring.scan_ring();
  file_mib = entries.empty() ? 0.0 : file_mb(ring.file_path(entries.front().file));
  return sdcmd::median(ms);
}

/// Stop `fleet`'s server without draining and remove its directory,
/// keeping its first non-ok answer in `error` (when `error` is empty).
void discard(std::unique_ptr<Fleet>& fleet, std::string& error) {
  if (error.empty()) error = fleet->first_error();
  fleet->stop();
  const std::string dir = fleet->dir();
  fleet.reset();
  remove_tree(dir);
}

}  // namespace

void run_serve(const Options& opt, Result& r) {
  // The exact-count self-test: kProbeFleets fresh servers, each under its
  // own root, running the run's seed except the second. Every set-up but
  // the first, which pays the process's cold start, is a set-up sample.
  std::vector<double> setup_s;
  std::vector<double> create_ms;
  std::string counts[kProbeFleets];
  std::string error;  // first non-ok answer of a discarded fleet
  double probe_continuity = 0.0;
  std::unique_ptr<Fleet> fleet;
  for (int k = 0; k < kProbeFleets; ++k) {
    if (fleet) discard(fleet, error);
    const double t0 = now();
    fleet = std::make_unique<Fleet>(opt.scratch + "/fleet" + std::to_string(k), r);
    fleet->create_all(sample_seed(opt.seed, k), &create_ms);
    if (k > 0) setup_s.push_back(now() - t0);
    counts[k] = probe_counts(*fleet, probe_continuity);
  }
  bool repeat = true;
  for (int k = 2; k < kProbeFleets; ++k) repeat = repeat && counts[k] == counts[0];
  r.gate("counts.repeat", repeat,
         counts[0] + " | " + counts[kProbeFleets - 1]);
  r.gate("counts.seed_sensitive", counts[0] != counts[1],
         counts[0] + " | " + counts[1]);
  r.note("exact_counts", counts[0]);

  // Untraced closed loop (the whole run, or its first half when traced).
  Loop loop;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  for (int k = 0; k < kSegments; ++k) {
    if (k > 0) {
      const double t0 = now();
      auto extra = std::make_unique<Fleet>(
          opt.scratch + "/setup" + std::to_string(k), r);
      extra->create_all(opt.seed, &create_ms);
      setup_s.push_back(now() - t0);
      discard(extra, error);
    }
    closed_loop(*fleet, untraced_s / kSegments, false, loop);
  }
  loop.worst_continuity = std::max(loop.worst_continuity, probe_continuity);
  const double rate = static_cast<double>(kAtomsPerSession) * loop.steps /
                      std::max(loop.wall, 1e-9);

  SpanRecorder rec;
  if (opt.trace) {
    // Same fleet, client-side spans on: the gap in throughput between the
    // two halves is the tracing overhead.
    fleet->set_recorder(&rec);
    const double q0 = fleet->registry_value("serve.quanta");
    Loop traced;
    closed_loop(*fleet, opt.seconds / 2, true, traced);
    const double q1 = fleet->registry_value("serve.quanta");
    const double traced_rate = static_cast<double>(kAtomsPerSession) *
                               traced.steps / std::max(traced.wall, 1e-9);
    r.metric("serve.status_ms_p50", pct(traced.status_ms, 50.0), "ms");
    r.metric("serve.control_ms_p99", pct(traced.control_ms, 99.0), "ms");
    r.metric("serve.step_op_ms_p99", pct(traced.step_op_ms, 99.0), "ms");
    r.metric("serve.snapshot_ms_p50", pct(traced.snapshot_ms, 50.0), "ms");
    r.metric("serve.create_ms_p50", pct(create_ms, 50.0), "ms");
    r.metric("serve.suspend_ms_p50", pct(traced.suspend_ms, 50.0), "ms");
    r.metric("serve.resume_ms_p50", pct(traced.resume_ms, 50.0), "ms");
    r.metric("serve.quanta_per_batch",
             (q1 - q0) / std::max(1L, traced.batches), "count");
    r.metric("run.checkpoints_per_kstep",
             1e3 * traced.new_checkpoints /
                 static_cast<double>(std::max(1L, traced.steps)),
             "count");
    r.metric("trace.overhead_frac", 1.0 - traced_rate / rate, "ratio");
    r.note("traced_batches", static_cast<double>(traced.batches));
    loop.worst_continuity = std::max(loop.worst_continuity,
                                     traced.worst_continuity);
    if (!opt.trace_out.empty() && !rec.write_chrome_trace(opt.trace_out)) {
      r.note("trace_write_error", opt.trace_out);
    }
  }

  if (error.empty()) error = fleet->first_error();
  r.gate("ops.all_ok", error.empty(), error);
  r.gate("resume.continuity", loop.worst_continuity <= kContinuityTolerance,
         "worst rel=" + short_num(loop.worst_continuity));
  const double quarantines = fleet->registry_value("serve.quarantines");
  r.gate("health.no_quarantine", quarantines == 0.0,
         "quarantines=" + std::to_string(quarantines));
  if (opt.trace) {
    r.metric("serve.op_errors", fleet->registry_value("serve.op_errors"),
             "count");
  }
  // Graceful end: drain checkpoints and suspends every session.
  WireMessage drain;
  drain.set("op", "drain");
  fleet->op(drain, "drain");
  fleet->stop();
  if (opt.trace) {
    double mib = 0.0;
    r.metric("run.checkpoint_ms",
             checkpoint_probe_ms(fleet->dir() + "/sessions/" + session_id(0),
                                 opt.scratch + "/checkpoint_probe", mib),
             "ms");
    r.metric("run.checkpoint_mb", mib, "MiB");
  }
  fleet.reset();

  if (!opt.trace) {
    r.metric("setup_s", sdcmd::median(setup_s), "s");
    r.metric("atom_steps_per_s", rate, "1/s");
    latency_metrics(r, "advance_ms", loop.batch_ms);
  }
  r.note("setup_samples_s", join(setup_s));
  r.note("resume_samples", static_cast<double>(loop.resume_ms.size()));
  r.note("resume_ms_p50", pct(loop.resume_ms, 50.0));
  r.note("timed_batches", static_cast<double>(loop.batches));
  r.note("timed_wall_s", loop.wall);
}

}  // namespace perfbench
