#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/threads.hpp"
#include "common/timer.hpp"

namespace fs = std::filesystem;

namespace sdcmd::serve {

volatile std::sig_atomic_t SessionServer::drain_signal_ = 0;

namespace {

/// Session ids become directory names: keep them filesystem-safe and flat.
bool valid_session_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) return false;
  }
  return id != "." && id != "..";
}

}  // namespace

SessionServer::SessionServer(ServerConfig config)
    : config_(std::move(config)) {
  SDCMD_REQUIRE(!config_.socket_path.empty(), "socket path is required");
  SDCMD_REQUIRE(!config_.root.empty(), "sessions root is required");
  SDCMD_REQUIRE(config_.max_sessions >= 1, "session cap must be >= 1");
  SDCMD_REQUIRE(config_.workers >= 1, "worker pool must be >= 1");
  SDCMD_REQUIRE(config_.io_timeout_s > 0.0, "io timeout must be positive");
  if (config_.registry != nullptr) {
    obs::MetricsRegistry& r = *config_.registry;
    handles_.connections = r.counter("serve.connections");
    handles_.disconnects_timeout = r.counter("serve.disconnects_timeout");
    handles_.accept_faults = r.counter("serve.accept_faults");
    handles_.ops = r.counter("serve.ops");
    handles_.op_errors = r.counter("serve.op_errors");
    handles_.rejected_overload = r.counter("serve.rejected_overload");
    handles_.sessions_created = r.counter("serve.sessions_created");
    handles_.sessions_resumed = r.counter("serve.sessions_resumed");
    handles_.resume_failures = r.counter("serve.resume_failures");
    handles_.quanta = r.counter("serve.quanta");
    handles_.steps = r.counter("serve.steps");
    handles_.watchdog_trips = r.counter("serve.watchdog_trips");
    handles_.quarantines = r.counter("serve.quarantines");
    handles_.suspends = r.counter("serve.suspends");
    handles_.snapshots = r.counter("serve.snapshots");
    handles_.sessions_active = r.gauge("serve.sessions_active");
    handles_.sessions_suspended = r.gauge("serve.sessions_suspended");
    handles_.sessions_quarantined = r.gauge("serve.sessions_quarantined");
    handles_.drain_seconds = r.gauge("serve.drain_seconds");
  }
}

SessionServer::~SessionServer() {
  stop();
  wait();
}

void SessionServer::metric_add(std::size_t handle, double delta) {
  if (config_.registry == nullptr) return;
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  config_.registry->add(handle, delta);
}

void SessionServer::metric_set(std::size_t handle, double value) {
  if (config_.registry == nullptr) return;
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  config_.registry->set(handle, value);
}

void SessionServer::refresh_session_gauges() {
  int active = 0;
  int suspended = 0;
  int quarantined = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto& [id, session] : sessions_) {
      switch (session->state()) {
        case SessionState::Running:
        case SessionState::Paused:
          ++active;
          break;
        case SessionState::Suspended:
          ++suspended;
          break;
        case SessionState::Quarantined:
          ++quarantined;
          break;
      }
    }
  }
  metric_set(handles_.sessions_active, active);
  metric_set(handles_.sessions_suspended, suspended);
  metric_set(handles_.sessions_quarantined, quarantined);
}

std::size_t SessionServer::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::shared_ptr<Session> SessionServer::find_session(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

void SessionServer::resume_fleet() {
  if (!fs::exists(config_.root)) return;
  for (const auto& entry : fs::directory_iterator(config_.root)) {
    if (!entry.is_directory()) continue;
    const fs::path descriptor = entry.path() / "session.json";
    if (!fs::exists(descriptor)) continue;
    try {
      auto session = std::shared_ptr<Session>(
          Session::open(entry.path().string(), config_.session));
      const std::string id = session->id();
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions_[id] = std::move(session);
      ++resumed_;
      metric_add(handles_.sessions_resumed);
    } catch (const Error& e) {
      // One corrupt session must not block the rest of the fleet: skip it,
      // count it, keep its directory for post-mortem.
      ++resume_failures_;
      metric_add(handles_.resume_failures);
      SDCMD_ERROR("serve: cannot resume session dir '"
                  << entry.path().string() << "': " << e.what());
    }
  }
  refresh_session_gauges();
  if (resumed_ > 0 || resume_failures_ > 0) {
    SDCMD_INFO("serve: fleet auto-resume: " << resumed_ << " resumed, "
                                            << resume_failures_
                                            << " failed");
  }
}

void SessionServer::start() {
  SDCMD_REQUIRE(!running_.load(), "server already started");
  drain_signal_ = 0;
  drain_requested_.store(false);
  stop_requested_.store(false);
  fs::create_directories(config_.root);
  resume_fleet();
  listen_fd_ = listen_unix(config_.socket_path);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_running_ = true;
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  running_.store(true);
  io_thread_ = std::thread([this] { serve_loop(); });
}

SessionServer::Outcome SessionServer::wait() {
  if (io_thread_.joinable()) io_thread_.join();
  return outcome_;
}

void SessionServer::stop() { stop_requested_.store(true); }

void SessionServer::schedule(const std::shared_ptr<Session>& session) {
  // The flag is the dedup: a session is queued (or held by a worker) at
  // most once, so concurrent step ops cannot double-schedule it.
  if (session->scheduled.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    ready_.push_back(session);
  }
  queue_cv_.notify_one();
}

void SessionServer::worker_loop() {
  while (true) {
    std::shared_ptr<Session> session;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !workers_running_ || !ready_.empty(); });
      if (!workers_running_) return;
      session = ready_.front();
      ready_.pop_front();
    }
    const QuantumResult result = session->run_quantum();
    note_quantum(result);
    // Clear-then-recheck: a step op landing after run_quantum() released
    // the session mutex saw scheduled==true and skipped the queue, so
    // result.more is already stale here. Re-reading the live state after
    // the clear closes that lost-wakeup window — either this requeue sees
    // the new budget, or the op's own schedule() ran after the clear.
    session->scheduled.store(false);
    if (session->runnable()) schedule(session);
    if (result.quarantined) refresh_session_gauges();
  }
}

void SessionServer::note_quantum(const QuantumResult& result) {
  if (config_.registry == nullptr) return;
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  config_.registry->add(handles_.quanta);
  config_.registry->add(handles_.steps,
                        static_cast<double>(result.steps_done));
  if (result.tripped) config_.registry->add(handles_.watchdog_trips);
  if (result.quarantined) config_.registry->add(handles_.quarantines);
}

void SessionServer::drain_now() {
  const double t0 = wall_time();
  SDCMD_INFO("serve: draining: " << session_count() << " session(s)");
  // No new quanta: clear the queue (pending budgets survive on-disk as
  // part of nothing — pending is a serve-side construct; the checkpoint
  // below is the durable artifact).
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    ready_.clear();
  }
  std::vector<std::shared_ptr<Session>> fleet;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto& [id, session] : sessions_) fleet.push_back(session);
  }
  for (const auto& session : fleet) {
    // In-flight quanta finished when the workers joined; suspend is now
    // uncontended. Checkpoint every live session so restart resumes all.
    session->suspend();
    metric_add(handles_.suspends);
  }
  refresh_session_gauges();
  metric_set(handles_.drain_seconds, wall_time() - t0);
  SDCMD_INFO("serve: drain complete in " << wall_time() - t0 << " s");
}

void SessionServer::serve_loop() {
  std::vector<struct pollfd> pfds;
  while (true) {
    // Latch the process-wide signal mailbox into this instance; a client
    // `drain` op sets drain_requested_ directly and drains only us.
    if (drain_signal_ != 0) drain_requested_.store(true);
    const bool drain = drain_requested_.load();
    if (drain || stop_requested_.load()) {
      // Stop accepting and stop the workers first; their in-flight quantum
      // completes before join returns, so drain_now() suspends settled
      // sessions.
      close_fd(listen_fd_);
      listen_fd_ = -1;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        workers_running_ = false;
      }
      queue_cv_.notify_all();
      for (std::thread& w : workers_) w.join();
      workers_.clear();
      if (drain) drain_now();
      for (const auto& conn : connections_) {
        flush_outbox(*conn);  // best-effort: the drain ack, if still queued
        close_fd(conn->fd);
      }
      connections_.clear();
      ::unlink(config_.socket_path.c_str());
      outcome_ = drain ? Outcome::Drained : Outcome::Stopped;
      running_.store(false);
      return;
    }

    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : connections_) {
      // A connection owing output waits for the peer to drain before it
      // reads anything new; POLLHUP/POLLERR are reported regardless.
      const short events =
          conn->outbox.empty() ? POLLIN : static_cast<short>(POLLOUT);
      pfds.push_back({conn->fd, events, 0});
    }
    // Connections accepted below this line have no pfds entry yet: they
    // are polled (and serviced) starting next round.
    const std::size_t polled = connections_.size();
    // Short timeout: this is also the latency bound on noticing the drain
    // and stop flags.
    const int rc = ::poll(pfds.data(), pfds.size(), 50);
    if (rc < 0 && errno != EINTR) {
      SDCMD_ERROR("serve: poll failed: " << std::strerror(errno));
    }

    if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
      const int fd = accept_connection(listen_fd_);
      if (fd >= 0) {
        if (FaultInjector::instance().should_fire(faults::kServeAcceptFail)) {
          // Injected transient accept failure: drop this client unserved;
          // it reconnects with backoff and every other client is unharmed.
          metric_add(handles_.accept_faults);
          close_fd(fd);
        } else {
          auto conn = std::make_unique<Connection>(fd);
          conn->last_activity = wall_time();
          connections_.push_back(std::move(conn));
          metric_add(handles_.connections);
        }
      }
    }

    const double now = wall_time();
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = *connections_[i];
      const short revents = rc > 0 ? pfds[i + 1].revents
                                   : static_cast<short>(0);
      if ((revents & POLLOUT) != 0) {
        conn.last_activity = now;
        if (!flush_outbox(conn)) {
          conn.closing = true;
          continue;
        }
      }
      if (!conn.outbox.empty()) {
        if ((revents & (POLLHUP | POLLERR)) != 0) {
          conn.closing = true;  // peer gone: the queued bytes are dead
        } else if (conn.write_stalled_since != 0.0 &&
                   now - conn.write_stalled_since > config_.io_timeout_s) {
          // Write deadline: the peer stopped draining responses. It is
          // disconnected, never waited on — the loop stayed non-blocking
          // the whole time.
          metric_add(handles_.disconnects_timeout);
          conn.closing = true;
        }
        continue;
      }
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        conn.last_activity = now;
        if (!service_connection(conn)) conn.closing = true;
      } else if (conn.reader.line_buffered()) {
        // Lines can be left buffered when one recv carried several
        // requests; answer them without waiting for more bytes.
        if (!service_connection(conn)) conn.closing = true;
      } else if (now - conn.last_activity > config_.io_timeout_s &&
                 !conn.closing) {
        // Read deadline: the peer sent part of a request (or nothing) and
        // stalled. An idle connection is only dropped after the same
        // deadline — clients are expected to reconnect (and do, with
        // backoff).
        metric_add(handles_.disconnects_timeout);
        conn.closing = true;
      }
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& c) {
                         if (c->closing) close_fd(c->fd);
                         return c->closing;
                       }),
        connections_.end());
  }
}

bool SessionServer::service_connection(Connection& conn) {
  // One poll round = at most one recv, then answer every complete line.
  // A half-sent line never blocks the loop; it waits in the buffer.
  if (!conn.reader.line_buffered()) {
    const int n = conn.reader.fill_once();
    if (n == 0) return false;  // EOF / peer reset
    if (n < 0) return true;    // spurious wakeup: try next round
  }
  std::string line;
  while (conn.reader.line_buffered()) {
    conn.reader.next_line(line, 0.0);
    if (line.empty()) continue;
    WireMessage response;
    try {
      const WireMessage request = WireMessage::parse(line);
      metric_add(handles_.ops);
      response = handle_request(request, conn);
    } catch (const ParseError& e) {
      response = make_error("bad_request", e.what());
    } catch (const Error& e) {
      response = make_error("conflict", e.what());
    }
    if (!response.find("ok")->as_bool()) metric_add(handles_.op_errors);
    if (!send_response(conn, response)) return false;
  }
  return true;
}

bool SessionServer::send_response(Connection& conn,
                                  const WireMessage& response) {
  if (FaultInjector::instance().should_fire(faults::kServeSlowClient)) {
    // Injected write-deadline expiry: treat the client as one that stopped
    // draining its socket and cut it loose.
    conn.pending_frame.clear();
    conn.outbox.clear();
    metric_add(handles_.disconnects_timeout);
    return false;
  }
  conn.outbox += response.serialize();
  conn.outbox += '\n';
  if (!conn.pending_frame.empty()) {
    conn.outbox += conn.pending_frame;
    conn.pending_frame.clear();
  }
  // Opportunistic flush: the common case (a reading client, small
  // response) completes here in one send; anything left drains on
  // POLLOUT from the poll loop.
  return flush_outbox(conn);
}

bool SessionServer::flush_outbox(Connection& conn) {
  std::size_t sent = 0;
  while (sent < conn.outbox.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbox.data() + sent, conn.outbox.size() - sent,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      // Any progress restarts the stall clock: the deadline measures a
      // peer that *stopped* draining, not one draining a big frame slowly.
      conn.write_stalled_since = 0.0;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: keep the remainder queued and let the write
      // deadline in the poll loop decide whether the peer ever drains.
      if (conn.write_stalled_since == 0.0) {
        conn.write_stalled_since = wall_time();
      }
      conn.outbox.erase(0, sent);
      return true;
    }
    return false;  // EPIPE / ECONNRESET: the peer is gone
  }
  conn.outbox.clear();
  conn.write_stalled_since = 0.0;
  return true;
}

WireMessage SessionServer::handle_request(const WireMessage& request,
                                          Connection& conn) {
  const std::string op = request.get_string("op");
  try {
    if (op == "ping") {
      WireMessage r = make_ok();
      r.set("sessions", static_cast<std::int64_t>(session_count()));
      r.set("max_sessions", config_.max_sessions);
      return r;
    }
    if (op == "create") return op_create(request);
    if (op == "step") return op_step(request);
    if (op == "snapshot") return op_snapshot(request, conn);
    if (op == "status") return op_status(request);
    if (op == "list") return op_list();
    if (op == "metrics") return op_metrics();
    if (op == "drain") {
      drain();
      return make_ok();
    }

    // Remaining ops all address one session.
    const std::string id = request.require_string("id");
    const std::shared_ptr<Session> session = find_session(id);
    if (session == nullptr) {
      return make_error("not_found", "no session '" + id + "'");
    }
    if (op == "pause") {
      session->pause();
      WireMessage r = make_ok();
      r.set("id", id);
      r.set("step", session->status().step);
      return r;
    }
    if (op == "steer") {
      std::optional<double> dt_fs;
      std::optional<double> temp;
      if (request.has("dt_fs")) dt_fs = request.get_double("dt_fs", 0.0);
      if (request.has("temp")) temp = request.get_double("temp", 0.0);
      session->steer(dt_fs, temp, request.get_double("tau_fs", 100.0));
      WireMessage r = make_ok();
      r.set("id", id);
      return r;
    }
    if (op == "suspend") {
      session->suspend();
      metric_add(handles_.suspends);
      refresh_session_gauges();
      WireMessage r = make_ok();
      r.set("id", id);
      r.set("step", session->status().step);
      return r;
    }
    if (op == "resume") {
      session->resume();
      refresh_session_gauges();
      const SessionStatus status = session->status();
      WireMessage r = make_ok();
      r.set("id", id);
      r.set("step", status.step);
      r.set("continuity_rel", status.continuity_rel);
      return r;
    }
    if (op == "destroy") {
      // Final checkpoint, drop from the fleet; the directory stays on disk
      // as the archive (a future create with the same id would resume it —
      // callers wanting a fresh start pick a fresh id).
      session->suspend();
      metric_add(handles_.suspends);
      {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        sessions_.erase(id);
      }
      refresh_session_gauges();
      WireMessage r = make_ok();
      r.set("id", id);
      return r;
    }
    return make_error("bad_request", "unknown op '" + op + "'");
  } catch (const ParseError& e) {
    return make_error("bad_request", e.what());
  } catch (const Error& e) {
    return make_error("conflict", e.what());
  } catch (const std::exception& e) {
    return make_error("internal", e.what());
  }
}

WireMessage SessionServer::op_create(const WireMessage& request) {
  if (drain_requested_.load() || drain_signal_ != 0) {
    return make_error("draining", "server is draining; retry after restart");
  }
  SessionSpec spec;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    // Admission control: a hard cap with explicit rejection. The server
    // never queues creates — back-pressure is the client's problem, and an
    // overloaded daemon says so instead of degrading every session.
    if (sessions_.size() >= static_cast<std::size_t>(config_.max_sessions)) {
      metric_add(handles_.rejected_overload);
      return make_error("overloaded",
                        "session cap reached (" +
                            std::to_string(config_.max_sessions) +
                            "); retry later or destroy a session");
    }
    spec.id = request.get_string("id");
    if (spec.id.empty()) {
      spec.id = "s" + std::to_string(next_session_number_++);
    }
    if (!valid_session_id(spec.id)) {
      return make_error("bad_request",
                        "invalid session id '" + spec.id + "'");
    }
    if (sessions_.count(spec.id) != 0) {
      return make_error("exists", "session '" + spec.id + "' already exists");
    }
  }
  spec.read(request, "strategy");
  // A bad spec is the client's error (bad_request), refused before
  // anything reaches the disk. A new session gets no more threads than
  // the host has.
  spec.validate(hardware_threads());

  const std::string dir = (fs::path(config_.root) / spec.id).string();
  auto session = std::shared_ptr<Session>(
      Session::create(spec, dir, config_.session));
  const SessionStatus status = session->status();
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    // The cap was checked above; a concurrent create can only come from
    // this same I/O thread, so no re-check is needed — but ids can race
    // with resume, so guard the insert.
    if (sessions_.count(spec.id) != 0) {
      return make_error("exists", "session '" + spec.id + "' already exists");
    }
    sessions_[spec.id] = std::move(session);
  }
  metric_add(handles_.sessions_created);
  refresh_session_gauges();
  WireMessage r = make_ok();
  r.set("id", spec.id);
  r.set("step", status.step);
  r.set("natoms", static_cast<std::int64_t>(2L * spec.cells * spec.cells *
                                            spec.cells));
  return r;
}

WireMessage SessionServer::op_step(const WireMessage& request) {
  const std::string id = request.require_string("id");
  const std::shared_ptr<Session> session = find_session(id);
  if (session == nullptr) {
    return make_error("not_found", "no session '" + id + "'");
  }
  const std::int64_t steps = request.require_int("steps");
  if (steps <= 0) {
    return make_error("bad_request", "steps must be positive");
  }
  // Step and pending come from the enqueue itself: reading status() after
  // schedule() would wait for the quantum a worker may already be running
  // and report a step past the one the budget was added at.
  const StepBudget budget = session->enqueue_steps(static_cast<long>(steps));
  schedule(session);
  WireMessage r = make_ok();
  r.set("id", id);
  r.set("step", budget.step);
  r.set("pending", budget.pending);
  return r;
}

WireMessage SessionServer::op_snapshot(const WireMessage& request,
                                       Connection& conn) {
  const std::string id = request.require_string("id");
  const std::shared_ptr<Session> session = find_session(id);
  if (session == nullptr) {
    return make_error("not_found", "no session '" + id + "'");
  }
  long step = 0;
  std::vector<double> xyz;
  if (!session->snapshot(step, xyz)) {
    return make_error("conflict",
                      "session '" + id + "' holds no live state (" +
                          to_string(session->state()) + "); resume first");
  }
  metric_add(handles_.snapshots);
  const std::size_t frame_bytes = xyz.size() * sizeof(double);
  conn.pending_frame.assign(reinterpret_cast<const char*>(xyz.data()),
                            frame_bytes);
  WireMessage r = make_ok();
  r.set("id", id);
  r.set("step", step);
  r.set("natoms", static_cast<std::int64_t>(xyz.size() / 3));
  r.set("frame_bytes", static_cast<std::int64_t>(frame_bytes));
  return r;
}

WireMessage SessionServer::op_status(const WireMessage& request) {
  const std::string id = request.require_string("id");
  const std::shared_ptr<Session> session = find_session(id);
  if (session == nullptr) {
    return make_error("not_found", "no session '" + id + "'");
  }
  const SessionStatus s = session->status();
  WireMessage r = make_ok();
  r.set("id", id);
  r.set("state", to_string(s.state));
  r.set("step", s.step);
  r.set("pending", s.pending);
  r.set("total_energy", s.total_energy);
  r.set("continuity_rel", s.continuity_rel);
  r.set("resumed", s.resumed);
  r.set("quanta", s.quanta);
  r.set("steps_run", s.steps_run);
  r.set("watchdog_trips", s.watchdog_trips);
  r.set("quarantines", s.quarantines);
  r.set("dt_fs", s.dt_fs);
  r.set("strategy", s.strategy);
  return r;
}

WireMessage SessionServer::op_list() {
  WireMessage r = make_ok();
  std::string ids;
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (const auto& [id, session] : sessions_) {
      if (!ids.empty()) ids += ',';
      ids += id;
      ++count;
    }
  }
  r.set("sessions", ids);
  r.set("count", static_cast<std::int64_t>(count));
  return r;
}

WireMessage SessionServer::op_metrics() {
  WireMessage r = make_ok();
  if (config_.registry != nullptr) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    for (const auto& sample : config_.registry->totals()) {
      if (sample.name.rfind("serve.", 0) != 0) continue;
      r.set(sample.name, sample.value);
    }
  }
  return r;
}

}  // namespace sdcmd::serve
