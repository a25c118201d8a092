// Session-server stack: wire protocol round trips, session lifecycle and
// quarantine, admission control, fleet drain/resume, and the injected
// accept/slow-client faults with the client's reconnect-and-retry path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "core/strategy.hpp"
#include "core/strategy_governor.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace sdcmd::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory (wiped on entry, left behind on failure).
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("sdcmd_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Poll `pred` until it holds or ~`seconds` elapse.
template <typename Pred>
bool eventually(Pred&& pred, double seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

class ServeTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    saved_level_ = log_level();
    set_log_level(LogLevel::Error);  // quarantine/retry warnings expected
  }
  void TearDown() override {
    set_log_level(saved_level_);
    FaultInjector::instance().disarm_all();
  }
  LogLevel saved_level_ = LogLevel::Warn;
};

// --------------------------------------------------------------------- wire

TEST_F(ServeTest, WireMessageRoundTripsEveryScalarType) {
  WireMessage m;
  m.set("op", "status");
  m.set("count", static_cast<std::int64_t>(-42));
  m.set("ratio", 1.5);
  m.set("flag", true);
  m.set("none", WireValue());
  m.set("text", std::string("quote \" slash \\ newline \n tab \t"));

  const WireMessage back = WireMessage::parse(m.serialize());
  EXPECT_EQ(back.get_string("op"), "status");
  EXPECT_EQ(back.get_int("count", 0), -42);
  EXPECT_EQ(back.get_double("ratio", 0.0), 1.5);
  EXPECT_TRUE(back.get_bool("flag", false));
  ASSERT_NE(back.find("none"), nullptr);
  EXPECT_TRUE(back.find("none")->is_null());
  EXPECT_EQ(back.get_string("text"), "quote \" slash \\ newline \n tab \t");
  // Member order is preserved: responses stay diff-stable.
  EXPECT_EQ(back.members().front().first, "op");
  EXPECT_EQ(back.serialize(), m.serialize());
}

TEST_F(ServeTest, WireParseRejectsNestedContainersAndGarbage) {
  EXPECT_THROW(WireMessage::parse("{\"a\": [1, 2]}"), ParseError);
  EXPECT_THROW(WireMessage::parse("{\"a\": {\"b\": 1}}"), ParseError);
  EXPECT_THROW(WireMessage::parse("not json at all"), ParseError);
  EXPECT_THROW(WireMessage::parse("{\"a\": 1"), ParseError);
  EXPECT_THROW(WireMessage::parse(""), ParseError);
}

TEST_F(ServeTest, WireParseRejectsMalformedAndOutOfRangeNumbers) {
  // A sign anywhere but the front (or after the exponent) is an error,
  // never a silent truncation to the leading digits.
  EXPECT_THROW(WireMessage::parse("{\"a\": 1-2}"), ParseError);
  EXPECT_THROW(WireMessage::parse("{\"a\": --5}"), ParseError);
  EXPECT_THROW(WireMessage::parse("{\"a\": -}"), ParseError);
  EXPECT_THROW(WireMessage::parse("{\"a\": 1e5e5}"), ParseError);
  EXPECT_THROW(WireMessage::parse("{\"a\": 1..2}"), ParseError);
  // Out-of-range integers are rejected, not clamped to INT64_MAX/MIN.
  EXPECT_THROW(WireMessage::parse("{\"a\": 99999999999999999999}"),
               ParseError);
  EXPECT_THROW(WireMessage::parse("{\"a\": -99999999999999999999}"),
               ParseError);
  EXPECT_THROW(WireMessage::parse("{\"a\": 1e999}"), ParseError);
  // The legal shapes still parse.
  const WireMessage ok = WireMessage::parse(
      "{\"i\": -42, \"d\": 2.5e-3, \"big\": 9223372036854775807}");
  EXPECT_EQ(ok.get_int("i", 0), -42);
  EXPECT_EQ(ok.get_double("d", 0.0), 2.5e-3);
  EXPECT_EQ(ok.get_int("big", 0), INT64_MAX);
  // as_int on an int64-overflowing double throws instead of UB.
  EXPECT_THROW(WireMessage::parse("{\"a\": 1e30}").find("a")->as_int(),
               ParseError);
}

TEST_F(ServeTest, WireAccessorsCoerceNumbersAndRequireKeys) {
  WireMessage m = WireMessage::parse("{\"i\": 7, \"d\": 2.0, \"s\": \"x\"}");
  EXPECT_EQ(m.get_int("d", 0), 2);          // Double -> Int
  EXPECT_EQ(m.get_double("i", 0.0), 7.0);   // Int -> Double
  EXPECT_EQ(m.get_string("missing", "fb"), "fb");
  EXPECT_THROW(m.require_string("missing"), ParseError);
  EXPECT_THROW(m.require_int("s"), ParseError);  // type mismatch

  const WireMessage err = make_error("overloaded", "cap reached");
  EXPECT_FALSE(err.get_bool("ok", true));
  EXPECT_EQ(err.get_string("code"), "overloaded");
  EXPECT_EQ(err.get_string("error"), "cap reached");
}

// --------------------------------------------------------------------- spec

TEST_F(ServeTest, SessionSpecRoundTripsThroughJson) {
  SessionSpec spec;
  spec.id = "alpha";
  spec.cells = 5;
  spec.temp = 450.0;
  spec.seed = 777;
  spec.dt_fs = 0.5;
  spec.governed = false;
  spec.strategy_code = 3;
  spec.threads = 2;
  spec.checkpoint_every = 25;
  spec.keep = 4;

  const SessionSpec back = SessionSpec::parse(spec.to_json());
  EXPECT_EQ(back.id, "alpha");
  EXPECT_EQ(back.cells, 5);
  EXPECT_EQ(back.temp, 450.0);
  EXPECT_EQ(back.seed, 777);
  EXPECT_EQ(back.dt_fs, 0.5);
  EXPECT_FALSE(back.governed);
  EXPECT_EQ(back.strategy_code, 3);
  EXPECT_EQ(back.threads, 2);
  EXPECT_EQ(back.checkpoint_every, 25);
  EXPECT_EQ(back.keep, 4);
  EXPECT_EQ(back.config_hash(), spec.config_hash());
}

TEST_F(ServeTest, ConfigHashExcludesSteerableDt) {
  SessionSpec a;
  a.id = "x";
  SessionSpec b = a;
  b.dt_fs = a.dt_fs / 2.0;  // rollback/steer may retune dt mid-run
  EXPECT_EQ(a.config_hash(), b.config_hash());
  b.cells = a.cells + 1;  // physics-determining: must change the hash
  EXPECT_NE(a.config_hash(), b.config_hash());
}

TEST_F(ServeTest, SessionSpecParseRejectsBadValues) {
  SessionSpec spec;
  spec.id = "x";
  const std::string good = spec.to_json();
  EXPECT_THROW(
      SessionSpec::parse("{\"schema\": \"other.v1\", \"id\": \"x\"}"),
      ParseError);
  EXPECT_NO_THROW(SessionSpec::parse(good));
  EXPECT_THROW(SessionSpec::parse(
                   "{\"schema\": \"sdcmd.session.v1\", \"id\": \"x\", "
                   "\"cells\": 1}"),
               ParseError);
  EXPECT_THROW(SessionSpec::parse(
                   "{\"schema\": \"sdcmd.session.v1\", \"id\": \"x\", "
                   "\"dt_fs\": 0.0}"),
               ParseError);
  EXPECT_THROW(SessionSpec::parse(
                   "{\"schema\": \"sdcmd.session.v1\", \"id\": \"x\", "
                   "\"checkpoint_every\": 0}"),
               ParseError);
  // validate() holds the checks parse() runs, so a spec built in code is
  // refused the same way.
  const auto refused = [](auto edit) {
    SessionSpec bad;
    bad.id = "x";
    edit(bad);
    EXPECT_THROW(bad.validate(), ParseError);
  };
  refused([](SessionSpec& b) { b.cells = 2; });  // below 2 x range
  refused([](SessionSpec& b) { b.keep = 0; });
  refused([](SessionSpec& b) { b.threads = 0; });
  refused([](SessionSpec& b) { b.strategy_code = 7; });  // retired CellTask
  refused([](SessionSpec& b) { b.strategy_code = 1; });  // governed critical
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------------------------------------ session

TEST_F(ServeTest, SessionLifecycleStepsSuspendsAndResumesWithProof) {
  const std::string dir = scratch_dir("lifecycle");
  SessionSpec spec;
  spec.id = "life";
  spec.cells = 3;
  spec.checkpoint_every = 10;
  SessionPolicy policy;
  policy.quantum_steps = 10;
  std::unique_ptr<Session> session = Session::create(spec, dir, policy);

  SessionStatus status = session->status();
  EXPECT_EQ(status.state, SessionState::Paused);
  EXPECT_EQ(status.step, 0);
  EXPECT_FALSE(status.resumed);
  EXPECT_LT(status.continuity_rel, 0.0);  // fresh create: nothing proven

  const StepBudget budget = session->enqueue_steps(25);
  EXPECT_EQ(budget.step, 0);
  EXPECT_EQ(budget.pending, 25);
  EXPECT_EQ(session->state(), SessionState::Running);
  QuantumResult result;
  for (int i = 0; i < 3; ++i) result = session->run_quantum();
  EXPECT_FALSE(result.more);  // budget exhausted parks the session
  status = session->status();
  EXPECT_EQ(status.state, SessionState::Paused);
  EXPECT_EQ(status.step, 25);
  EXPECT_EQ(status.steps_run, 25);
  EXPECT_EQ(status.quanta, 3);

  long step = 0;
  std::vector<double> xyz;
  ASSERT_TRUE(session->snapshot(step, xyz));
  EXPECT_EQ(step, 25);
  EXPECT_EQ(xyz.size(), 3u * 2u * 3u * 3u * 3u);  // 2 atoms/cell * cells^3

  session->suspend();
  EXPECT_EQ(session->state(), SessionState::Suspended);
  EXPECT_FALSE(session->snapshot(step, xyz));
  EXPECT_THROW(session->enqueue_steps(1), Error);
  EXPECT_EQ(session->status().strategy, "suspended");
  EXPECT_EQ(session->status().step, 25);  // survives without a Simulation

  session->resume();
  status = session->status();
  EXPECT_EQ(status.state, SessionState::Paused);
  EXPECT_EQ(status.step, 25);
  EXPECT_TRUE(status.resumed);
  EXPECT_GE(status.continuity_rel, 0.0);
  EXPECT_LE(status.continuity_rel, 1e-8);  // the energy-continuity proof
}

TEST_F(ServeTest, SessionOpenRebuildsFromDiskAfterSuspend) {
  const std::string dir = scratch_dir("reopen");
  SessionSpec spec;
  spec.id = "re";
  spec.cells = 3;
  SessionPolicy policy;
  {
    std::unique_ptr<Session> session = Session::create(spec, dir, policy);
    session->enqueue_steps(20);
    while (session->run_quantum().more) {
    }
    session->suspend();  // final checkpoint; process "dies" here
  }
  std::unique_ptr<Session> back = Session::open(dir, policy);
  const SessionStatus status = back->status();
  EXPECT_EQ(status.step, 20);
  EXPECT_TRUE(status.resumed);
  EXPECT_GE(status.continuity_rel, 0.0);
  EXPECT_LE(status.continuity_rel, 1e-8);
  EXPECT_EQ(back->id(), "re");
}

TEST_F(ServeTest, OomFaultQuarantinesAndResumeRecovers) {
  const std::string dir = scratch_dir("oom");
  SessionSpec spec;
  spec.id = "oom";
  spec.cells = 3;
  SessionPolicy policy;
  std::unique_ptr<Session> session = Session::create(spec, dir, policy);
  const std::string started_on = session->status().strategy;

  FaultSpec fault;
  fault.shots = 1;
  FaultInjector::instance().arm(faults::kServeSessionOom, fault);
  session->enqueue_steps(10);
  const QuantumResult result = session->run_quantum();
  EXPECT_TRUE(result.quarantined);
  EXPECT_EQ(result.steps_done, 0);
  EXPECT_EQ(session->state(), SessionState::Quarantined);
  EXPECT_EQ(session->status().quarantines, 1);
  EXPECT_THROW(session->enqueue_steps(1), Error);

  // Quarantine released the Simulation but checkpointed first, one rung
  // down: resume restores a live session on that rung that can step again.
  session->resume();
  EXPECT_EQ(session->state(), SessionState::Paused);
  EXPECT_EQ(session->status().strategy,
            to_string(StrategyGovernor::rung_below(
                parse_strategy(started_on))));
  EXPECT_NE(session->status().strategy, started_on);
  session->enqueue_steps(5);
  EXPECT_GT(session->run_quantum().steps_done, 0);
}

TEST_F(ServeTest, WatchdogQuarantinesAfterTripStreak) {
  const std::string dir = scratch_dir("watchdog");
  SessionSpec spec;
  spec.id = "wd";
  spec.cells = 3;
  SessionPolicy policy;
  policy.quantum_steps = 5;
  // Deadline far below any real per-step time: every quantum after the
  // EWMA seeds is a trip, and two trips quarantine.
  policy.watchdog_factor = 1e-6;
  policy.watchdog_min_seconds = 0.0;
  policy.quarantine_after_trips = 2;
  std::unique_ptr<Session> session = Session::create(spec, dir, policy);

  session->enqueue_steps(100);
  bool quarantined = false;
  for (int i = 0; i < 10 && !quarantined; ++i) {
    quarantined = session->run_quantum().quarantined;
  }
  EXPECT_TRUE(quarantined);
  EXPECT_EQ(session->state(), SessionState::Quarantined);
  const SessionStatus status = session->status();
  EXPECT_GE(status.watchdog_trips, 2);
  EXPECT_EQ(status.quarantines, 1);
}

// ------------------------------------------------------------------- server

TEST_F(ServeTest, ServerEndToEndWithAdmissionControl) {
  const std::string dir = scratch_dir("server");
  obs::MetricsRegistry registry;
  ServerConfig config;
  config.socket_path = dir + "/sv.sock";
  config.root = dir + "/sessions";
  config.max_sessions = 2;
  config.workers = 1;
  config.session.quantum_steps = 10;
  config.session.watchdog_min_seconds = 5.0;  // CI noise must not trip
  config.registry = &registry;
  SessionServer server(config);
  server.start();

  ClientConfig ccfg;
  ccfg.socket_path = config.socket_path;
  ServeClient client(ccfg);

  WireMessage r = client.request_op("ping");
  EXPECT_TRUE(r.get_bool("ok", false));
  EXPECT_EQ(r.get_int("sessions", -1), 0);
  EXPECT_EQ(r.get_int("max_sessions", -1), 2);

  WireMessage create;
  create.set("op", "create");
  create.set("id", "a");
  create.set("cells", 3);
  r = client.request(create);
  ASSERT_TRUE(r.get_bool("ok", false)) << r.serialize();
  EXPECT_EQ(r.get_int("natoms", 0), 54);  // 2 atoms/cell * 3^3 cells

  WireMessage anon;  // empty id: the server assigns one
  anon.set("op", "create");
  anon.set("cells", 3);
  r = client.request(anon);
  ASSERT_TRUE(r.get_bool("ok", false));
  EXPECT_EQ(r.get_string("id"), "s0");

  // Admission control: the cap is hard and the rejection explicit.
  r = client.request(anon);
  EXPECT_FALSE(r.get_bool("ok", true));
  EXPECT_EQ(r.get_string("code"), "overloaded");
  EXPECT_GE(registry.value(registry.counter("serve.rejected_overload")), 1.0);

  WireMessage step;
  step.set("op", "step");
  step.set("id", "a");
  step.set("steps", 30);
  r = client.request(step);
  ASSERT_TRUE(r.get_bool("ok", false));

  // The worker pool drains the budget; status shows the session parked.
  ASSERT_TRUE(eventually([&] {
    const WireMessage s = client.request_op("status", "a");
    return s.get_int("step", 0) >= 30 &&
           s.get_string("state") == "paused";
  })) << client.request_op("status", "a").serialize();

  std::vector<double> xyz;
  r = client.snapshot("a", xyz);
  ASSERT_TRUE(r.get_bool("ok", false)) << r.serialize();
  EXPECT_EQ(xyz.size(), 162u);  // 54 atoms * 3
  EXPECT_EQ(r.get_int("natoms", 0), 54);

  r = client.request_op("status", "ghost");
  EXPECT_EQ(r.get_string("code"), "not_found");
  r = client.request_op("frobnicate", "a");
  EXPECT_EQ(r.get_string("code"), "bad_request");

  // destroy frees a slot: the next create is admitted again.
  r = client.request_op("destroy", "s0");
  ASSERT_TRUE(r.get_bool("ok", false));
  r = client.request(anon);
  EXPECT_TRUE(r.get_bool("ok", false)) << r.serialize();

  r = client.request_op("metrics");
  ASSERT_TRUE(r.get_bool("ok", false));
  EXPECT_GE(r.get_double("serve.ops", 0.0), 5.0);

  EXPECT_TRUE(client.request_op("drain").get_bool("ok", false));
  EXPECT_EQ(server.wait(), SessionServer::Outcome::Drained);
}

TEST_F(ServeTest, RefusedCreateLeavesNothingOnDisk) {
  // A spec the server cannot run is the client's error: each create below
  // replies bad_request before anything reaches the disk, so a server
  // restarted on the same root finds nothing to resume and nothing that
  // fails to.
  const std::string dir = scratch_dir("refused_create");
  ServerConfig config;
  config.socket_path = dir + "/sv.sock";
  config.root = dir + "/sessions";
  config.workers = 1;
  struct Bad {
    const char* id;
    const char* key;
    std::int64_t value;
  };
  const Bad bad[] = {
      {"cells2", "cells", 2},          {"dt0", "dt_fs", 0},
      {"threads0", "threads", 0},      {"ckpt0", "checkpoint_every", 0},
      {"keep0", "keep", 0},            {"code99", "strategy", 99},
      {"code7", "strategy", 7},        {"critical", "strategy", 1},
  };
  {
    SessionServer server(config);
    server.start();
    ClientConfig ccfg;
    ccfg.socket_path = config.socket_path;
    ServeClient client(ccfg);
    for (const Bad& b : bad) {
      WireMessage create;
      create.set("op", "create");
      create.set("id", b.id);
      create.set("cells", 3);
      create.set("governed", true);
      create.set(b.key, b.value);
      const WireMessage r = client.request(create);
      EXPECT_FALSE(r.get_bool("ok", true)) << b.id;
      EXPECT_EQ(r.get_string("code"), "bad_request") << r.serialize();
      EXPECT_FALSE(fs::exists(fs::path(config.root) / b.id / "session.json"))
          << b.id;
    }
    ASSERT_TRUE(client.request_op("drain").get_bool("ok", false));
    EXPECT_EQ(server.wait(), SessionServer::Outcome::Drained);
  }
  SessionServer restarted(config);
  restarted.start();
  EXPECT_EQ(restarted.resumed_sessions(), 0);
  EXPECT_EQ(restarted.failed_resumes(), 0);
  restarted.drain();
  EXPECT_EQ(restarted.wait(), SessionServer::Outcome::Drained);
}

TEST_F(ServeTest, StepRepliesAddUpToTheStepTheBudgetDrainsAt) {
  // A step reply's step + pending is where the session stands once the
  // budget drains. Each op adds more one-step quanta than the client can
  // send ops in the meantime, so a worker keeps taking the session mutex
  // every few microseconds while the ops land: a reply that read its step
  // after scheduling would now and then also count a quantum run since
  // the add.
  const std::string dir = scratch_dir("step_replies");
  ServerConfig config;
  config.socket_path = dir + "/sv.sock";
  config.root = dir + "/sessions";
  config.max_sessions = 1;
  config.workers = 2;
  config.session.quantum_steps = 1;
  config.session.watchdog_factor = 0.0;  // timing noise must not quarantine
  SessionServer server(config);
  server.start();

  ClientConfig ccfg;
  ccfg.socket_path = config.socket_path;
  ServeClient client(ccfg);
  WireMessage create;
  create.set("op", "create");
  create.set("id", "q");
  create.set("cells", 3);
  ASSERT_TRUE(client.request(create).get_bool("ok", false));

  WireMessage step;
  step.set("op", "step");
  step.set("id", "q");
  step.set("steps", 20);
  std::int64_t added = 0;
  for (int k = 0; k < 1000; ++k) {
    const WireMessage r = client.request(step);
    ASSERT_TRUE(r.get_bool("ok", false)) << r.serialize();
    added += 20;
    EXPECT_EQ(r.get_int("step", -1) + r.get_int("pending", -1), added)
        << "reply " << k << ": " << r.serialize();
  }
  ASSERT_TRUE(eventually([&] {
    return client.request_op("status", "q").get_string("state") == "paused";
  })) << client.request_op("status", "q").serialize();
  EXPECT_EQ(client.request_op("status", "q").get_int("step", -1), added);

  EXPECT_TRUE(client.request_op("drain").get_bool("ok", false));
  EXPECT_EQ(server.wait(), SessionServer::Outcome::Drained);
}

TEST_F(ServeTest, MalformedLineGetsBadRequestNotDisconnect) {
  const std::string dir = scratch_dir("badline");
  ServerConfig config;
  config.socket_path = dir + "/sv.sock";
  config.root = dir + "/sessions";
  SessionServer server(config);
  server.start();

  const int fd = connect_unix(config.socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_all(fd, "this is not json\n", 5.0));
  LineReader reader(fd);
  std::string line;
  ASSERT_EQ(reader.next_line(line, 5.0), LineReader::Result::Line);
  const WireMessage r = WireMessage::parse(line);
  EXPECT_FALSE(r.get_bool("ok", true));
  EXPECT_EQ(r.get_string("code"), "bad_request");
  // The connection survives a protocol error: the next request answers.
  ASSERT_TRUE(write_all(fd, "{\"op\": \"ping\"}\n", 5.0));
  ASSERT_EQ(reader.next_line(line, 5.0), LineReader::Result::Line);
  EXPECT_TRUE(WireMessage::parse(line).get_bool("ok", false));
  close_fd(fd);

  SessionServer::request_drain();
  EXPECT_EQ(server.wait(), SessionServer::Outcome::Drained);
}

TEST_F(ServeTest, DrainedFleetResumesWholesaleInSecondServer) {
  const std::string dir = scratch_dir("fleet");
  ServerConfig config;
  config.socket_path = dir + "/sv.sock";
  config.root = dir + "/sessions";
  config.workers = 2;
  config.session.quantum_steps = 10;
  config.session.watchdog_min_seconds = 5.0;
  {
    SessionServer first(config);
    first.start();
    ClientConfig ccfg;
    ccfg.socket_path = config.socket_path;
    ServeClient client(ccfg);
    for (const char* id : {"f0", "f1"}) {
      WireMessage create;
      create.set("op", "create");
      create.set("id", id);
      create.set("cells", 3);
      create.set("checkpoint_every", 10);
      ASSERT_TRUE(client.request(create).get_bool("ok", false));
      WireMessage step;
      step.set("op", "step");
      step.set("id", id);
      step.set("steps", 20);
      ASSERT_TRUE(client.request(step).get_bool("ok", false));
    }
    ASSERT_TRUE(client.request_op("drain").get_bool("ok", false));
    EXPECT_EQ(first.wait(), SessionServer::Outcome::Drained);
  }

  SessionServer second(config);
  second.start();
  EXPECT_EQ(second.resumed_sessions(), 2);
  EXPECT_EQ(second.failed_resumes(), 0);
  ClientConfig ccfg;
  ccfg.socket_path = config.socket_path;
  ServeClient client(ccfg);
  for (const char* id : {"f0", "f1"}) {
    const WireMessage s = client.request_op("status", id);
    ASSERT_TRUE(s.get_bool("ok", false)) << s.serialize();
    EXPECT_TRUE(s.get_bool("resumed", false));
    const double rel = s.get_double("continuity_rel", -1.0);
    EXPECT_GE(rel, 0.0);
    EXPECT_LE(rel, 1e-8);
  }
  ASSERT_TRUE(client.request_op("drain").get_bool("ok", false));
  EXPECT_EQ(second.wait(), SessionServer::Outcome::Drained);
}

TEST_F(ServeTest, StalledClientDoesNotBlockNeighbors) {
  const std::string dir = scratch_dir("stall");
  ServerConfig config;
  config.socket_path = dir + "/sv.sock";
  config.root = dir + "/sessions";
  config.session.watchdog_min_seconds = 5.0;
  SessionServer server(config);
  server.start();

  ClientConfig ccfg;
  ccfg.socket_path = config.socket_path;
  ServeClient client(ccfg);
  WireMessage create;
  create.set("op", "create");
  create.set("id", "big");
  create.set("cells", 6);
  ASSERT_TRUE(client.request(create).get_bool("ok", false));

  // A connection that floods snapshot requests (~10 KB frame each) and
  // never reads: the responses overflow the kernel socket buffer, so the
  // server's outbox must park on POLLOUT instead of blocking the single
  // I/O thread in send() for the write deadline.
  const int stalled = connect_unix(config.socket_path);
  ASSERT_GE(stalled, 0);
  std::string flood;
  for (int i = 0; i < 200; ++i) {
    flood += "{\"op\": \"snapshot\", \"id\": \"big\"}\n";
  }
  ASSERT_TRUE(write_all(stalled, flood, 5.0));

  // A neighbor's op must answer promptly while the stalled connection
  // owes megabytes — far under io_timeout_s (5 s), which is how long the
  // old blocking write path would freeze the loop.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.request_op("ping").get_bool("ok", false));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 2.0);

  close_fd(stalled);
  SessionServer::request_drain();
  EXPECT_EQ(server.wait(), SessionServer::Outcome::Drained);
}

TEST_F(ServeTest, DrainOpIsPerInstanceNotProcessWide) {
  const std::string dir = scratch_dir("twoservers");
  ServerConfig ca;
  ca.socket_path = dir + "/a.sock";
  ca.root = dir + "/a_sessions";
  ServerConfig cb = ca;
  cb.socket_path = dir + "/b.sock";
  cb.root = dir + "/b_sessions";
  SessionServer sa(ca);
  SessionServer sb(cb);
  sa.start();
  sb.start();

  ClientConfig cca;
  cca.socket_path = ca.socket_path;
  ClientConfig ccb;
  ccb.socket_path = cb.socket_path;
  ServeClient client_a(cca);
  ServeClient client_b(ccb);
  ASSERT_TRUE(client_a.request_op("ping").get_bool("ok", false));
  ASSERT_TRUE(client_b.request_op("ping").get_bool("ok", false));

  // The drain op hits one instance; its sibling keeps serving and, in
  // particular, keeps admitting creates (no process-wide 'draining').
  ASSERT_TRUE(client_a.request_op("drain").get_bool("ok", false));
  EXPECT_EQ(sa.wait(), SessionServer::Outcome::Drained);
  WireMessage create;
  create.set("op", "create");
  create.set("id", "x");
  create.set("cells", 3);
  EXPECT_TRUE(client_b.request(create).get_bool("ok", false));

  ASSERT_TRUE(client_b.request_op("drain").get_bool("ok", false));
  EXPECT_EQ(sb.wait(), SessionServer::Outcome::Drained);
}

TEST_F(ServeTest, ClientRetriesThroughInjectedConnectionFaults) {
  const std::string dir = scratch_dir("faults");
  ServerConfig config;
  config.socket_path = dir + "/sv.sock";
  config.root = dir + "/sessions";
  SessionServer server(config);
  server.start();

  ClientConfig ccfg;
  ccfg.socket_path = config.socket_path;
  ServeClient client(ccfg);
  ASSERT_TRUE(client.request_op("ping").get_bool("ok", false));

  // serve.slow_client: the server drops the connection instead of writing
  // the response; the client's reconnect-and-resend must hide it.
  FaultSpec fault;
  fault.shots = 1;
  FaultInjector::instance().arm(faults::kServeSlowClient, fault);
  EXPECT_TRUE(client.request_op("ping").get_bool("ok", false));
  EXPECT_EQ(FaultInjector::instance().fire_count(faults::kServeSlowClient), 1);

  // serve.accept_fail: the next accepted connection is closed unserved;
  // a fresh client retries into the following accept.
  FaultInjector::instance().arm(faults::kServeAcceptFail, fault);
  ServeClient fresh(ccfg);
  EXPECT_TRUE(fresh.request_op("ping").get_bool("ok", false));
  EXPECT_EQ(FaultInjector::instance().fire_count(faults::kServeAcceptFail), 1);

  SessionServer::request_drain();
  EXPECT_EQ(server.wait(), SessionServer::Outcome::Drained);
}

}  // namespace
}  // namespace sdcmd::serve
