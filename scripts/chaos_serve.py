#!/usr/bin/env python3
"""SIGKILL drill for the sdcmd-serve session daemon.

Boots the daemon with a fleet of sessions, keeps step traffic flowing from
a background pump, SIGKILLs the daemon at a seeded-random moment, restarts
it, and requires the whole fleet to come back:

  * every session auto-resumes on restart (``status`` reports
    ``resumed: true``) with an energy-continuity proof <= 1e-8;
  * per-session checkpoint rings stay valid across kills (each file
    verified on its own by chaos_resume.checkpoint_step: a v3 file must
    have exactly the length its header implies and an fnv1a64 footer
    recomputed here in pure Python; v2 files still pass) and at most one
    stray ``*.tmp`` file exists per session directory -- the one write the
    kill interrupted; the audit must also reject a copy of a session whose
    newest checkpoint lost part of its array;
  * the newest resumable step per session never moves backwards across
    kill cycles (monotone step counters);
  * a final SIGTERM drains clean: the daemon checkpoints every session,
    exits 0, and one more restart still resumes the full fleet.

Usage (from the build tree):
  python3 scripts/chaos_serve.py --binary build/examples/sdcmd-serve \
      --kills 3 --sessions 3

Exit code 0 = drill passed; 1 = an invariant failed.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

from chaos_resume import CKPT_RE, DrillFailure, checkpoint_step


# Every daemon launched, so a drill that stops early stops its daemon too.
DAEMONS = []


def fail(msg: str) -> None:
    raise DrillFailure(msg)


def note(msg: str) -> None:
    print(f"chaos_serve: {msg}", flush=True)


class Client:
    """Minimal wire-protocol client: line-delimited flat JSON over AF_UNIX,
    reconnecting with backoff (the daemon may be mid-restart)."""

    def __init__(self, path: str, timeout: float = 10.0):
        self.path = path
        self.timeout = timeout
        self.sock = None
        self.buf = b""

    def connect(self, attempts: int = 100, backoff: float = 0.05) -> None:
        self.close()
        for _ in range(attempts):
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.settimeout(self.timeout)
                s.connect(self.path)
                self.sock = s
                self.buf = b""
                return
            except OSError:
                s.close()
                time.sleep(backoff)
                backoff = min(backoff * 1.5, 0.5)
        fail(f"cannot connect to {self.path}")

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            finally:
                self.sock = None

    def _readline(self) -> bytes:
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise OSError("peer closed")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def request(self, retry: bool = True, **msg):
        data = (json.dumps(msg) + "\n").encode()
        for attempt in range(2):
            if self.sock is None:
                self.connect()
            try:
                self.sock.sendall(data)
                return json.loads(self._readline())
            except OSError:
                self.close()
                if not retry or attempt == 1:
                    raise
        raise OSError("unreachable")


def launch(args, tag: str) -> subprocess.Popen:
    cmd = [
        args.binary,
        "--socket", args.socket,
        "--root", args.root,
        "--max-sessions", str(max(args.sessions, 4)),
        "--workers", "2",
        "--quantum", str(args.quantum),
        "--watchdog-min", "5.0",  # generous: CI noise must not quarantine
    ]
    log = open(os.path.join(args.workdir, f"daemon_{tag}.log"), "w")
    daemon = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
    DAEMONS.append(daemon)
    return daemon


def audit_session(session_dir: str, prev_best: int, tag: str) -> int:
    """Verify one session directory after a kill; return newest valid step."""
    names = sorted(os.listdir(session_dir))
    ckpts = [n for n in names if CKPT_RE.match(n)]
    tmps = [n for n in names if n.endswith(".tmp")]
    if len(tmps) > 1:
        fail(f"[{tag}] {session_dir}: {len(tmps)} stray .tmp files ({tmps})")
    if "session.json" not in names:
        fail(f"[{tag}] {session_dir}: session.json missing")
    steps = []
    for name in ckpts:
        with open(os.path.join(session_dir, name), "rb") as f:
            data = f.read()
        try:
            step = checkpoint_step(data)[1]
        except ValueError as e:
            fail(f"[{tag}] {session_dir}/{name}: {e}")
        if step != int(CKPT_RE.match(name).group(1)):
            fail(f"[{tag}] {session_dir}/{name} contains step {step}")
        steps.append(step)
    if not steps:
        fail(f"[{tag}] {session_dir}: no checkpoints survived")
    best = max(steps)
    if best < prev_best:
        fail(f"[{tag}] {session_dir}: newest step went backwards "
             f"({best} < {prev_best})")
    return best


def expect_truncated_array_rejected(session_dir: str, tag: str) -> None:
    """audit_session must fail on a copy whose newest checkpoint lost 64
    bytes from the middle of its array (header and footer intact)."""
    copy = session_dir + ".doctored"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(session_dir, copy)
    try:
        newest = os.path.join(copy, max(n for n in os.listdir(copy)
                                        if CKPT_RE.match(n)))
        with open(newest, "rb") as f:
            data = f.read()
        cut = len(data) // 2
        with open(newest, "wb") as f:
            f.write(data[:cut] + data[cut + 64:])
        audit_session(copy, -1, f"{tag}: truncated array")
    except DrillFailure as e:
        note(f"[{tag}] audit rejects a truncated array: {e}")
        return
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    fail(f"[{tag}] audit accepted a checkpoint with a truncated array")


def assert_fleet_resumed(client: Client, ids, best, slack: int,
                         tag: str) -> None:
    for sid in ids:
        status = client.request(op="status", id=sid)
        if not status.get("ok"):
            fail(f"[{tag}] status({sid}) failed: {status}")
        if not status.get("resumed"):
            fail(f"[{tag}] session {sid} did not auto-resume: {status}")
        rel = status.get("continuity_rel", -1.0)
        if not 0.0 <= rel <= 1e-8:
            fail(f"[{tag}] session {sid} energy discontinuity rel={rel:g}")
        # A kill between the checkpoint rename and the sidecar rename makes
        # the daemon resume the previous *provable* generation: at most one
        # checkpoint cadence behind the newest file on disk.
        if status["step"] < best[sid] - slack:
            fail(f"[{tag}] session {sid} resumed at step {status['step']}, "
                 f"more than one cadence behind checkpoint {best[sid]}")
        note(f"[{tag}] {sid}: resumed step={status['step']} "
             f"continuity_rel={rel:g}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True, help="path to sdcmd-serve")
    ap.add_argument("--kills", type=int, default=3, help="SIGKILL cycles")
    ap.add_argument("--sessions", type=int, default=3)
    ap.add_argument("--cells", type=int, default=4)
    ap.add_argument("--quantum", type=int, default=10)
    ap.add_argument("--checkpoint-every", type=int, default=10)
    ap.add_argument("--rng-seed", type=int, default=7, help="kill-timing seed")
    ap.add_argument("--min-delay", type=float, default=0.5)
    ap.add_argument("--max-delay", type=float, default=1.5)
    args = ap.parse_args()
    try:
        drill(args)
    except DrillFailure as e:
        print(f"chaos_serve: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
    finally:
        for daemon in DAEMONS:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


def drill(args) -> None:
    if not (os.path.isfile(args.binary) and os.access(args.binary, os.X_OK)):
        fail(f"binary not executable: {args.binary}")

    args.workdir = tempfile.mkdtemp(prefix="chaos_serve.")
    args.socket = os.path.join(args.workdir, "sv.sock")
    args.root = os.path.join(args.workdir, "sessions.d")
    rng = random.Random(args.rng_seed)
    ids = [f"s{i}" for i in range(args.sessions)]
    best = {sid: -1 for sid in ids}

    daemon = launch(args, "boot")
    client = Client(args.socket)
    client.connect()
    for sid in ids:
        r = client.request(op="create", id=sid, cells=args.cells,
                           seed=1000 + ids.index(sid),
                           checkpoint_every=args.checkpoint_every)
        if not r.get("ok"):
            fail(f"create({sid}) failed: {r}")
    note(f"booted {args.sessions} session(s) in {args.root}")

    # Background pump: keep step traffic flowing on its own connection so
    # the kill always lands mid-traffic. Post-kill socket errors are the
    # expected signal to stand by until the next cycle reconnects.
    pump_stop = threading.Event()

    def pump() -> None:
        pc = Client(args.socket)
        while not pump_stop.is_set():
            try:
                for sid in ids:
                    pc.request(op="step", id=sid, steps=50, retry=False)
            except OSError:
                pc.close()
                time.sleep(0.1)
            time.sleep(0.05)
        pc.close()

    pump_thread = threading.Thread(target=pump, daemon=True)
    pump_thread.start()

    for cycle in range(1, args.kills + 1):
        tag = f"kill {cycle}/{args.kills}"
        delay = rng.uniform(args.min_delay, args.max_delay)
        time.sleep(delay)
        daemon.send_signal(signal.SIGKILL)
        daemon.wait()
        client.close()
        note(f"[{tag}] SIGKILL after {delay:.2f}s of traffic")
        for sid in ids:
            best[sid] = audit_session(os.path.join(args.root, sid),
                                      best[sid], tag)
        if cycle == 1:
            expect_truncated_array_rejected(os.path.join(args.root, ids[0]),
                                            tag)
        daemon = launch(args, f"cycle{cycle}")
        client.connect()
        assert_fleet_resumed(client, ids, best, args.checkpoint_every, tag)

    # Graceful path: SIGTERM must checkpoint every session and exit 0.
    pump_stop.set()
    pump_thread.join(timeout=10.0)
    time.sleep(0.3)  # let in-flight quanta settle into the last cadence
    daemon.send_signal(signal.SIGTERM)
    rc = daemon.wait(timeout=60)
    if rc != 0:
        fail(f"SIGTERM drain exited rc={rc}, expected 0")
    client.close()
    for sid in ids:
        best[sid] = audit_session(os.path.join(args.root, sid), best[sid],
                                  "drain")

    # And the drained fleet must still resume wholesale.
    daemon = launch(args, "final")
    client.connect()
    assert_fleet_resumed(client, ids, best, args.checkpoint_every, "final")
    client.request(op="drain")
    rc = daemon.wait(timeout=60)
    if rc != 0:
        fail(f"final drain exited rc={rc}, expected 0")

    note(f"PASS: {args.kills} SIGKILL cycles, fleet of {args.sessions} "
         f"resumed every time, energy continuous, monotone steps, "
         f"clean SIGTERM drain")


if __name__ == "__main__":
    main()
