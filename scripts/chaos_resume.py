#!/usr/bin/env python3
"""Kill-resume chaos harness for the run supervisor.

Launches sdcmd-run against a durable run directory, SIGKILLs it at a
randomized (but seeded, hence CI-deterministic) moment, resumes, and
repeats. After every kill it audits the run directory the way an
operator would after a node crash:

  * MANIFEST either verifies (header, per-entry checksums recomputed
    here in pure Python, footer checksum) or is absent/torn -- torn is
    tolerated exactly when a directory scan still yields a loadable ring
    (that is the supervisor's own fallback contract);
  * every ring checkpoint carries a valid fnv1a64 footer;
  * the newest resumable step never moves backwards across cycles;
  * at most one stray ``*.tmp`` file exists (the one write the kill
    interrupted -- never an accumulation);
  * on each resume, sdcmd-run's own energy-continuity line is parsed and
    the relative drift re-asserted (<= 1e-8).

A final un-killed run must reach the target step with exit code 0.

``--window-drill`` replaces the kills with a deterministic drill of one
crash window: RunDir::commit renames the checkpoint, then run_state.json,
then MANIFEST, so a kill between the last two leaves a sidecar that proves
a generation the MANIFEST does not list. The drill builds that state by
rewriting MANIFEST without its newest entry, as the previous commit left
it, and the next resume must take the proven generation and print its
continuity line.

Usage (from the build tree):
  python3 scripts/chaos_resume.py --binary build/examples/sdcmd-run \
      --cycles 3 --steps 1200 --rng-seed 7
  python3 scripts/chaos_resume.py --binary build/examples/sdcmd-run \
      --window-drill --cells 4 --checkpoint-every 20

Exit code 0 = drill passed; 1 = an invariant failed.
"""

import argparse
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
MASK64 = (1 << 64) - 1

CKPT_RE = re.compile(r"^ckpt_(\d{10})\.chk$")
CONTINUITY_RE = re.compile(r"resume energy continuity rel=([0-9.eE+-]+)")
RESUMED_RE = re.compile(r"resumed at step (\d+)")


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def fail(msg: str) -> None:
    print(f"chaos_resume: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def note(msg: str) -> None:
    print(f"chaos_resume: {msg}", flush=True)


def verify_checkpoint(path: str) -> int:
    """Verify a checkpoint file's checksum footer; return its step."""
    with open(path, "rb") as f:
        text = f.read()
    footer_at = text.rfind(b"checksum fnv1a64 ")
    if footer_at < 0:
        fail(f"{path}: no checksum footer")
    payload = text[:footer_at]
    declared = int(text[footer_at:].split()[2], 16)
    actual = fnv1a64(payload)
    if actual != declared:
        fail(f"{path}: checksum mismatch ({actual:016x} != {declared:016x})")
    for line in payload.splitlines():
        if line.startswith(b"step "):
            return int(line.split()[1])
    fail(f"{path}: no step record")
    return -1  # unreachable


def verify_manifest(run_dir: str) -> list:
    """Verify MANIFEST integrity; return its ring as [(step, file)].

    Returns None when the MANIFEST is absent or torn (tolerated; the
    caller then requires the directory-scan fallback to work instead).
    """
    path = os.path.join(run_dir, "MANIFEST")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        text = f.read()
    footer_at = text.rfind(b"checksum fnv1a64 ")
    if footer_at < 0 or (footer_at != 0 and text[footer_at - 1 : footer_at] != b"\n"):
        note(f"MANIFEST torn (no footer, {len(text)} bytes); scan fallback required")
        return None
    body = text[:footer_at]
    declared = int(text[footer_at:].split()[2], 16)
    if fnv1a64(body) != declared:
        note("MANIFEST torn (footer checksum mismatch); scan fallback required")
        return None
    lines = body.decode().splitlines()
    if not lines or lines[0] != "sdcmd-manifest 1":
        fail(f"MANIFEST verified its checksum but has bad header: {lines[:1]}")
    ring = []
    for line in lines[1:]:
        kind, step, fname, csum = line.split()
        if kind != "entry":
            fail(f"MANIFEST unexpected record '{kind}'")
        full = os.path.join(run_dir, fname)
        if not os.path.exists(full):
            fail(f"MANIFEST lists missing file {fname}")
        with open(full, "rb") as f:
            actual = fnv1a64(f.read())
        if actual != int(csum, 16):
            fail(f"MANIFEST checksum for {fname} does not match the file")
        ring.append((int(step), fname))
    return ring


def audit(run_dir: str, keep: int, prev_best: int, cycle: str) -> int:
    """Audit the run directory after a kill; return the newest valid step."""
    names = sorted(os.listdir(run_dir))
    ckpts = [n for n in names if CKPT_RE.match(n)]
    tmps = [n for n in names if n.endswith(".tmp")]
    if len(tmps) > 1:
        fail(f"[{cycle}] {len(tmps)} stray .tmp files ({tmps}); expected <= 1")
    if len(ckpts) > keep + 1:
        # +1: a kill can land between writing generation N+1 and pruning.
        fail(f"[{cycle}] ring holds {len(ckpts)} checkpoints, keep={keep}")

    steps = []
    for name in ckpts:
        full = os.path.join(run_dir, name)
        step = verify_checkpoint(full)
        if step != int(CKPT_RE.match(name).group(1)):
            fail(f"[{cycle}] {name} contains step {step}")
        steps.append(step)
    if not steps:
        fail(f"[{cycle}] no checkpoints survived the kill")

    ring = verify_manifest(run_dir)
    if ring is not None and ring:
        if ring[0][0] != max(steps):
            fail(
                f"[{cycle}] MANIFEST head is step {ring[0][0]}, "
                f"newest on disk is {max(steps)}"
            )

    best = max(steps)
    if best < prev_best:
        fail(f"[{cycle}] newest step went backwards: {best} < {prev_best}")
    note(
        f"[{cycle}] audit ok: ring={sorted(steps, reverse=True)} "
        f"manifest={'ok' if ring is not None else 'torn/absent'} "
        f"tmp={len(tmps)}"
    )
    return best


def launch(args, resume: bool, steps: int = None):
    cmd = [
        args.binary,
        "--run-dir", args.run_dir,
        "--steps", str(args.steps if steps is None else steps),
        "--cells", str(args.cells),
        "--keep", str(args.keep),
        "--checkpoint-every", str(args.checkpoint_every),
        "--seed", str(args.seed),
        "--thermo-every", "0",
        "--watchdog-min", "0",
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )


def check_resume_output(out: str, cycle: str) -> None:
    m = CONTINUITY_RE.search(out)
    if not m:
        fail(f"[{cycle}] resume printed no energy-continuity line:\n{out}")
    rel = float(m.group(1))
    if not rel <= 1e-8:
        fail(f"[{cycle}] energy discontinuity across resume: rel={rel:g}")
    note(f"[{cycle}] energy continuity rel={rel:g}")


def run_to(args, steps: int, resume: bool, tag: str) -> str:
    """Run sdcmd-run to `steps` without a kill; return its output."""
    proc = launch(args, resume, steps)
    out = proc.communicate()[0]
    if proc.returncode != 0:
        fail(f"[{tag}] exited rc={proc.returncode}:\n{out}")
    return out


def drop_manifest_head(run_dir: str) -> int:
    """Rewrite MANIFEST without its newest entry; return that entry's step."""
    path = os.path.join(run_dir, "MANIFEST")
    with open(path, "rb") as f:
        text = f.read()
    lines = text[: text.rfind(b"checksum fnv1a64 ")].decode().splitlines()
    head = lines.pop(1)  # lines[0] is the header
    body = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as f:
        f.write(body + b"checksum fnv1a64 %016x\n" % fnv1a64(body))
    return int(head.split()[1])


def window_drill(args) -> None:
    """Resume across a crash between the sidecar and MANIFEST renames."""
    every = args.checkpoint_every
    run_to(args, every, False, "window: first generation")
    out = run_to(args, 2 * every, True, "window: second generation")
    check_resume_output(out, "window: second generation")
    # The second generation's checkpoint and sidecar are on disk; take it
    # back out of the MANIFEST, as if the kill landed before that rename.
    dropped = drop_manifest_head(args.run_dir)
    if dropped != 2 * every:
        fail(f"[window] MANIFEST head was step {dropped}, expected {2 * every}")
    out = run_to(args, 3 * every, True, "window: resume")
    m = RESUMED_RE.search(out)
    if not (m and int(m.group(1)) == 2 * every):
        fail(f"[window: resume] did not resume the proven step {2 * every}:\n{out}")
    check_resume_output(out, "window: resume")
    best = audit(args.run_dir, args.keep, 2 * every, "window: final")
    if best != 3 * every:
        fail(f"[window: final] ring head is step {best}, expected {3 * every}")
    note(f"PASS: resumed the proven step {2 * every} across the "
         f"sidecar/MANIFEST window")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True, help="path to sdcmd-run")
    ap.add_argument("--run-dir", default=None, help="run directory (default: fresh tmp)")
    ap.add_argument("--cycles", type=int, default=3, help="SIGKILL/resume cycles")
    ap.add_argument("--steps", type=int, default=15000, help="target step")
    ap.add_argument("--cells", type=int, default=6)
    ap.add_argument("--keep", type=int, default=3)
    ap.add_argument("--checkpoint-every", type=int, default=200)
    ap.add_argument("--seed", type=int, default=12345, help="velocity seed")
    ap.add_argument("--rng-seed", type=int, default=7, help="kill-timing seed")
    ap.add_argument("--min-delay", type=float, default=0.3)
    ap.add_argument("--max-delay", type=float, default=1.5)
    ap.add_argument("--window-drill", action="store_true",
                    help="drill the sidecar/MANIFEST commit window instead of kills")
    args = ap.parse_args()

    if not (os.path.isfile(args.binary) and os.access(args.binary, os.X_OK)):
        fail(f"binary not executable: {args.binary}")

    cleanup = None
    if args.run_dir is None:
        cleanup = tempfile.mkdtemp(prefix="chaos_resume.")
        args.run_dir = os.path.join(cleanup, "run.d")

    if args.window_drill:
        window_drill(args)
        if cleanup:
            shutil.rmtree(cleanup, ignore_errors=True)
        return

    rng = random.Random(args.rng_seed)
    prev_best = -1
    completed_early = False

    for cycle in range(1, args.cycles + 1):
        tag = f"cycle {cycle}/{args.cycles}"
        proc = launch(args, resume=cycle > 1)
        delay = rng.uniform(args.min_delay, args.max_delay)
        time.sleep(delay)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            out = proc.communicate()[0]
            note(f"[{tag}] SIGKILL after {delay:.2f}s")
        else:
            out = proc.communicate()[0]
            if proc.returncode != 0:
                fail(f"[{tag}] exited rc={proc.returncode} before the kill:\n{out}")
            note(f"[{tag}] finished before the kill (rc=0)")
            completed_early = True
        if cycle > 1:
            check_resume_output(out, tag)
        prev_best = audit(args.run_dir, args.keep, prev_best, tag)
        if completed_early:
            break

    # Final clean run: resume and actually reach the target.
    proc = launch(args, resume=True)
    out = proc.communicate()[0]
    if proc.returncode != 0:
        fail(f"final resume exited rc={proc.returncode}:\n{out}")
    if not completed_early:
        check_resume_output(out, "final")
    m = re.search(r"outcome=completed step=(\d+)", out)
    if not (m and int(m.group(1)) == args.steps) and "already at step" not in out:
        fail(f"final run did not complete at step {args.steps}:\n{out}")
    final_best = audit(args.run_dir, args.keep, prev_best, "final")
    if final_best != args.steps:
        fail(f"final ring head is step {final_best}, expected {args.steps}")

    if cleanup:
        shutil.rmtree(cleanup, ignore_errors=True)
    note(f"PASS: {args.cycles} kill-resume cycles, monotone steps, "
         f"valid ring, energy continuous")


if __name__ == "__main__":
    main()
