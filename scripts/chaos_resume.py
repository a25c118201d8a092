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
  * the ring matches what RunDir::commit can leave behind: it renames the
    checkpoint, then run_state.json, then prunes, then renames MANIFEST,
    so at most one checksum-valid generation newer than the MANIFEST head
    is unlisted, at most the oldest listed entry is already pruned, and at
    most keep+1 checkpoints exist;
  * every ring checkpoint verifies on its own: a v3 file has exactly the
    length its header implies (header + 64 bytes per atom + footer) and a
    valid fnv1a64 footer; a v2 file has a valid footer;
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
it. The audit must accept that state and reject two states no commit can
leave (two unlisted generations; a missing entry that is not the oldest),
the verifier must reject a v3 file with a truncated array, and the next
resume must take the proven generation, print its continuity line, and
not call the newer sidecar stale.

``--legacy-ring DIR`` resumes a copy of a ring an older build wrote
(tests/data/v2_ring holds checkpoint format v2), commits v3 generations
on top, and resumes the mixed ring, each time with continuity <= 1e-8.

Usage (from the build tree):
  python3 scripts/chaos_resume.py --binary build/examples/sdcmd-run \
      --cycles 3 --steps 1200 --rng-seed 7
  python3 scripts/chaos_resume.py --binary build/examples/sdcmd-run \
      --window-drill --cells 4 --checkpoint-every 20
  python3 scripts/chaos_resume.py --binary build/examples/sdcmd-run \
      --legacy-ring tests/data/v2_ring --cells 4 --checkpoint-every 20

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

FOOTER_TAG = b"checksum fnv1a64 "
FOOTER_SIZE = len(FOOTER_TAG) + 16 + 1
V3_LAYOUT = b"soa-le:id-u32,position-3f64,velocity-3f64,image-3i32"
V3_BYTES_PER_ATOM = 4 + 3 * 8 + 3 * 8 + 3 * 4


class DrillFailure(Exception):
    """An invariant failed; main() reports it and exits 1."""


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def fail(msg: str) -> None:
    raise DrillFailure(msg)


def note(msg: str) -> None:
    print(f"chaos_resume: {msg}", flush=True)


def checkpoint_name(step: int) -> str:
    return f"ckpt_{step:010d}.chk"


def check_footer(data: bytes, footer_at: int) -> None:
    """Raise ValueError unless data[footer_at:] is a footer over the rest."""
    footer = data[footer_at:]
    hex_digits = footer[len(FOOTER_TAG):].strip()
    if not footer.startswith(FOOTER_TAG) or len(hex_digits) != 16:
        raise ValueError(f"no checksum footer at byte {footer_at}")
    declared = int(hex_digits, 16)
    actual = fnv1a64(data[:footer_at])
    if actual != declared:
        raise ValueError(f"checksum mismatch ({actual:016x} != {declared:016x})")


def checkpoint_step(data: bytes) -> tuple:
    """(version, step) of a v2 or v3 checkpoint; ValueError unless it verifies.

    Independent of the C++ loader: v3 must have exactly the length its
    header implies (five header lines, 64 bytes per atom, footer) and a
    footer at that offset; v2 must end in a footer over every byte before it.
    """
    first = data.split(b"\n", 1)[0]
    if first == b"sdcmd-checkpoint 3":
        lines = data.split(b"\n", 5)
        if len(lines) < 6:
            raise ValueError("truncated v3 header")
        header_size = sum(len(line) + 1 for line in lines[:5])
        atoms = lines[4].split(b" ")
        if len(atoms) != 3 or atoms[0] != b"atoms" or not atoms[1].isdigit():
            raise ValueError(f"bad atoms line {lines[4][:80]!r}")
        if atoms[2] != V3_LAYOUT:
            raise ValueError(f"unknown array layout {atoms[2][:80]!r}")
        count = int(atoms[1])
        payload = header_size + count * V3_BYTES_PER_ATOM
        if len(data) != payload + FOOTER_SIZE or not data.endswith(b"\n"):
            raise ValueError(
                f"{len(data)} bytes, but {count} atoms make "
                f"{payload + FOOTER_SIZE} (truncated or padded array?)")
        check_footer(data, payload)
        step = lines[1].split(b" ")
    elif first == b"sdcmd-checkpoint 2":
        footer_at = data.rfind(FOOTER_TAG)
        if footer_at < 0:
            raise ValueError("no checksum footer")
        check_footer(data, footer_at)
        step = next((line.split() for line in data[:footer_at].splitlines()
                     if line.startswith(b"step ")), [])
    else:
        raise ValueError(f"unsupported header {first[:40]!r}")
    if len(step) != 2 or step[0] != b"step":
        raise ValueError("no step record")
    return int(first.split()[1]), int(step[1])


def verify_checkpoint(path: str) -> int:
    """Verify a checkpoint file on its own; return its step."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return checkpoint_step(data)[1]
    except ValueError as e:
        fail(f"{path}: {e}")
    return -1  # unreachable


def expect_rejected(data: bytes, what: str) -> None:
    try:
        checkpoint_step(data)
    except ValueError as e:
        note(f"verifier rejects {what}: {e}")
        return
    fail(f"verifier accepted {what}")


def verify_manifest(run_dir: str) -> list:
    """Verify MANIFEST integrity; return its ring as [(step, file)].

    Every listed file that exists must match its entry's checksum; whether
    a missing one is allowed is audit()'s call. Returns None when the
    MANIFEST is absent or torn (tolerated; the caller then requires the
    directory-scan fallback to work instead).
    """
    path = os.path.join(run_dir, "MANIFEST")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        text = f.read()
    footer_at = text.rfind(FOOTER_TAG)
    if footer_at < 0 or (footer_at != 0 and text[footer_at - 1 : footer_at] != b"\n"):
        note(f"MANIFEST torn (no footer, {len(text)} bytes); scan fallback required")
        return None
    try:
        check_footer(text, footer_at)
    except ValueError:
        note("MANIFEST torn (footer checksum mismatch); scan fallback required")
        return None
    lines = text[:footer_at].decode().splitlines()
    if not lines or lines[0] != "sdcmd-manifest 1":
        fail(f"MANIFEST verified its checksum but has bad header: {lines[:1]}")
    ring = []
    for line in lines[1:]:
        kind, step, fname, csum = line.split()
        if kind != "entry":
            fail(f"MANIFEST unexpected record '{kind}'")
        full = os.path.join(run_dir, fname)
        if os.path.exists(full):
            with open(full, "rb") as f:
                actual = fnv1a64(f.read())
            if actual != int(csum, 16):
                fail(f"MANIFEST checksum for {fname} does not match the file")
        ring.append((int(step), fname))
    return ring


def audit(run_dir: str, keep: int, prev_best: int, cycle: str) -> int:
    """Audit the run directory after a kill; return the newest valid step.

    Models RunDir::commit exactly: checkpoint rename, run_state.json
    rename, prune, MANIFEST rename. A kill between the first and the last
    leaves one checksum-valid generation newer than the MANIFEST head that
    it does not list and, once the prune ran, the MANIFEST's oldest entry
    missing. Any other difference between MANIFEST and disk is a fault.
    """
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
    unlisted = []
    if ring:
        listed = [step for step, _ in ring]
        head = max(listed)
        unlisted = sorted(set(steps) - set(listed))
        if any(step < head for step in unlisted):
            fail(f"[{cycle}] generation(s) {unlisted} on disk are unlisted "
                 f"and not all newer than the MANIFEST head {head}")
        if len(unlisted) > 1:
            fail(f"[{cycle}] {len(unlisted)} generations {unlisted} newer "
                 f"than the MANIFEST head {head}; a commit leaves at most one")
        missing = sorted(set(listed) - set(steps))
        if missing and (missing != [min(listed)] or not unlisted):
            fail(f"[{cycle}] MANIFEST lists missing generation(s) {missing}; "
                 f"only the oldest ({min(listed)}) may be pruned, and only "
                 f"once a newer generation is on disk")

    best = max(steps)
    if best < prev_best:
        fail(f"[{cycle}] newest step went backwards: {best} < {prev_best}")
    note(
        f"[{cycle}] audit ok: ring={sorted(steps, reverse=True)} "
        f"manifest={'ok' if ring is not None else 'torn/absent'} "
        f"unlisted={unlisted} tmp={len(tmps)}"
    )
    return best


def expect_audit_failure(args, what: str, doctor) -> None:
    """Audit a doctored copy of the run directory; it must fail."""
    copy = args.run_dir + ".doctored"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(args.run_dir, copy)
    doctor(copy)
    try:
        audit(copy, args.keep, -1, f"doctored: {what}")
    except DrillFailure as e:
        note(f"audit rejects {what}: {e}")
        return
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    fail(f"audit accepted {what}")


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


def check_resumed_at(out: str, step: int, tag: str) -> None:
    m = RESUMED_RE.search(out)
    if not (m and int(m.group(1)) == step):
        fail(f"[{tag}] did not resume step {step}:\n{out}")
    check_resume_output(out, tag)


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
    lines = text[: text.rfind(FOOTER_TAG)].decode().splitlines()
    head = lines.pop(1)  # lines[0] is the header
    body = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as f:
        f.write(body + b"checksum fnv1a64 %016x\n" % fnv1a64(body))
    return int(head.split()[1])


def ring_versions(run_dir: str) -> dict:
    """{step: checkpoint format version} for every ring file on disk."""
    versions = {}
    for name in os.listdir(run_dir):
        if CKPT_RE.match(name):
            with open(os.path.join(run_dir, name), "rb") as f:
                version, step = checkpoint_step(f.read())
            versions[step] = version
    return versions


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
    audit(args.run_dir, args.keep, 2 * every, "window: pre-resume")
    expect_audit_failure(args, "two unlisted newer generations",
                         drop_manifest_head)
    expect_audit_failure(
        args, "a missing MANIFEST entry that is not the oldest",
        lambda d: os.remove(os.path.join(d, checkpoint_name(every))))

    with open(os.path.join(args.run_dir, checkpoint_name(2 * every)), "rb") as f:
        newest = f.read()
    if checkpoint_step(newest)[0] != 3:
        fail("[window] the newest generation is not checkpoint format v3")
    array_at = len(newest) // 2
    expect_rejected(newest[:array_at] + newest[array_at + 64:],
                    "a v3 file with a truncated array")
    expect_rejected(newest[:array_at] + bytes([newest[array_at] ^ 1]) +
                    newest[array_at + 1:], "a v3 file with one flipped bit")

    out = run_to(args, 3 * every, True, "window: resume")
    check_resumed_at(out, 2 * every, "window: resume")
    if "stale sidecar" in out:
        fail(f"[window: resume] called the newer sidecar stale:\n{out}")
    best = audit(args.run_dir, args.keep, 2 * every, "window: final")
    if best != 3 * every:
        fail(f"[window: final] ring head is step {best}, expected {3 * every}")
    note(f"PASS: resumed the proven step {2 * every} across the "
         f"sidecar/MANIFEST window")


def legacy_ring_drill(args) -> None:
    """Resume an older build's ring, commit v3 on top, resume the mix."""
    if os.path.exists(args.run_dir):
        fail(f"--run-dir {args.run_dir} exists; the drill copies the ring there")
    shutil.copytree(args.legacy_ring, args.run_dir)
    start = audit(args.run_dir, args.keep, -1, "legacy: as written")
    old = set(ring_versions(args.run_dir).values())
    if 3 in old:
        fail(f"[legacy] {args.legacy_ring} already holds v3 generations")
    every = args.checkpoint_every
    out = run_to(args, start + every, True, "legacy: resume")
    check_resumed_at(out, start, "legacy: resume")
    audit(args.run_dir, args.keep, start + every, "legacy: after v3 commits")
    versions = ring_versions(args.run_dir)
    if not (old & set(versions.values()) and 3 in versions.values()):
        fail(f"[legacy] ring is not mixed: {versions}")
    out = run_to(args, start + 2 * every, True, "legacy: resume mixed ring")
    check_resumed_at(out, start + every, "legacy: resume mixed ring")
    best = audit(args.run_dir, args.keep, start + 2 * every, "legacy: final")
    if best != start + 2 * every:
        fail(f"[legacy: final] ring head is step {best}")
    formats = "/".join(f"v{version}" for version in sorted(old))
    note(f"PASS: resumed the {formats} ring at step {start}, committed v3 "
         f"on top, resumed the mixed ring {versions}")


def kill_drill(args) -> None:
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
    note(f"PASS: {args.cycles} kill-resume cycles, monotone steps, "
         f"valid ring, energy continuous")


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
    ap.add_argument("--legacy-ring", default=None, metavar="DIR",
                    help="resume a copy of the ring in DIR (written by an "
                         "older build) instead of kills")
    args = ap.parse_args()

    if not (os.path.isfile(args.binary) and os.access(args.binary, os.X_OK)):
        print(f"chaos_resume: FAIL: binary not executable: {args.binary}",
              file=sys.stderr)
        sys.exit(1)

    cleanup = None
    if args.run_dir is None:
        cleanup = tempfile.mkdtemp(prefix="chaos_resume.")
        args.run_dir = os.path.join(cleanup, "run.d")

    try:
        if args.window_drill:
            window_drill(args)
        elif args.legacy_ring:
            legacy_ring_drill(args)
        else:
            kill_drill(args)
    except DrillFailure as e:
        print(f"chaos_resume: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
    if cleanup:
        shutil.rmtree(cleanup, ignore_errors=True)


if __name__ == "__main__":
    main()
