#!/usr/bin/env python3
"""Run one sdcmd benchmark workload and print its result as the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload fe54k_nve --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --test          # the benchmark's own tests

Each call builds the benchmark (the repository's libraries plus the program
under perfbench/, into .bench_build/), gives the run a fresh scratch root,
pins it to two CPUs, runs the workload in its own process and relays its
output. The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1),
checked against BENCHMARK.json and in its order.
The line before it records the host (nproc, load average, CPU steal) at
the start and end of the run. Build output goes to stderr. A run that
cannot build or does not finish exits non-zero and prints no result.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("fe54k_nve", "void48k_npt", "serve_fleet")
# Every workload uses two of the host's cores (README.md, "Threads").
CPUS_PER_RUN = 2
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Layers that run inside the server on serve_fleet, out of the benchmark's
# reach (README.md, "Per-layer metrics").
SERVER_INTERNAL = ("md.", "neighbor.", "domain.", "core.",
                   "run.checkpoint_retries", "run.resume_ms")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build `target` incrementally. Exits 2 on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                      "-j", jobs])
        for cmd in steps:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
            if rc != 0:
                log(f"build failed: {' '.join(cmd)}")
                sys.exit(2)


def host_snapshot():
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    with open("/proc/stat") as f:
        cpu = [int(x) for x in f.readline().split()[1:]]
    return {"nproc": os.cpu_count(), "loadavg": load,
            "steal_jiffies": cpu[7] if len(cpu) > 7 else 0,
            "total_jiffies": sum(cpu[:8])}


def run_cpus():
    """The last CPUS_PER_RUN CPUs this process may use: CPU 0 usually
    carries interrupts and the harness."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-CPUS_PER_RUN:]


def child_env(workload):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(CPUS_PER_RUN)
    env["OMP_DYNAMIC"] = "false"
    if workload == "serve_fleet":
        # The server's workers are std::threads that inherit the main
        # thread's mask; binding the initial OpenMP thread would squeeze
        # them all onto one CPU. The process mask alone confines them.
        env.pop("OMP_PROC_BIND", None)
        env.pop("OMP_PLACES", None)
    else:
        env["OMP_PROC_BIND"] = "close"
        env["OMP_PLACES"] = "cores"
    return env


def unreachable(workload, name):
    """A per-layer metric `workload` cannot reach; a traced run reports 0."""
    if workload == "serve_fleet":
        return name.startswith(SERVER_INTERNAL)
    return name.startswith("serve.")


def checked_metrics(measured, workload, trace):
    """`measured` in BENCHMARK.json's order, or None (after logging why)
    when a name or unit disagrees with it or a reachable metric is missing."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    extra = set(measured) - {m["name"] for m in spec}
    if extra:
        log(f"metrics not in BENCHMARK.json: {sorted(extra)}")
        return None
    out = {}
    for m in spec:
        got = measured.get(m["name"])
        if got is None:
            if not (trace and unreachable(workload, m["name"])):
                log(f"workload did not measure {m['name']}")
                return None
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"{m['name']} measured in {got['unit']}, not {m['unit']}")
            return None
        out[m["name"]] = got
    return out


def run_workload(args):
    build("perfbench")
    binary = os.path.join(BUILD_DIR, "perfbench")
    # Relative to ROOT (the child's cwd), so the AF_UNIX socket path under
    # it stays short wherever the checkout lives.
    scratch = os.path.join(".bench_build", "scratch",
                           f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        os.makedirs(os.path.join(ROOT, scratch))
    except FileExistsError:
        log(f"scratch root {scratch} already exists; refusing to reuse it")
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-s{args.seed}.trace.json")]
    cpus = run_cpus()
    start = host_snapshot()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(args.workload),
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 3
    finally:
        # Also reached on SIGTERM (see main): never leave the child behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
    end = host_snapshot()

    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        log(f"workload exited with code {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(stdout)
        log("workload printed no result line")
        return 1
    result["metrics"] = checked_metrics(result["metrics"], args.workload,
                                        args.trace)
    if result["metrics"] is None:
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": {"cpus": cpus, "start": start, "end": end}}))
    print(json.dumps(result), flush=True)
    return 0


def run_tests():
    build("perfbench_tests")
    binary = os.path.join(BUILD_DIR, "perfbench_tests")
    if not os.path.exists(binary):
        log("GTest not found; the benchmark's tests were not built")
        return 2
    cpus = run_cpus()
    # The tests write their scratch directories into the working directory.
    return subprocess.run([binary], cwd=BUILD_DIR, env=child_env("tests"),
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus)
                          ).returncode


def main():
    # SIGTERM unwinds through run_workload's cleanup, which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()
    if args.test:
        return run_tests()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
