#!/usr/bin/env python3
"""Validate the machine-readable bench artifacts against their schemas.

Used by the CI bench-smoke job (and handy locally) to verify that:
  * --bench FILE   is a sdcmd.bench.v1 report with the required envelope
                   and at least one result row carrying the given columns;
  * --jsonl FILE   is sdcmd.step_metrics.v1 JSONL whose records include
                   per-color/per-phase sweep profiles with imbalance and
                   barrier-wait statistics;
  * --trace FILE   is a Chrome trace-event document Perfetto can load
                   (a traceEvents array with complete events).

Exits non-zero with a message on the first violation.
"""

from __future__ import annotations

import argparse
import json
import sys

SWEEP_KEYS = {
    "phase",
    "color",
    "threads",
    "work_max_s",
    "work_mean_s",
    "work_min_s",
    "imbalance",
    "wait_max_s",
    "wait_mean_s",
}


def fail(message: str) -> None:
    sys.exit(f"validate_bench_output: {message}")


def check_bench(
    path: str, require_columns: list[str], require_cases: list[str]
) -> None:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "sdcmd.bench.v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, want sdcmd.bench.v1")
    for key in ("bench", "context", "results"):
        if key not in doc:
            fail(f"{path}: missing top-level key {key!r}")
    if not isinstance(doc["results"], list) or not doc["results"]:
        fail(f"{path}: results must be a non-empty array")
    for row in doc["results"]:
        for col in require_columns:
            if col not in row:
                fail(f"{path}: result row missing column {col!r}: {row}")
        # Latency histograms must be internally consistent: a row that
        # carries percentile columns must order them.
        if all(k in row for k in ("p50_ms", "p95_ms", "p99_ms")):
            if not row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]:
                fail(
                    f"{path}: percentiles out of order in row "
                    f"{row.get('case')!r}: p50={row['p50_ms']} "
                    f"p95={row['p95_ms']} p99={row['p99_ms']}"
                )
    feasible = [r for r in doc["results"] if r.get("feasible")]
    if not feasible:
        fail(f"{path}: no feasible result rows")
    seen_cases = {r.get("case") for r in doc["results"]}
    for case in require_cases:
        if case not in seen_cases:
            fail(
                f"{path}: no result row with case {case!r} "
                f"(saw {sorted(c for c in seen_cases if c)})"
            )
    print(
        f"{path}: ok - bench {doc['bench']!r}, {len(doc['results'])} rows "
        f"({len(feasible)} feasible)"
    )


def check_metric_prefix(path: str, prefix: str, records: list) -> str:
    """Prefix requirement (trailing dot, e.g. ``hw.``): at least one metric
    under the prefix must appear. The ``hw.`` family degrades gracefully:
    when the stream says ``<prefix>available == 0`` (perf_event_open denied
    or non-Linux) the availability gauge alone satisfies the check, but an
    *available* family must carry real data beyond it."""
    seen = {name for rec in records for name in rec["metrics"]}
    matches = {name for name in seen if name.startswith(prefix)}
    if not matches:
        fail(f"{path}: no metric under prefix {prefix!r} (saw {sorted(seen)})")
    avail_name = prefix + "available"
    if avail_name in matches:
        values = {
            rec["metrics"][avail_name]
            for rec in records
            if avail_name in rec["metrics"]
        }
        if values == {0}:
            return f"{prefix}* unavailable ({avail_name}=0)"
        # Counters claimed available: insist the family has real content.
        real = {
            name
            for name in matches - {avail_name}
            if any(rec["metrics"].get(name) for rec in records)
        }
        if not real:
            fail(
                f"{path}: {avail_name}=1 but every other {prefix}* metric "
                f"is zero or absent"
            )
    return f"{prefix}* x{len(matches)}"


def check_jsonl(
    path: str,
    require_metrics: list[str],
    require_sweep: bool,
    require_summary: bool,
) -> None:
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: invalid JSON: {e}")
    if not records:
        fail(f"{path}: no records")
    swept = 0
    for i, rec in enumerate(records):
        if rec.get("schema") != "sdcmd.step_metrics.v1":
            fail(f"{path}: record {i} schema is {rec.get('schema')!r}")
        if "step" not in rec or "metrics" not in rec:
            fail(f"{path}: record {i} missing step/metrics")
        for entry in rec.get("sweep", []):
            missing = SWEEP_KEYS - entry.keys()
            if missing:
                fail(f"{path}: sweep entry missing {sorted(missing)}")
            if entry["imbalance"] < 1.0:
                fail(f"{path}: imbalance < 1 in {entry}")
        if rec.get("sweep"):
            swept += 1
    if require_sweep and swept == 0:
        fail(f"{path}: no record carries sweep profiles")
    summaries = [r for r in records if r.get("kind") == "summary"]
    if require_summary and not summaries:
        fail(f"{path}: no kind=summary record")
    seen_metrics = {name for rec in records for name in rec["metrics"]}
    notes = []
    for name in require_metrics:
        if name.endswith("."):
            notes.append(check_metric_prefix(path, name, records))
        elif name not in seen_metrics:
            fail(
                f"{path}: no record carries metric {name!r} "
                f"(saw {sorted(seen_metrics)})"
            )
    phases = {
        e["phase"] for rec in records for e in rec.get("sweep", [])
    }
    print(
        f"{path}: ok - {len(records)} records ({len(summaries)} summary), "
        f"{swept} with sweep profiles, phases {sorted(phases)}"
        + (", " + ", ".join(notes) if notes else "")
    )


def check_trace(path: str) -> None:
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty array")
    phases = {e.get("ph") for e in events}
    if "X" not in phases:
        fail(f"{path}: no complete ('X') events; phases seen: {phases}")
    for e in events:
        if e.get("ph") == "X" and ("ts" not in e or "dur" not in e):
            fail(f"{path}: complete event missing ts/dur: {e}")
    named = [e for e in events if e.get("ph") == "M"]
    print(
        f"{path}: ok - {len(events)} events, {len(named)} thread-name "
        f"records, phases {sorted(p for p in phases if p)}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", help="sdcmd.bench.v1 JSON report")
    parser.add_argument(
        "--require-columns",
        default="case,threads,seconds_per_step,speedup,feasible",
        help="comma list of columns every bench result row must carry",
    )
    parser.add_argument(
        "--require-cases",
        default="",
        help="comma list of case names that must appear among the rows "
        "(e.g. density,embed,force)",
    )
    parser.add_argument("--jsonl", help="sdcmd.step_metrics.v1 JSONL file")
    parser.add_argument(
        "--require-metrics",
        default="",
        help="comma list of metric names that must appear in at least one "
        "JSONL record (e.g. governor.active_strategy,governor.demotions); "
        "a name with a trailing dot (e.g. 'hw.' or 'serve.') requires the "
        "whole family by prefix, soft-passing when <prefix>available=0 says "
        "the source degraded gracefully",
    )
    parser.add_argument(
        "--require-summary",
        action="store_true",
        help="require at least one kind=summary JSONL record (the "
        "cumulative end-of-run snapshot)",
    )
    parser.add_argument(
        "--no-require-sweep",
        action="store_true",
        help="accept JSONL without sweep profiles (runs without "
        "profile_sweep, e.g. the fault_drill governor scenario)",
    )
    parser.add_argument("--trace", help="Chrome trace-event JSON file")
    args = parser.parse_args()
    if not (args.bench or args.jsonl or args.trace):
        parser.error("nothing to validate: pass --bench/--jsonl/--trace")
    if args.bench:
        check_bench(
            args.bench,
            [c for c in args.require_columns.split(",") if c],
            [c for c in args.require_cases.split(",") if c],
        )
    if args.jsonl:
        check_jsonl(
            args.jsonl,
            [m for m in args.require_metrics.split(",") if m],
            not args.no_require_sweep,
            args.require_summary,
        )
    if args.trace:
        check_trace(args.trace)


if __name__ == "__main__":
    main()
