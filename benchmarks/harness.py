#!/usr/bin/env python3
"""Unified perf-regression harness: run, validate, track, compare.

Every perf bench in this directory emits a ``BENCH_<name>.json`` result
file; this harness is the one place that knows what those files must
look like (**schema v1**), how to run the benches that produce them,
and how to decide whether a new result is a regression against the
recorded trajectory.

Schema v1
---------
Top level::

    {
      "schema_version": 1,
      "bench": "<registry name>",
      "repro_version": "x.y.z",
      "python": "3.11.7",
      "entries": [ <entry>, ... ]          # non-empty
    }

Each entry::

    {
      "case": "spda/p4",                   # unique within the file
      "params": {"n": 20000, "p": 4, ...}, # scalar configuration knobs
      "metrics": {"wall_seconds": 1.2},    # non-empty, numbers only
      "validated": true,                   # correctness checks passed
      "context": {"cpu_count": 8, ...}     # optional, free-form scalars
    }

``params`` identify *what* was measured (two results are comparable
only when bench, case and params all match); ``metrics`` are the
measurements themselves; ``validated`` records that the bench's
built-in correctness cross-checks passed before any number was
reported.

``context`` carries host facts that are neither configuration nor
measurement (cpu counts, acceptance-target bookkeeping).  Two context
keys are special: ``kernel_tier`` and ``numba_version`` describe the
arithmetic backend that produced the numbers and *partition the
trajectory* — records whose tier or numba version differ are never
compared against each other (a numpy run regressing against a numba
run, or numbers from two different numba codegens, would be
meaningless).

Trajectory
----------
``run`` appends one JSON line per (bench, case) to
``results/trajectory.jsonl`` — the repo's long-term perf record
(``context`` is carried along when present).
``compare`` groups trajectory lines by (bench, case, params, and the
context tier keys above) and flags
metric movements beyond ``--threshold`` percent in the harmful
direction, inferred from the metric name (``seconds``/``time``/
``overhead``/``imbalance``/``bytes`` are lower-is-better;
``speedup``/``throughput``/``per_s`` higher-is-better; anything else
is informational and never flagged).

Usage
-----
::

    python harness.py run --smoke --report-only
    python harness.py run --bench traversal_engine
    python harness.py validate                 # all committed results
    python harness.py compare --threshold 15

``python -m repro bench`` forwards to ``run``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
TRAJECTORY = os.path.join(RESULTS_DIR, "trajectory.jsonl")
REPO_DIR = os.path.dirname(HERE)
SRC_DIR = os.path.join(REPO_DIR, "src")

SCHEMA_VERSION = 1
DEFAULT_THRESHOLD = 10.0      # percent
#: Metric movements are ignored when both values are below this — the
#: percent change of a 1e-15 float-tolerance metric is pure noise.
NOISE_FLOOR = 1e-9

#: Registered benches: script + extra argv for smoke / full mode.
#: Only benches that emit a schema-v1 ``BENCH_<name>.json`` and can run
#: standalone belong here (the pytest-benchmark table benches are run
#: through pytest instead).
BENCHES: dict[str, dict] = {
    "traversal_engine": {
        "script": "bench_traversal_engine.py",
        "smoke": ["--n", "2000", "--reps", "2"],
        "full": [],
    },
    "tree_pipeline": {
        "script": "bench_tree_pipeline.py",
        "smoke": ["--smoke"],
        "full": [],
    },
    "process_backend": {
        "script": "bench_process_backend.py",
        "smoke": ["--smoke"],
        "full": [],
    },
    "process_recovery": {
        "script": "bench_process_recovery.py",
        "smoke": ["--smoke"],
        "full": [],
    },
    "compiled_kernels": {
        "script": "bench_compiled_kernels.py",
        "smoke": ["--smoke"],
        "full": [],
    },
    "adaptive_timesteps": {
        "script": "bench_adaptive_timesteps.py",
        "smoke": ["--smoke"],
        "full": [],
    },
}

_SCALAR = (str, int, float, bool, type(None))


# ------------------------------------------------------------ validation
def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_entry(entry, where: str) -> list[str]:
    """Schema-v1 errors for one entry (empty list = valid)."""
    errs: list[str] = []
    if not isinstance(entry, dict):
        return [f"{where}: entry is not an object"]
    case = entry.get("case")
    if not isinstance(case, str) or not case:
        errs.append(f"{where}: 'case' must be a non-empty string")
    params = entry.get("params")
    if not isinstance(params, dict):
        errs.append(f"{where}: 'params' must be an object")
    else:
        for k, v in params.items():
            if not isinstance(v, _SCALAR):
                errs.append(f"{where}: params[{k!r}] is not a scalar")
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        errs.append(f"{where}: 'metrics' must be a non-empty object")
    else:
        for k, v in metrics.items():
            if not _is_number(v):
                errs.append(f"{where}: metrics[{k!r}] is not a number")
    if not isinstance(entry.get("validated"), bool):
        errs.append(f"{where}: 'validated' must be a boolean")
    if "context" in entry and not isinstance(entry["context"], dict):
        errs.append(f"{where}: 'context' must be an object")
    unknown = set(entry) - {"case", "params", "metrics", "validated",
                            "context"}
    if unknown:
        errs.append(f"{where}: unknown entry keys {sorted(unknown)}")
    return errs


def validate_doc(doc, path: str) -> list[str]:
    """Schema-v1 errors for one ``BENCH_*.json`` document."""
    errs: list[str] = []
    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        errs.append(f"{path}: schema_version must be {SCHEMA_VERSION}, "
                    f"got {doc.get('schema_version')!r}")
    for key in ("bench", "repro_version", "python"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            errs.append(f"{path}: {key!r} must be a non-empty string")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        errs.append(f"{path}: 'entries' must be a non-empty list")
        return errs
    cases = []
    for i, entry in enumerate(entries):
        errs.extend(validate_entry(entry, f"{path}: entries[{i}]"))
        if isinstance(entry, dict) and isinstance(entry.get("case"), str):
            cases.append(entry["case"])
    dupes = sorted({c for c in cases if cases.count(c) > 1})
    if dupes:
        errs.append(f"{path}: duplicate case names {dupes}")
    return errs


def validate_trajectory_line(obj, where: str) -> list[str]:
    """Schema errors for one trajectory.jsonl record."""
    errs: list[str] = []
    if not isinstance(obj, dict):
        return [f"{where}: record is not an object"]
    entry = {k: obj.get(k) for k in
             ("case", "params", "metrics", "validated") if k in obj}
    errs.extend(validate_entry(entry, where))
    if obj.get("schema_version") != SCHEMA_VERSION:
        errs.append(f"{where}: schema_version must be {SCHEMA_VERSION}")
    for key in ("bench", "repro_version", "python", "source"):
        if not isinstance(obj.get(key), str) or not obj.get(key):
            errs.append(f"{where}: {key!r} must be a non-empty string")
    return errs


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def cmd_validate(args) -> int:
    paths = args.paths or sorted(
        glob.glob(os.path.join(RESULTS_DIR, "BENCH_*.json")))
    errs: list[str] = []
    for path in paths:
        try:
            doc = _load_json(path)
        except (OSError, ValueError) as exc:
            errs.append(f"{path}: unreadable: {exc}")
            continue
        errs.extend(validate_doc(doc, os.path.basename(path)))
    if (not args.paths) and os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as fh:
            for ln, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    errs.append(f"trajectory.jsonl:{ln}: bad JSON: {exc}")
                    continue
                errs.extend(validate_trajectory_line(
                    obj, f"trajectory.jsonl:{ln}"))
    for e in errs:
        print(f"SCHEMA: {e}", file=sys.stderr)
    n_traj = (sum(1 for line in open(TRAJECTORY) if line.strip())
              if (not args.paths) and os.path.exists(TRAJECTORY) else 0)
    print(f"validated {len(paths)} result file(s)"
          + (f" + {n_traj} trajectory record(s)" if n_traj else "")
          + f": {'FAIL' if errs else 'ok'}")
    return 1 if errs else 0


# ------------------------------------------------------------ trajectory
def _append_trajectory(doc: dict, source: str) -> int:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(TRAJECTORY, "a") as fh:
        for entry in doc["entries"]:
            rec = {
                "schema_version": SCHEMA_VERSION,
                "bench": doc["bench"],
                "case": entry["case"],
                "repro_version": doc["repro_version"],
                "python": doc["python"],
                "params": entry["params"],
                "metrics": entry["metrics"],
                "validated": entry["validated"],
                "source": source,
            }
            if "context" in entry:
                rec["context"] = entry["context"]
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return len(doc["entries"])


def _read_trajectory() -> list[dict]:
    if not os.path.exists(TRAJECTORY):
        return []
    out = []
    with open(TRAJECTORY) as fh:
        for line in fh:
            if line.strip():
                out.append(json.loads(line))
    return out


# --------------------------------------------------------------- compare
_LOWER_BETTER = ("seconds", "time", "overhead", "imbalance", "bytes",
                 "messages", "rollback", "diff")
_HIGHER_BETTER = ("speedup", "throughput", "per_s", "rate")


def metric_direction(name: str) -> str | None:
    """'lower' / 'higher' = that direction is better; None = untracked."""
    low = name.lower()
    for token in _HIGHER_BETTER:
        if token in low:
            return "higher"
    for token in _LOWER_BETTER:
        if token in low:
            return "lower"
    return None


def _series_key(rec: dict) -> tuple:
    # The kernel tier (and the numba version behind it) changes what the
    # numbers mean: never compare across tiers or numba codegens.
    ctx = rec.get("context") or {}
    return (rec["bench"], rec["case"],
            json.dumps(rec.get("params", {}), sort_keys=True),
            ctx.get("kernel_tier"), ctx.get("numba_version"))


def compare_records(records: list[dict],
                    threshold: float) -> tuple[list[str], list[str]]:
    """(report lines, regression lines) comparing each series' newest
    record against its previous one."""
    series: dict[tuple, list[dict]] = {}
    for rec in records:
        series.setdefault(_series_key(rec), []).append(rec)
    report: list[str] = []
    regressions: list[str] = []
    for key in sorted(series):
        hist = series[key]
        if len(hist) < 2:
            continue
        old, new = hist[-2], hist[-1]
        label = f"{new['bench']}/{new['case']}"
        for name in sorted(new["metrics"]):
            if name not in old["metrics"]:
                continue
            ov, nv = old["metrics"][name], new["metrics"][name]
            if max(abs(ov), abs(nv)) < NOISE_FLOOR:
                continue
            pct = (nv - ov) / abs(ov) * 100.0 if ov else float("inf")
            direction = metric_direction(name)
            worse = (direction == "lower" and pct > threshold) or \
                    (direction == "higher" and -pct > threshold)
            flag = "REGRESSION" if worse else (
                "" if direction else "(untracked)")
            line = (f"{label:<40s} {name:<28s} "
                    f"{ov:>12.6g} -> {nv:>12.6g} {pct:>+8.1f}%  {flag}")
            report.append(line.rstrip())
            if worse:
                regressions.append(line.rstrip())
    return report, regressions


def cmd_compare(args) -> int:
    records = _read_trajectory()
    if not records:
        print("no trajectory records; run `python harness.py run` first")
        return 0
    report, regressions = compare_records(records, args.threshold)
    if not report:
        print("no comparable series yet (each (bench, case, params) "
              "series needs two records)")
        return 0
    print(f"trajectory comparison (threshold {args.threshold:.0f}%):")
    for line in report:
        print("  " + line)
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0f}%", file=sys.stderr)
        return 0 if args.report_only else 1
    print("\nno regressions")
    return 0


# ------------------------------------------------------------------- run
def cmd_run(args) -> int:
    names = args.bench or sorted(BENCHES)
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        print(f"unknown bench(es) {unknown}; registered: "
              f"{sorted(BENCHES)}", file=sys.stderr)
        return 2
    failures = []
    for name in names:
        spec = BENCHES[name]
        argv = [sys.executable, os.path.join(HERE, spec["script"])]
        argv += spec["smoke"] if args.smoke else spec["full"]
        # Benches import repro from the source tree and the oracles
        # from tests/; absolutize both so the child works regardless of
        # the caller's cwd/PYTHONPATH.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + REPO_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        print(f"== {name}: {' '.join(argv[1:])}")
        rc = subprocess.call(argv, cwd=HERE, env=env)
        if rc != 0:
            failures.append((name, f"exit status {rc}"))
            continue
        path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
        try:
            doc = _load_json(path)
        except (OSError, ValueError) as exc:
            failures.append((name, f"unreadable result: {exc}"))
            continue
        errs = validate_doc(doc, os.path.basename(path))
        if errs:
            for e in errs:
                print(f"SCHEMA: {e}", file=sys.stderr)
            failures.append((name, f"{len(errs)} schema error(s)"))
            continue
        if not args.no_append:
            n = _append_trajectory(
                doc, "smoke" if args.smoke else "full")
            print(f"   appended {n} record(s) to trajectory.jsonl")
    print()
    for name, why in failures:
        print(f"BENCH FAILED: {name}: {why}", file=sys.stderr)
    compare_rc = cmd_compare(args)
    return 1 if failures else compare_rc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        prog="harness.py")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run registered benches, validate "
                                     "and append to the trajectory, "
                                     "then compare")
    run.add_argument("--smoke", action="store_true",
                     help="tiny problem sizes (CI-friendly)")
    run.add_argument("--bench", action="append", metavar="NAME",
                     help="run only this bench (repeatable)")
    run.add_argument("--no-append", action="store_true",
                     help="skip the trajectory append")

    val = sub.add_parser("validate",
                         help="schema-check result files (default: all "
                              "committed BENCH_*.json + trajectory)")
    val.add_argument("paths", nargs="*",
                     help="specific result files (default: all)")

    comp = sub.add_parser("compare",
                          help="flag metric regressions between each "
                               "series' two newest trajectory records")

    for cmd in (run, comp):
        cmd.add_argument("--threshold", type=float,
                         default=DEFAULT_THRESHOLD, metavar="PCT",
                         help=f"regression threshold in percent "
                              f"(default {DEFAULT_THRESHOLD:.0f})")
        cmd.add_argument("--report-only", action="store_true",
                         help="report regressions without failing")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "compare":
        return cmd_compare(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
