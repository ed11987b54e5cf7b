"""Self-test of the benchmark at tiny n.

    python3 perfbench/selftest.py

Runs every workload end to end through the real command line, untraced
and traced, and prints every metric named in BENCHMARK.json with its
unit.  It fails (exit code 1) when a run is not correct, when a metric
is missing or carries the wrong unit, when tracing changes any
deterministic result, when the coverage split between the workloads no
longer holds, or when the benchmark does not refuse to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_N = 2000


def invoke(workload: str, trace: int, root: Path = ROOT
           ) -> tuple[int, list[dict]]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.1",
           "--trace", str(trace), "--n", str(TINY_N)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=170)
    lines = [json.loads(x) for x in out.stdout.splitlines()
             if x.startswith("{")]
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
    return out.returncode, lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    walks: dict[str, float] = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        reports = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = invoke(name, trace)
            if code != 0 or len(lines) < 2:
                problems.append(f"{name} trace={trace}: exit {code}")
                continue
            report, result = lines[-2]["report"], lines[-1]
            reports[trace] = report
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace={trace}: result keys "
                                f"{sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: not correct")
            print(f"{name} (trace={trace}, n={report['n']}, "
                  f"attempted={result['attempted']}, "
                  f"failed={result['failed']})")
            for m in spec[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name}: metric {m['name']} missing "
                                    f"or wrong unit: {got}")
                    continue
                print(f"  {m['name']:<28} {got['value']:<24.6g} "
                      f"{m['unit']}")
            if set(result["metrics"]) != {m["name"] for m in spec[group]}:
                problems.append(f"{name}: metrics other than "
                                f"BENCHMARK.json's {group}")
        if len(reports) == 2:
            # The traced run also checks energy; compare what both report.
            a, b = reports[0]["deterministic"], reports[1]["deterministic"]
            diff = {k for k in a.keys() & b.keys() if a[k] != b[k]}
            if diff or not {"virtual_step_s", "force_rel_err"} <= a.keys():
                problems.append(f"{name}: tracing changed deterministic "
                                f"results: {a} != {b}")
            walks[name] = a["walks_built"] / reports[0]["steps"]
    if {"block-kdk-corehalo", "multipole-dpda-process"} <= set(walks) and \
            not walks["block-kdk-corehalo"] > walks["multipole-dpda-process"]:
        problems.append(f"coverage: walk calls per step {walks}")

    # Without the program's sources the benchmark must refuse to run.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = invoke("block-kdk-corehalo", 0, root=bare)
        if code == 0 or lines:
            problems.append("bare directory: benchmark did not refuse")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
