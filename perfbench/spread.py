"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload block-kdk-corehalo --seeds 1-10

Runs the benchmark command of BENCHMARK.json once per seed, one run at
a time, and prints for each end-to-end metric its median and its
inter-quartile range as a share of the median, next to the metric's
bound.  Raw result lines are appended to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", str(args.trace)]
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        took = time.monotonic() - t0
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"seed": seed, "seconds": took,
                                     "report": json.loads(lines[-2]),
                                     "result": result}) + "\n")
        print(f"seed {seed}: {took:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound")
              for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':<28} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  WIDE"
        print(f"{name:<28} {med:>14.6g} {share:>11.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
