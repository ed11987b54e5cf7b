"""Set-up probe: one fresh interpreter's path to a constructed
``ParallelBarnesHut`` (``import repro``, particle generation from the
seed, constructor).  Prints ``time.monotonic()`` when done; the parent
measures from just before it started this process.  Used by ``run.py``.
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports repro)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--n", type=int, default=None)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    w.simulation(w.particles(args.seed, args.n), checkpoint_dir=None)
    print(time.monotonic())


if __name__ == "__main__":
    main()
