"""Perf-regression bench: interaction-list engine vs reference traversal.

Times serial ``compute_forces`` (Plummer, monopole, the Section 5.1
setting) three ways on the same tree:

* ``reference`` — the classical single-pass walk
  (:func:`tests.oracles.traverse_reference`), kernels evaluated in
  walk order.  This is the seed implementation, kept verbatim.
* ``engine_cold`` — list-building walk + fused evaluation, lists built
  fresh (the first evaluation of a time-step).
* ``engine_warm`` — fused evaluation alone, repeated over interaction
  lists built once with ``build_interaction_lists`` (the evaluation
  pass without the walk).

Each timing is best-of-``reps`` process time.  The bench *validates
before it reports*: engine values must match the reference to 1e-12 and
the interaction counters (mac_tests, cluster_interactions,
p2p_interactions) must be exactly equal, else it exits nonzero.

Emits ``BENCH_traversal_engine.json`` with one entry per n.  Needs the
repository root on ``PYTHONPATH`` next to ``src`` (for ``tests.oracles``).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.bh.distributions import plummer
from repro.bh.interaction_lists import (TraversalEngine,
                                        build_interaction_lists,
                                        evaluate_interaction_lists)
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion
from repro.bh.tree import build_tree
from tests.oracles import traverse_reference

from bench_util import bench_case, emit_bench_json

ALPHA = 0.67
LEAF_CAPACITY = 8


def _best_of(fn, reps: int) -> tuple[float, object]:
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.process_time()
        out = fn()
        dt = time.process_time() - t0
        best = min(best, dt)
    return best, out


def bench_one(n: int, reps: int, seed: int = 1994) -> dict:
    particles = plummer(n, seed=seed)
    tree = build_tree(particles, leaf_capacity=LEAF_CAPACITY)
    mac = BarnesHutMAC(ALPHA)
    evaluator = MonopoleExpansion(tree)

    t_ref, ref = _best_of(
        lambda: traverse_reference(tree, particles, particles.positions,
                                   mac, evaluator, mode="force"),
        reps,
    )

    def cold():
        eng = TraversalEngine(tree, particles, mac)
        return eng.compute(particles.positions, evaluator, mode="force")

    t_cold, res_cold = _best_of(cold, reps)

    lists = build_interaction_lists(tree, particles.positions, mac)

    def warm():
        return evaluate_interaction_lists(tree, lists, particles,
                                          evaluator, mode="force")

    warm()                                      # scratch and P2P groups
    t_warm, res_warm = _best_of(warm, reps)

    # ---- validate before reporting
    for label, res in (("cold", res_cold), ("warm", res_warm)):
        diff = float(np.max(np.abs(res.values - ref.values)))
        if diff > 1e-12:
            raise SystemExit(
                f"n={n} {label}: engine deviates from reference by "
                f"{diff:.3e} (> 1e-12)"
            )
        counters_ok = (res.mac_tests == ref.mac_tests
                       and res.cluster_interactions ==
                       ref.cluster_interactions
                       and res.p2p_interactions == ref.p2p_interactions)
        if not counters_ok:
            raise SystemExit(f"n={n} {label}: interaction counters differ")

    return bench_case(
        f"n{n}",
        params={
            "n": n,
            "distribution": "plummer",
            "mode": "force",
            "degree": 0,
            "alpha": ALPHA,
            "leaf_capacity": LEAF_CAPACITY,
            "reps": reps,
        },
        metrics={
            "seconds_reference": t_ref,
            "seconds_engine_cold": t_cold,
            "seconds_engine_warm": t_warm,
            "speedup_cold": t_ref / t_cold,
            "speedup_warm": t_ref / t_warm,
            "max_abs_diff": float(np.max(np.abs(res_warm.values
                                                - ref.values))),
            "mac_tests": ref.mac_tests,
            "cluster_interactions": ref.cluster_interactions,
            "p2p_interactions": ref.p2p_interactions,
        },
        validated=True,    # counters + values checked above
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[10_000],
                    help="particle counts to bench (default: 10000)")
    ap.add_argument("--reps", type=int, default=3,
                    help="repetitions per timing (best-of, default 3)")
    ap.add_argument("--seed", type=int, default=1994)
    args = ap.parse_args(argv)

    entries = []
    for n in args.n:
        e = bench_one(n, args.reps, args.seed)
        entries.append(e)
        m = e["metrics"]
        print(f"n={n:>7}  ref {m['seconds_reference']:.3f}s  "
              f"cold {m['seconds_engine_cold']:.3f}s "
              f"({m['speedup_cold']:.2f}x)  "
              f"warm {m['seconds_engine_warm']:.3f}s "
              f"({m['speedup_warm']:.2f}x)  "
              f"max|diff| {m['max_abs_diff']:.2e}")
    path = emit_bench_json("traversal_engine", entries)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
