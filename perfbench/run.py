"""Canonical step benchmark of the parallel Barnes-Hut simulation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload block-kdk-corehalo --seed 1 \\
        --seconds 48 --trace 0

Each sample is one ``ParallelBarnesHut(...).run()`` of the workload's
steps on particles generated from ``--seed``.  Samples repeat until
``--seconds`` of sampling are used.  Every sample is gated before any
of its numbers is kept: values and positions must be finite, every
deterministic output must be bitwise equal across the samples of the
run, and the first sample's values must lie within the workload's error
tolerance against direct summation.  A sample that raises or fails the
gate counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; their
times are scaled to a reference host speed (``hostspeed.py``) and the
raw wall times are in the report.  ``--trace 1`` alternates untraced and
traced samples, checks energy conservation, and reports the per-layer
metrics (see ``layers.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The line before it is a ``{"report": ...}`` object with provenance and
the sample distribution.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Serial floor: evaluations repeat up to this count or this many
#: seconds, whichever comes first; ``serial_force_s`` is their median.
SERIAL_REPEATS = 3
SERIAL_SECONDS = 8.0
#: Particles in the fixed accuracy sample (4x the 512 first planned: the
#: median error of 512 particles moved by several percent between seeds).
ERR_SAMPLE = 2048
#: Particles in the untimed warm-up run.
WARMUP_N = 600


class GateError(RuntimeError):
    """A sample's output failed the correctness gate."""


# --------------------------------------------------------------- helpers
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def provenance(kernel_tier: str) -> dict:
    import importlib.util

    import numpy as np
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_tier": kernel_tier,
    }


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


# ---------------------------------------------------------------- samples
def run_sample(w, particles, tmp: str, index: int, tracer=None) -> dict:
    """One timed ``run()`` of the workload; returns its outputs."""
    ckpt = os.path.join(tmp, f"ckpt{index}") if w.checkpoint else None
    sim = w.simulation(particles, ckpt)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        res = sim.run(steps=w.steps, dt=w.dt)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    counters = res.metrics_summary()
    built, reused = res.walk_reuse()
    ship = [sr.force for step in res.steps for sr in step]
    return {
        "wall": wall,
        "kernel_tier": sim.kernel_tier,
        "values": res.values,
        "positions": res.positions,
        "velocities": res.velocities,
        "det": {
            "virtual_step_s": res.parallel_time / w.steps,
            "messages": res.run.total_messages,
            "bytes": res.run.total_bytes,
            "walks_built": built,
            "walks_reused": reused,
            "interactions": res.force_computations(),
            "records": sum(f.records_shipped for f in ship),
            "bins": sum(f.ship.request_bins_sent for f in ship),
        },
        "counters": {name: counters.counter(name).value
                     for name in ("timestep.substeps",
                                  "timestep.force_targets")},
    }


def check_sample(w, s: dict, ref: dict | None) -> None:
    """Cheap per-sample gate: finite outputs, coverage, and bitwise
    equality of every deterministic output with the run's first
    sample."""
    import numpy as np
    for key in ("values", "positions", "velocities"):
        if not np.isfinite(s[key]).all():
            raise GateError(f"non-finite {key}")
    if w.walks_per_particle_step:
        op, split = w.walks_per_particle_step
        rate = s["det"]["walks_built"] / (w.steps * s["positions"].shape[0])
        if (rate > split) != (op == ">"):
            raise GateError(f"list walks per particle-step {rate:.3f} not "
                            f"{op} {split}: the workload no longer "
                            f"exercises the layer it was chosen for")
    if ref is None:
        return
    if s["det"] != ref["det"]:
        raise GateError(f"deterministic outputs differ between samples: "
                        f"{s['det']} != {ref['det']}")
    for key in ("values", "positions", "velocities"):
        if not np.array_equal(s[key], ref[key]):
            raise GateError(f"{key} differ bitwise between samples")


def accuracy(w, particles, ref: dict, energy: bool) -> dict:
    """Error against direct summation and, with ``energy`` on a
    stepping workload, energy conservation of the reference sample;
    raises :class:`GateError` past the workload's tolerances."""
    import numpy as np
    from repro.bh.direct import direct_forces, direct_potentials
    from repro.bh.particles import ParticleSet
    eps = w.config.softening
    n = particles.n
    idx = np.sort(np.random.default_rng(0).choice(
        n, size=min(ERR_SAMPLE, n), replace=False))
    # The values were computed at the final positions: a block macro
    # step ends with a force round for every particle after the last
    # drift, and a force-only run never moves.
    pos, vel = ref["positions"], ref["velocities"]
    final = ParticleSet(pos, particles.masses)
    if w.config.mode == "force":
        exact = direct_forces(final, pos[idx], softening=eps, chunk=256)
        err = (np.linalg.norm(ref["values"][idx] - exact, axis=1)
               / np.linalg.norm(exact, axis=1))
    else:
        exact = direct_potentials(final, pos[idx], softening=eps,
                                  chunk=256)
        err = np.abs(ref["values"][idx] - exact) / np.abs(exact)
    force_rel_err = float(np.median(err))
    if not force_rel_err <= w.err_tol:
        raise GateError(f"force_rel_err {force_rel_err:.3e} exceeds the "
                        f"workload tolerance {w.err_tol:.1e}")

    if w.dt is None or not energy:
        return {"force_rel_err": force_rel_err}

    def total_energy(ps: ParticleSet) -> float:
        phi = direct_potentials(ps, softening=eps, chunk=256)
        return float(0.5 * np.dot(ps.masses, (ps.velocities ** 2).sum(1))
                     + 0.5 * np.dot(ps.masses, phi))
    e0 = total_energy(particles)
    e1 = total_energy(ParticleSet(pos, particles.masses, vel))
    drift = abs((e1 - e0) / e0)
    if not drift <= w.energy_tol:
        raise GateError(f"energy_drift {drift:.3e} exceeds the workload "
                        f"tolerance {w.energy_tol:.1e}")
    return {"force_rel_err": force_rel_err, "energy_drift": drift}


def serial_floor(w, particles, host) -> tuple[float, float]:
    """Median wall (raw, scaled) of one serial single-tree evaluation of
    the same particles and configuration."""
    import numpy as np
    from repro.bh.traversal import compute_forces, compute_potentials
    cfg = w.config
    raw: list[float] = []
    scaled: list[float] = []
    host.start()
    while len(raw) < SERIAL_REPEATS and sum(raw) < SERIAL_SECONDS:
        t0 = time.perf_counter()
        if cfg.mode == "force":
            res = compute_forces(particles, alpha=cfg.alpha,
                                 leaf_capacity=cfg.leaf_capacity,
                                 softening=cfg.softening)
        else:
            res = compute_potentials(particles, alpha=cfg.alpha,
                                     degree=cfg.degree,
                                     leaf_capacity=cfg.leaf_capacity,
                                     softening=cfg.softening)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * host.factor())
        if not np.isfinite(res.values).all():
            raise GateError("non-finite serial values")
    return statistics.median(raw), statistics.median(scaled)


def setup_time(w, seed: int, n: int | None, host) -> tuple[float, float]:
    """Median wall (raw, scaled) from a fresh interpreter to a
    constructed ``ParallelBarnesHut`` (import, particle generation,
    constructor)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", w.name, "--seed", str(seed)]
    if n is not None:
        cmd += ["--n", str(n)]
    times = []
    host.start()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    raw = statistics.median(times)
    return raw, raw * host.factor()


# ------------------------------------------------------------ per layer
def layer_metrics(w, s: dict, summary: dict) -> dict:
    from workloads import RANKS
    L = summary["layers"]
    det = s["det"]
    c = s["counters"]
    steps = w.steps

    def ratio(a, b):
        return a / b if b else 0.0

    walk, ev, rep = L["walk"], L["eval"], L["repair"]
    substeps = c.get("timestep.substeps", 0) / RANKS   # per rank
    n = s["positions"].shape[0]
    return {
        "walk.calls": walk["calls"],
        "walk.cpu_s": walk["cpu"],
        "walk.targets_per_call": ratio(walk.get("targets", 0),
                                       walk["calls"]),
        "walk.cache_hit_ratio": ratio(det["walks_reused"],
                                      det["walks_built"]
                                      + det["walks_reused"]),
        "eval.calls": ev["calls"],
        "eval.cpu_s": ev["cpu"],
        "eval.interactions": ev.get("interactions", 0),
        "eval.interactions_per_cpu_s": ratio(ev.get("interactions", 0),
                                             ev["cpu"]),
        "ship.cpu_s": L["ship"]["cpu"],
        "ship.records": det["records"],
        "ship.records_per_bin": ratio(det["records"], det["bins"]),
        "mailbox.calls": L["mailbox"]["calls"],
        "mailbox.cpu_s": L["mailbox"]["cpu"],
        "mailbox.wait_s": L["mailbox"]["wall"] - L["mailbox"]["cpu"],
        "comm.msgs_per_step": det["messages"] / steps,
        "comm.bytes_per_step": det["bytes"] / steps,
        "tree.calls": L["tree"]["calls"],
        "tree.cpu_s": L["tree"]["cpu"],
        "tree_merge.cpu_s": L["tree_merge"]["cpu"],
        "balance.cpu_s": L["balance"]["cpu"],
        "repair.calls": rep["calls"],
        "repair.cpu_s": rep["cpu"],
        "repair.fallback_ratio": ratio(rep.get("fallbacks", 0),
                                       rep["calls"]),
        "timestep.active_fraction": ratio(
            c.get("timestep.force_targets", 0), n * substeps),
        "checkpoint.calls": L["checkpoint"]["calls"],
        "checkpoint.wall_s": L["checkpoint"]["wall"],
        "checkpoint.bytes": L["checkpoint"].get("bytes", 0),
        "transport.calls": L["transport"]["calls"],
        "transport.cpu_s": L["transport"]["cpu"],
        "runtime.spawn_teardown_s": (summary["engine_wall"]
                                     - summary["rank_wall_max"]),
        "rank.cpu_s": summary["rank_cpu"],
        "other.cpu_s": summary["other_cpu"],
    }


def check_layers(w, s: dict, summary: dict) -> None:
    """The wrappers must see every call, and each workload must keep
    entering the layers it was chosen for."""
    L = summary["layers"]
    if L["walk"]["calls"] != s["det"]["walks_built"]:
        raise GateError(f"traced walk.calls {L['walk']['calls']} != "
                        f"walks built {s['det']['walks_built']}")
    if L["eval"].get("interactions", 0) != s["det"]["interactions"]:
        raise GateError("traced eval.interactions differ from the run's "
                        "interaction count")
    for layer, wanted in w.must_call.items():
        if (L[layer]["calls"] > 0) != wanted:
            raise GateError(f"coverage: {layer}.calls = "
                            f"{L[layer]['calls']}, expected "
                            f"{'> 0' if wanted else '== 0'}")


# ------------------------------------------------------------- the run
def measure(w, seed: int, seconds: float, trace: bool, tmp: str,
            n: int | None = None) -> tuple[dict, dict]:
    """Run one benchmark invocation with scratch directory ``tmp``;
    returns ``(report, result)``."""
    from hostspeed import HostSpeed
    from layers import LayerTracer, summarise

    particles = w.particles(seed, n)
    # Untimed warm-up: lazy imports, first calls and the worker start
    # path are paid once, outside the samples.
    run_sample(w, w.particles(seed, min(WARMUP_N, particles.n)), tmp,
               index=-1)
    host = HostSpeed()

    attempted = failed = 0
    untraced: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    ref = None
    t_start = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(untraced)
        tracer = (LayerTracer(tempfile.mkdtemp(prefix="trace-", dir=tmp))
                  if want_trace else None)
        attempted += 1
        t0 = time.perf_counter()
        try:
            s = run_sample(w, particles, tmp, attempted, tracer)
            s["scaled"] = s["wall"] * host.factor()
            check_sample(w, s, ref)
            if tracer is not None:
                summary = summarise(tracer.rank_tables(),
                                    tracer.engine_wall)
                check_layers(w, s, summary)
        except Exception as exc:    # a failed sample is counted, not fatal
            failed += 1
            print(f"sample {attempted} failed: {type(exc).__name__}: "
                  f"{exc}", file=sys.stderr)
            host.start()
        else:
            if ref is None:
                ref = s
            if tracer is not None:
                traced.append((s, summary))
            else:
                untraced.append(s)
        now = time.perf_counter()
        if ref is None and failed >= 2:
            break
        need_more = trace and failed == 0 and not (traced and untraced)
        if now - t_start + (now - t0) > seconds and not need_more:
            break

    rss = peak_rss_mb()
    report = {"workload": w.name, "seed": seed, "n": particles.n,
              "steps": w.steps, "trace": trace}
    metrics: dict = {}
    # The gated outputs: the traced sample's in a traced run, so that
    # comparing the two modes' reports checks that tracing is neutral.
    gated = traced[0][0] if trace and traced else ref
    acc = None
    if gated is not None:
        try:
            acc = accuracy(w, particles, gated, energy=trace)
        except GateError as exc:
            print(f"correctness gate: {exc}", file=sys.stderr)
            failed = attempted
        report["provenance"] = provenance(gated["kernel_tier"])
    if acc is not None and untraced and (traced or not trace):
        report["deterministic"] = dict(gated["det"], **acc)
        step = {}
        for kind in ("wall", "scaled"):
            vals = [s[kind] / w.steps for s in untraced]
            q1, med, q3 = quartiles(vals)
            step[kind] = {"median": med, "q1": q1, "q3": q3,
                          "samples": len(vals), "values": vals}
        report["step_s"] = step
        if trace:
            metrics = traced_metrics(w, traced, step["wall"]["median"])
            report["layers"] = traced[0][1]["layers"]
        else:
            serial_raw, serial = serial_floor(w, particles, host)
            setup_raw, setup = setup_time(w, seed, n, host)
            report["raw"] = {"step_wall_s": step["wall"]["median"],
                             "serial_force_s": serial_raw,
                             "setup_s": setup_raw}
            report["host_probes_s"] = host.probes
            metrics = {
                "step_wall_s": step["scaled"]["median"],
                "setup_s": setup,
                "serial_force_s": serial,
                "virtual_step_s": gated["det"]["virtual_step_s"],
                "force_rel_err": acc["force_rel_err"],
                "peak_rss_mb": rss,
                "success_rate": (attempted - failed) / attempted,
            }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return report, result


def traced_metrics(w, traced: list[tuple[dict, dict]],
                   untraced_step: float) -> dict:
    """Median of each per-layer metric over the traced samples."""
    rows = [layer_metrics(w, s, summary) for s, summary in traced]
    out = {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}
    traced_step = statistics.median(s["wall"] / w.steps for s, _ in traced)
    out["trace.overhead_frac"] = traced_step / untraced_step - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="override the workload's particle count "
                         "(self-test only; not a benchmark setting)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {SRC / 'repro'} or BENCHMARK.json is missing; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    # Scratch files (checkpoints, worker trace tables, multiprocessing
    # arenas) stay inside the checkout.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=scratch)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(0, str(SRC))
    try:
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; known: "
                  f"{sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        w = WORKLOADS[args.workload]
        if w.backend == "process":
            # One shared-memory tracker for the run, started here so the
            # forked workers inherit it instead of each starting their
            # own; stopped and waited for below.
            resource_tracker.ensure_running()
        report, result = measure(w, args.seed, args.seconds,
                                 bool(args.trace), tmp, args.n)
    finally:
        resource_tracker._resource_tracker._stop()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
