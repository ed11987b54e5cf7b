"""The benchmark's named workloads.

Each workload turns a seed into particles, and fixes the configuration
and the run arguments handed to the public ``ParallelBarnesHut`` API.
The program receives only the generated particles.  Every workload runs
on p=2 ranks and leaves ``kernel_threads`` at its default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import ParallelBarnesHut, SchemeConfig
from repro.bh.distributions import INSTANCES, make_instance
from repro.bh.particles import ParticleSet

RANKS = 2


def core_halo(n: int, seed: int, core_frac: float = 0.05,
              core_sigma: float = 0.02) -> ParticleSet:
    """Uniform-ball halo plus a tight Gaussian core (95% / 5%): the same
    recipe as ``benchmarks/bench_adaptive_timesteps.core_halo``, with
    the seed as an argument."""
    rng = np.random.default_rng(seed)
    nc = int(n * core_frac)
    nh = n - nc
    u = rng.normal(size=(nh, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    halo = u * (10.0 * rng.uniform(0.2, 1.0, nh)[:, None] ** (1.0 / 3.0))
    core = rng.normal(size=(nc, 3)) * core_sigma
    return ParticleSet(np.vstack([halo, core]), np.full(n, 1.0 / n),
                       np.zeros((n, 3)))


def paper_instance(name: str, n: int, seed: int) -> ParticleSet:
    """A paper instance's shape scaled to exactly ``n`` particles."""
    ps = make_instance(name, scale=n / INSTANCES[name].n, seed=seed)
    if ps.n != n:
        raise RuntimeError(f"{name} scaled to {ps.n} particles, not {n}")
    return ps


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    make: Callable[[int, int], ParticleSet]     # (n, seed) -> particles
    config: SchemeConfig
    steps: int
    dt: float | None
    #: Gates on ``force_rel_err`` (median relative error against direct
    #: summation) and, on stepping workloads, ``energy_drift``; set from
    #: the values this benchmark first measured.
    err_tol: float
    energy_tol: float | None
    backend: str = "virtual"
    checkpoint: bool = False
    #: Coverage: which wrapped layers must (True) or must not (False)
    #: be entered by the traced run.
    must_call: dict = field(default_factory=dict)
    #: Coverage: ``(op, bound)`` on list walks per step per particle.
    #: block-kdk-corehalo sits above the split and multipole-dpda-process
    #: below it, so the bin-heavy workload stays the bin-heavy one.
    walks_per_particle_step: tuple = ()

    def particles(self, seed: int, n: int | None = None) -> ParticleSet:
        return self.make(n or self.n, seed)

    def simulation(self, particles: ParticleSet,
                   checkpoint_dir: str | None = None) -> ParallelBarnesHut:
        kw = {}
        if self.checkpoint:
            kw = dict(checkpoint_every=1, checkpoint_dir=checkpoint_dir)
        # A deadlock or a lost message surfaces as an error well inside
        # the benchmark's own time limit instead of hanging it.
        return ParallelBarnesHut(particles, self.config, p=RANKS,
                                 backend=self.backend, recv_timeout=45.0,
                                 **kw)


#: Split for the walks-per-step coverage assertion (see ``Workload``).
WALK_SPLIT = 0.3

WORKLOADS = {w.name: w for w in [
    Workload(
        name="block-kdk-corehalo",
        why="block timesteps: the only workload with tree repair, "
            "active-subset force rounds and mid-macro exchanges",
        n=10_000,
        make=core_halo,
        config=SchemeConfig(scheme="spda", integrator="kdk",
                            timestep="block", softening=0.01, dt_eta=0.2,
                            max_rungs=6),
        steps=2, dt=0.02, err_tol=3e-2, energy_tol=2e-2,
        must_call={"repair": True, "transport": False,
                   "checkpoint": False},
        walks_per_particle_step=(">", WALK_SPLIT),
    ),
    Workload(
        name="multipole-dpda-process",
        why="degree-4 multipoles with few bins: evaluator and kernel "
            "work, the process runtime and durable checkpoints",
        n=20_000,
        make=lambda n, seed: paper_instance("p_63192", n, seed),
        config=SchemeConfig(scheme="dpda", alpha=0.67, mode="potential",
                            degree=4, leaf_capacity=16),
        steps=2, dt=None, err_tol=5e-5, energy_tol=None,
        backend="process", checkpoint=True,
        must_call={"repair": False, "transport": True,
                   "checkpoint": True},
        walks_per_particle_step=("<", WALK_SPLIT),
    ),
]}
