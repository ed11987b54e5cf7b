"""Physics gates: conservation bounds on short distributed runs.

The determinism and cross-backend suites pin results *bit for bit*
against each other; they cannot tell a run that is reproducibly wrong
from one that is right.  These gates check the physics instead: total
momentum and total energy of a small Plummer sphere (n=2,000, p=2,
virtual backend) must stay close to their initial values over a
fixed-dt KDK run and a block-timestep run.  Barnes-Hut forces are not
pairwise antisymmetric, so neither quantity is conserved exactly.

Each bound is about twice the drift these runs showed when the gates
were set (2-cpu x86-64 host, numpy tier; CHANGES.md records the
values), so a change that moves summation order passes and one that
breaks a kick, a drift or a force sign does not.
"""

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.bh.direct import direct_potentials
from repro.bh.particles import ParticleSet

N = 2000
P = 2
SOFTENING = 0.05

#: name -> (config, steps, dt, momentum bound, energy bound)
RUNS = {
    # measured: momentum 1.63e-5, energy 9.13e-6
    "fixed-kdk": (SchemeConfig(scheme="spda", mode="force",
                               integrator="kdk", softening=SOFTENING),
                  8, 0.01, 3.3e-5, 1.8e-5),
    # measured: momentum 8.31e-6, energy 4.55e-6
    "block": (SchemeConfig(scheme="spda", mode="force", integrator="kdk",
                           timestep="block", softening=SOFTENING,
                           dt_eta=0.3, max_rungs=4),
              2, 0.02, 1.7e-5, 9.1e-6),
}


def total_energy(ps: ParticleSet) -> float:
    phi = direct_potentials(ps, softening=SOFTENING, chunk=256)
    return float(0.5 * np.dot(ps.masses, (ps.velocities ** 2).sum(1))
                 + 0.5 * np.dot(ps.masses, phi))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_momentum_and_energy_drift_bounded(name):
    cfg, steps, dt, mom_bound, energy_bound = RUNS[name]
    ps = plummer(N, seed=3)
    m = ps.masses
    p0 = (m[:, None] * ps.velocities).sum(axis=0)
    # |change of total momentum| over the total momentum magnitude
    # scale sum(m |v|) (the total itself is ~0 for an equilibrium sphere)
    scale = float(np.dot(m, np.linalg.norm(ps.velocities, axis=1)))
    e0 = total_energy(ps)

    res = ParallelBarnesHut(ps, cfg, p=P).run(steps=steps, dt=dt)
    assert res.recoveries == 0

    p1 = (m[:, None] * res.velocities).sum(axis=0)
    momentum_drift = float(np.linalg.norm(p1 - p0)) / scale
    assert momentum_drift < mom_bound, momentum_drift

    e1 = total_energy(ParticleSet(res.positions, m, res.velocities))
    energy_drift = abs((e1 - e0) / e0)
    assert energy_drift < energy_bound, energy_drift
    # the run really moved the particles
    assert not np.array_equal(res.positions, plummer(N, seed=3).positions)
