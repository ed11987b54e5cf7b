"""Walk accounting: ``SimulationResult.walk_reuse()`` counts every
interaction-list walk the rank programs make.

Each force evaluation walks the tree once, so the number of
``build_interaction_lists`` calls made inside the rank threads must
equal the reported walks built, and the reported reuse must be zero.
The benchmark's layer tracer relies on the same equality.
"""

import threading

import numpy as np
import pytest

from repro import ParallelBarnesHut, SchemeConfig, plummer
from repro.bh import interaction_lists
from repro.machine.profiles import NCUBE2

P = 4
N = 240


@pytest.fixture
def rank_walks(monkeypatch):
    """Counts ``build_interaction_lists`` calls off the main thread (the
    virtual backend runs each rank program on its own thread)."""
    calls = []
    lock = threading.Lock()
    walk = interaction_lists.build_interaction_lists

    def counted(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            with lock:
                calls.append(1)
        return walk(*args, **kwargs)

    monkeypatch.setattr(interaction_lists, "build_interaction_lists",
                        counted)
    return calls


@pytest.mark.parametrize("cfg, dt", [
    (SchemeConfig(scheme="spda", mode="force", alpha=0.8, softening=0.05,
                  integrator="kdk", timestep="block", max_rungs=3,
                  dt_eta=0.3), 5e-3),
    (SchemeConfig(scheme="dpda", alpha=0.67, mode="potential", degree=2),
     None),
], ids=["spda-block", "dpda"])
def test_walks_built_counts_every_rank_walk(rank_walks, cfg, dt):
    sim = ParallelBarnesHut(plummer(N, seed=5), cfg, p=P, profile=NCUBE2)
    result = sim.run(steps=2, dt=dt)
    built, reused = result.walk_reuse()
    assert built > 0
    assert len(rank_walks) == built
    assert reused == 0
    assert np.isfinite(result.values).all()
