"""Power-of-two block timesteps with incremental tree repair.

The global-dt loop evaluates every force every step; with individual
timesteps (Valdarnini's parallel treecode, Dubinski's hierarchical
scheme) each particle integrates on its own power-of-two subdivision of
the macro step, so most substeps touch only a small *active bin-set* —
and the tree work shrinks to match via :mod:`repro.bh.tree_repair`.

Scheme (standard block-KDK):

- Rung ``r`` integrates with ``dt_r = dt / 2^r``; a macro step runs
  ``2^(R-1)`` substeps where ``R`` is the deepest occupied rung.
- Substep ``j``: every particle whose rung period divides ``j``
  *starts* a step — opening half-kick with its stored acceleration,
  then a full ``dt_r`` drift.  Every particle whose period divides
  ``j + 1`` *finishes* — fresh force walk over just the finishers,
  closing half-kick, rung reassignment.
- Between its own steps a particle's position is frozen (its last
  step-end state sources other particles' forces), which is what keeps
  the per-substep dirty set proportional to the active fraction.

Rungs come from the deterministic acceleration/softening criterion
``dt_i = eta * sqrt(softening / |a_i|)`` (the standard collisionless
choice): pure fp arithmetic on the accelerations, so bin assignment is
reproducible bit for bit — the property the process backend's crash
recovery relies on when it restores checkpointed bin state.

``tree_mode="rebuild"`` keeps the full per-substep rebuild as the
oracle/baseline; ``"repair"`` must produce bitwise-identical
trajectories (repaired trees are bitwise-equal to rebuilds).
``max_rungs=1`` degenerates to plain global-dt KDK.
"""

from __future__ import annotations

import numpy as np

from repro.bh.interaction_lists import TraversalEngine
from repro.bh.mac import BarnesHutMAC
from repro.bh import morton
from repro.bh.morton import morton_keys
from repro.bh.multipole import MonopoleExpansion
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import build_tree
from repro.bh.tree_repair import repair_tree


def assign_rungs(accel: np.ndarray, dt: float, eta: float,
                 softening: float, max_rungs: int) -> np.ndarray:
    """Deterministic power-of-two bin assignment: the smallest rung
    whose ``dt / 2^r`` does not exceed ``eta * sqrt(softening/|a|)``,
    clipped to ``[0, max_rungs)``."""
    if softening <= 0.0:
        raise ValueError("block timesteps need softening > 0 (the rung "
                         "criterion is eta * sqrt(softening / |a|))")
    if not 0 < max_rungs <= 16:
        raise ValueError(f"max_rungs must be in [1, 16], got {max_rungs}")
    a = np.sqrt(np.einsum("ij,ij->i", accel, accel))
    with np.errstate(divide="ignore"):
        dt_i = eta * np.sqrt(softening / np.where(a > 0.0, a, np.inf))
        r = np.ceil(np.log2(dt / dt_i))
    r = np.where(np.isfinite(r), r, 0.0)
    return np.clip(r, 0, max_rungs - 1).astype(np.int64)


class BlockTimestepper:
    """Serial block-timestep driver advancing ``particles`` in place.

    One :meth:`macro_step` advances every particle by ``dt``.  The tree
    is carried across substeps: repaired (``tree_mode="repair"``) or
    rebuilt from scratch (``"rebuild"``, the oracle baseline).  The
    ``stats`` dict accumulates ``repair.*`` / ``timestep.*`` counters.
    """

    def __init__(self, particles: ParticleSet, dt: float, *,
                 softening: float, eta: float = 0.2, max_rungs: int = 4,
                 alpha: float = 0.8, leaf_capacity: int = 16,
                 box: Box | None = None, max_depth: int | None = None,
                 tree_mode: str = "repair", dirty_threshold: float = 0.25,
                 collapse_chains: bool = True,
                 kernel_tier: str = "numpy",
                 kernel_threads: int | None = None):
        if dt <= 0:
            raise ValueError(f"time-step must be positive, got {dt}")
        if tree_mode not in ("repair", "rebuild"):
            raise ValueError(f"tree_mode must be 'repair' or 'rebuild', "
                             f"got {tree_mode!r}")
        self.particles = particles
        self.dt = float(dt)
        self.softening = float(softening)
        self.eta = float(eta)
        self.max_rungs = int(max_rungs)
        self.tree_mode = tree_mode
        self.dirty_threshold = float(dirty_threshold)
        self.collapse_chains = bool(collapse_chains)
        self.leaf_capacity = int(leaf_capacity)
        d = particles.dims
        if box is None:
            half = float(np.abs(particles.positions).max()) * 1.5 + 1e-9
            box = Box(np.zeros(d), half)
        self.box = box
        limit = morton.MAX_BITS_2D if d == 2 else morton.MAX_BITS_3D
        self.bits = limit if max_depth is None else int(max_depth)
        self.mac = BarnesHutMAC(alpha=float(alpha))
        self._engine_opts = dict(kernel_tier=kernel_tier,
                                 kernel_threads=kernel_threads)
        self.stats: dict[str, int] = {
            "timestep.macro_steps": 0, "timestep.substeps": 0,
            "timestep.force_targets": 0, "timestep.drifted": 0,
            "repair.repairs": 0, "repair.full_rebuilds": 0,
            "repair.nodes_reused": 0, "repair.nodes_rebuilt": 0,
            "repair.changed_keys": 0,
        }

        self.keys = self._keys_of(particles.positions)
        self.tree = build_tree(particles, box=self.box,
                               leaf_capacity=self.leaf_capacity,
                               max_depth=self.bits,
                               collapse_chains=self.collapse_chains,
                               keys=self.keys)
        self.engine = self._new_engine(self.tree)
        self.accel = self._forces(np.arange(particles.n))
        self.rungs = assign_rungs(self.accel, self.dt, self.eta,
                                  self.softening, self.max_rungs)
        # the bootstrap evaluation is not part of any substep
        self.stats["timestep.force_targets"] = 0

    # ---------------------------------------------------------- helpers
    def _keys_of(self, positions: np.ndarray) -> np.ndarray:
        return morton_keys(positions, self.box.lo, self.box.side, self.bits)

    def _new_engine(self, tree) -> TraversalEngine:
        return TraversalEngine(tree, sources=self.particles, mac=self.mac,
                               softening=self.softening,
                               **self._engine_opts)

    def _forces(self, idx: np.ndarray) -> np.ndarray:
        """Accelerations at the current positions of particles ``idx``."""
        res = self.engine.compute(
            self.particles.positions[idx],
            MonopoleExpansion(self.tree, softening=self.softening),
            mode="force",
        )
        self.stats["timestep.force_targets"] += int(idx.size)
        return res.values

    def _update_tree(self, moved: np.ndarray) -> None:
        new_keys = self._keys_of(self.particles.positions)
        if self.tree_mode == "rebuild":
            self.tree = build_tree(self.particles, box=self.box,
                                   leaf_capacity=self.leaf_capacity,
                                   max_depth=self.bits,
                                   collapse_chains=self.collapse_chains,
                                   keys=new_keys)
            self.stats["repair.full_rebuilds"] += 1
            self.stats["repair.nodes_rebuilt"] += self.tree.nnodes
        else:
            res = repair_tree(self.tree, self.particles, self.keys,
                              new_keys, moved,
                              collapse_chains=self.collapse_chains,
                              dirty_threshold=self.dirty_threshold)
            self.tree = res.tree
            if res.rebuilt:
                self.stats["repair.full_rebuilds"] += 1
            else:
                self.stats["repair.repairs"] += 1
            self.stats["repair.nodes_reused"] += res.nodes_reused
            self.stats["repair.nodes_rebuilt"] += res.nodes_rebuilt
            self.stats["repair.changed_keys"] += res.n_changed_keys
        self.engine = self._new_engine(self.tree)
        self.keys = new_keys

    # ------------------------------------------------------------- step
    def macro_step(self) -> None:
        """Advance every particle by one macro step ``dt``."""
        p = self.particles
        rungs = self.rungs
        R = int(rungs.max()) + 1
        nsub = 1 << (R - 1)
        period = (1 << (R - 1 - rungs)).astype(np.int64)
        lo = self.box.lo + 1e-12 * self.box.side
        hi = self.box.lo + self.box.side * (1 - 1e-12)

        for j in range(nsub):
            starters = np.flatnonzero(j % period == 0)
            if starters.size:
                dt_r = self.dt / (1 << rungs[starters]).astype(np.float64)
                p.velocities[starters] += \
                    (0.5 * dt_r)[:, None] * self.accel[starters]
                p.positions[starters] = np.clip(
                    p.positions[starters]
                    + dt_r[:, None] * p.velocities[starters],
                    lo, hi)
                self.stats["timestep.drifted"] += int(starters.size)
                self._update_tree(starters)

            finishers = np.flatnonzero((j + 1) % period == 0)
            if finishers.size:
                dt_f = self.dt / (1 << rungs[finishers]).astype(np.float64)
                a_new = self._forces(finishers)
                self.accel[finishers] = a_new
                p.velocities[finishers] += (0.5 * dt_f)[:, None] * a_new
                want = assign_rungs(a_new, self.dt, self.eta,
                                    self.softening, self.max_rungs)
                cur = rungs[finishers]
                if j + 1 == nsub:
                    new = want          # sync point: all moves allowed
                else:
                    # smaller dt anytime (bounded by this macro's
                    # subdivision); longer dt only at aligned boundaries
                    up = np.minimum(want, R - 1)
                    aligned = ((j + 1)
                               % (1 << (R - 1 - np.minimum(want, R - 1)))
                               ) == 0
                    down = np.where(aligned, want, cur)
                    new = np.where(want >= cur, up, down)
                rungs[finishers] = new
                period[finishers] = 1 << (R - 1 - np.minimum(new, R - 1))
            self.stats["timestep.substeps"] += 1
        self.stats["timestep.macro_steps"] += 1
        for r in range(self.max_rungs):
            key = f"timestep.bin_{r}"
            self.stats[key] = self.stats.get(key, 0) \
                + int((self.rungs == r).sum())

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.macro_step()

    @property
    def active_fraction(self) -> float:
        """Mean fraction of particles force-evaluated per substep."""
        sub = self.stats["timestep.substeps"]
        if sub == 0:
            return 1.0
        return self.stats["timestep.force_targets"] \
            / (sub * self.particles.n)
