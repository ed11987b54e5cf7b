"""Node-at-a-time reference implementations: the oracles of the
vectorized Barnes-Hut core.

Each function here is the classical scalar form of a production pass,
kept verbatim so the tests and the perf benches can check the vectorized
code against it:

- :func:`traverse_reference` — the single-pass batched walk with kernels
  evaluated in walk order (oracle of the interaction-list engine, to fp
  accumulation order; counters exactly);
- :func:`build_tree_reference` — the recursive tree builder (oracle of
  the level-synchronous :func:`~repro.bh.tree.build_tree`, exact);
- :func:`compute_monopoles_reference` and
  :func:`sum_interactions_up_reference` — per-node reverse scans (oracles
  of the level-batched upward passes, exact);
- :func:`build_multipoles_reference` — per-node P2M/M2M (oracle of
  ``TreeMultipoles._build``, exact).

The benches import this module as ``tests.oracles``, so the repository
root must be on ``PYTHONPATH`` next to ``src``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bh import kernels
from repro.bh.interaction_lists import TraversalResult
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import TreeMultipoles
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import NO_CHILD, Tree, _prepare


# ------------------------------------------------------------- traversal
def traverse_reference(tree: Tree, sources: ParticleSet | None,
                       target_positions: np.ndarray, mac: BarnesHutMAC,
                       evaluator, mode: str = "potential",
                       count_node_interactions: bool = False,
                       softening: float = 0.0,
                       root: int | None = None,
                       target_weights: np.ndarray | None = None
                       ) -> TraversalResult:
    """The classical single-pass traversal (kernels evaluated in walk
    order).  The correctness oracle for the interaction-list engine and
    the baseline of ``bench_traversal_engine``."""
    if mode not in ("potential", "force"):
        raise ValueError(f"mode must be 'potential' or 'force', got {mode!r}")
    targets = np.atleast_2d(np.asarray(target_positions, dtype=np.float64))
    nt, d = targets.shape
    values = np.zeros(nt) if mode == "potential" else np.zeros((nt, d))
    result = TraversalResult(values=values)
    if nt == 0 or tree.nnodes == 0:
        return result

    degree = getattr(evaluator, "degree", 0)
    per_cluster_flops = 13.0 + 16.0 * max(degree, 1) ** 2
    start = tree.ROOT if root is None else root
    stack: list[tuple[int, np.ndarray]] = [(start, np.arange(nt))]
    while stack:
        node, idx = stack.pop()
        if tree.is_remote(node):
            prev = result.remote_targets.get(node)
            result.remote_targets[node] = (
                idx if prev is None else np.concatenate((prev, idx))
            )
            continue
        if tree.count(node) == 0:
            continue
        if tree.is_leaf(node):
            if sources is None:
                raise ValueError("tree has local leaves but no source "
                                 "particles were provided")
            p_idx = tree.particle_indices(node)
            if mode == "potential":
                values[idx] += kernels.pair_potential(
                    targets[idx], sources.positions[p_idx],
                    sources.masses[p_idx], softening=softening,
                )
            else:
                values[idx] += kernels.pair_force(
                    targets[idx], sources.positions[p_idx],
                    sources.masses[p_idx], softening=softening,
                )
            result.p2p_interactions += idx.size * p_idx.size
            if target_weights is not None:
                target_weights[idx] += 29.0 * p_idx.size
            if count_node_interactions:
                # Count *pairs*, not visits: a leaf with k particles
                # serving m targets costs m*k interactions, and the load
                # balancers consume these counters as work units.
                tree.interactions[node] += idx.size * p_idx.size
            continue
        result.mac_tests += idx.size
        if target_weights is not None:
            target_weights[idx] += 14.0
        ok = mac.accept(tree, node, targets[idx])
        far = idx[ok]
        if far.size:
            if mode == "potential":
                values[far] += evaluator.node_potential(node, targets[far])
            else:
                values[far] += evaluator.node_force(node, targets[far])
            result.cluster_interactions += far.size
            if target_weights is not None:
                target_weights[far] += per_cluster_flops
            if count_node_interactions:
                tree.interactions[node] += far.size
        near = idx[~ok]
        if near.size:
            for child in tree.children[node]:
                if child != NO_CHILD:
                    stack.append((int(child), near))
    return result


# ------------------------------------------------------------ tree build
@dataclass
class _Builder:
    keys: np.ndarray       # Morton keys in sorted order
    order: np.ndarray      # particle indices in Morton order
    dims: int
    bits: int
    leaf_capacity: int
    collapse_chains: bool
    root_box: Box
    children: list = field(default_factory=list)
    depth: list = field(default_factory=list)
    path_key: list = field(default_factory=list)
    center: list = field(default_factory=list)
    half: list = field(default_factory=list)
    start: list = field(default_factory=list)
    end: list = field(default_factory=list)

    def build(self, lo: int, hi: int, depth: int, path_key: int,
              box: Box) -> int:
        d = self.dims
        nkids = 1 << d
        # Chain collapsing: while every particle falls in a single child,
        # descend without materialising the chain node (bounds tree size
        # for pathological pairs, as in Callahan-Kosaraju).
        if self.collapse_chains:
            while hi - lo > self.leaf_capacity and depth < self.bits:
                shift = (self.bits - depth - 1) * d
                first = (int(self.keys[lo]) >> shift) & (nkids - 1)
                last = (int(self.keys[hi - 1]) >> shift) & (nkids - 1)
                if first != last:
                    break
                depth += 1
                path_key = (path_key << d) | first
                box = box.child(first)

        node = len(self.children)
        self.children.append(np.full(nkids, NO_CHILD, dtype=np.int32))
        self.depth.append(depth)
        self.path_key.append(path_key)
        self.center.append(box.center)
        self.half.append(box.half)
        self.start.append(lo)
        self.end.append(hi)

        if hi - lo > self.leaf_capacity and depth < self.bits:
            shift = (self.bits - depth - 1) * d
            groups = (self.keys[lo:hi] >> shift) & (nkids - 1)
            bounds = np.searchsorted(groups, np.arange(nkids + 1)) + lo
            for c in range(nkids):
                clo, chi = int(bounds[c]), int(bounds[c + 1])
                if chi > clo:
                    self.children[node][c] = self.build(
                        clo, chi, depth + 1, (path_key << d) | c,
                        box.child(c)
                    )
        return node


def build_tree_reference(particles: ParticleSet, box: Box | None = None,
                         leaf_capacity: int = 8,
                         max_depth: int | None = None,
                         collapse_chains: bool = True,
                         compute_monopoles: bool = True,
                         keys: np.ndarray | None = None) -> Tree:
    """Node-at-a-time recursive tree construction — the oracle and bench
    baseline for :func:`~repro.bh.tree.build_tree`.  Same signature,
    same output."""
    box, bits, sorted_keys, order = _prepare(particles, box, leaf_capacity,
                                             max_depth, keys)
    builder = _Builder(keys=sorted_keys, order=order, dims=particles.dims,
                       bits=bits, leaf_capacity=leaf_capacity,
                       collapse_chains=collapse_chains, root_box=box)
    builder.build(0, particles.n, 0, 0, box)

    tree = Tree(
        root_box=box,
        dims=particles.dims,
        leaf_capacity=leaf_capacity,
        max_depth=bits,
        children=np.stack(builder.children),
        depth=np.asarray(builder.depth, dtype=np.int32),
        path_key=np.asarray(builder.path_key, dtype=np.int64),
        center=np.stack(builder.center),
        half=np.asarray(builder.half, dtype=np.float64),
        start=np.asarray(builder.start, dtype=np.int64),
        end=np.asarray(builder.end, dtype=np.int64),
        order=order,
    )
    if compute_monopoles:
        compute_monopoles_reference(tree, particles)
    return tree


# ---------------------------------------------------------- upward passes
def compute_monopoles_reference(tree: Tree, particles: ParticleSet) -> None:
    """Per-node reverse-scan monopole pass — the oracle
    :meth:`Tree.compute_monopoles` is validated against."""
    pos, m = particles.positions, particles.masses
    for node in range(tree.nnodes - 1, -1, -1):
        if tree.is_remote(node):
            continue
        lo, hi = tree.start[node], tree.end[node]
        if tree.is_leaf(node):
            idx = tree.order[lo:hi]
            mm = m[idx]
            total = mm.sum()
            tree.mass[node] = total
            if total > 0:
                tree.com[node] = (mm[:, None] * pos[idx]).sum(axis=0) / total
            else:
                tree.com[node] = tree.center[node]
        else:
            kids = tree.children[node]
            kids = kids[kids != NO_CHILD]
            total = tree.mass[kids].sum()
            tree.mass[node] = total
            if total > 0:
                tree.com[node] = (
                    tree.mass[kids, None] * tree.com[kids]
                ).sum(axis=0) / total
            else:
                tree.com[node] = tree.center[node]


def sum_interactions_up_reference(tree: Tree) -> None:
    """Per-node reverse scan (relies on every child id being greater
    than its parent id) — the oracle for
    :meth:`Tree.sum_interactions_up`."""
    for node in range(tree.nnodes - 1, -1, -1):
        kids = tree.children[node]
        kids = kids[kids != NO_CHILD]
        if kids.size:
            tree.interactions[node] += tree.interactions[kids].sum()


def build_multipoles_reference(tm: TreeMultipoles,
                               particles: ParticleSet) -> None:
    """Per-node reverse-scan P2M/M2M pass into ``tm.coeffs`` — the
    oracle ``TreeMultipoles._build`` is validated against."""
    tree, exp = tm.tree, tm.expansion
    for node in range(tree.nnodes - 1, -1, -1):
        if tree.is_remote(node):
            continue
        if tree.is_leaf(node):
            idx = tree.particle_indices(node)
            if idx.size:
                rel = particles.positions[idx] - tree.center[node]
                tm.coeffs[node] = exp.p2m(rel, particles.masses[idx])
        else:
            kids = tree.children[node]
            kids = kids[kids != NO_CHILD]
            for c in kids:
                shift = tree.center[c] - tree.center[node]
                tm.coeffs[node] += exp.m2m(tm.coeffs[c], shift)
