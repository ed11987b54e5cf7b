"""Equivalence suite for the level-synchronous tree pipeline.

The vectorized builder and the level-batched upward passes each have a
node-at-a-time reference kept verbatim in ``tests/oracles.py``; the
frontier MAC walk is checked against the depth-first walk.  These tests pin the contract the benchmarks rely on:
*exact* array equality for construction and upward passes, and
identical interaction sets/counters for the walk (entry order and
therefore fp accumulation order may differ there).
"""

import numpy as np
import pytest

from repro.bh.distributions import (
    gaussian_blobs,
    plummer,
    random_centers,
    uniform_cube,
)
from repro.bh.interaction_lists import build_interaction_lists
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, build_tree, cell_box, cell_boxes
from tests.oracles import (
    build_multipoles_reference,
    build_tree_reference,
    compute_monopoles_reference,
    sum_interactions_up_reference,
)

N = 400

ARRAY_FIELDS = ("children", "depth", "path_key", "center", "half",
                "start", "end", "order")


def cloud(n: int, dims: int, seed: int) -> ParticleSet:
    """Centrally-concentrated set in 3-D, uniform in 2-D (the Plummer
    model is three-dimensional only)."""
    if dims == 3:
        return plummer(n, seed=seed)
    return uniform_cube(n, dims=dims, seed=seed)


def make_particles(kind: str, dims: int, n: int = N,
                   seed: int = 7) -> ParticleSet:
    if kind == "plummer":
        return cloud(n, dims, seed)
    if kind == "gaussian":
        rng = np.random.default_rng(seed)
        centers = random_centers(4, dims, rng)
        return gaussian_blobs(n, centers, sigma=3.0, dims=dims, seed=seed)
    # A few distinct sites, each holding many exactly coincident
    # particles: refinement can never separate them, so leaves at
    # max_depth hold more than the capacity.
    rng = np.random.default_rng(seed)
    sites = rng.uniform(10.0, 90.0, (10, dims))
    pos = np.repeat(sites, n // 10, axis=0)
    return ParticleSet(positions=pos, masses=rng.uniform(0.5, 1.5, n))


def assert_trees_equal(a, b):
    assert a.nnodes == b.nnodes
    for f in ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f),
                                      err_msg=f)
    np.testing.assert_array_equal(a.mass, b.mass)
    np.testing.assert_array_equal(a.com, b.com)


class TestBuildEquivalence:
    @pytest.mark.parametrize("kind", ["plummer", "gaussian", "duplicates"])
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("cap", [1, 8, 32])
    @pytest.mark.parametrize("collapse", [True, False])
    def test_builders_bitwise_equal(self, kind, dims, cap, collapse):
        ps = make_particles(kind, dims)
        ref = build_tree_reference(ps, leaf_capacity=cap,
                                   collapse_chains=collapse)
        vec = build_tree(ps, leaf_capacity=cap, collapse_chains=collapse)
        assert_trees_equal(vec, ref)

    def test_small_input_dispatch_is_equal(self):
        """Tiny subtrees (the distributed schemes build many, one per
        owned cell) go through the same level-synchronous builder and
        still match the recursion exactly."""
        for n in (1, 2, 9, 127):
            ps = plummer(n, seed=3)
            assert_trees_equal(build_tree(ps, leaf_capacity=4),
                               build_tree_reference(ps, leaf_capacity=4))

    @pytest.mark.parametrize("dims", [2, 3])
    def test_explicit_max_depth_equal(self, dims):
        ps = make_particles("plummer", dims)
        for depth in (3, 8):
            assert_trees_equal(
                build_tree(ps, leaf_capacity=1, max_depth=depth),
                build_tree_reference(ps, leaf_capacity=1, max_depth=depth))


class TestUpwardPasses:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_monopoles_and_interaction_sums(self, dims):
        ps = cloud(1000, dims, seed=3)
        tree = build_tree(ps, leaf_capacity=8)

        compute_monopoles_reference(tree, ps)
        mass, com = tree.mass.copy(), tree.com.copy()
        tree.compute_monopoles(ps)
        np.testing.assert_array_equal(tree.mass, mass)
        np.testing.assert_array_equal(tree.com, com)

        base = (np.arange(tree.nnodes, dtype=np.int64) * 7919) % 1013
        tree.interactions[:] = base
        sum_interactions_up_reference(tree)
        ref = tree.interactions.copy()
        tree.interactions[:] = base
        tree.sum_interactions_up()
        np.testing.assert_array_equal(tree.interactions, ref)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_multipole_coeffs(self, degree):
        ps = plummer(1500, seed=5)
        tree = build_tree(ps, leaf_capacity=8)
        ref = TreeMultipoles(tree, None, degree)
        build_multipoles_reference(ref, ps)
        vec = TreeMultipoles(tree, None, degree)
        vec._build(ps)
        np.testing.assert_array_equal(vec.coeffs, ref.coeffs)


class TestNodeNumbering:
    """The reverse level scans (and the seed's reverse id scan before
    them) rely on every child being numbered after its parent."""

    @pytest.mark.parametrize("builder", [build_tree, build_tree_reference])
    @pytest.mark.parametrize("collapse", [True, False])
    def test_children_ids_exceed_parent(self, builder, collapse):
        ps = plummer(800, seed=11)
        tree = builder(ps, leaf_capacity=4, collapse_chains=collapse)
        parent = np.repeat(np.arange(tree.nnodes),
                           tree.children.shape[1])
        kids = tree.children.ravel()
        ok = kids != NO_CHILD
        assert np.all(kids[ok] > parent[ok])

    @pytest.mark.parametrize("dims", [2, 3])
    def test_nodes_by_level_partitions_tree(self, dims):
        ps = cloud(500, dims, seed=9)
        tree = build_tree(ps, leaf_capacity=4)
        levels = tree.nodes_by_level()
        all_ids = np.concatenate([ids for _, ids in levels])
        assert np.array_equal(np.sort(all_ids), np.arange(tree.nnodes))
        for depth, ids in levels:
            assert np.all(tree.depth[ids] == depth)


class TestCellBoxes:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_batch_matches_scalar(self, dims):
        ps = cloud(400, dims, seed=2)
        tree = build_tree_reference(ps, leaf_capacity=4)
        center, half = cell_boxes(tree.root_box, tree.depth,
                                  tree.path_key)
        for i in range(tree.nnodes):
            b = cell_box(tree.root_box, int(tree.depth[i]),
                         int(tree.path_key[i]))
            np.testing.assert_array_equal(center[i], b.center)
            assert half[i] == b.half


class TestFrontierWalk:
    def _remote_tree(self, dims):
        ps = cloud(2000, dims, seed=13)
        tree = build_tree(ps, leaf_capacity=8)
        kids = tree.children[0][tree.children[0] != NO_CHILD]
        for i, child in enumerate(kids[:2]):
            tree.remote_owner[int(child)] = i + 1
            tree.remote_key[int(child)] = 100 + i
        return ps, tree

    @pytest.mark.parametrize("dims,alpha", [(2, 0.5), (3, 0.67), (3, 1.2)])
    def test_matches_dfs(self, dims, alpha):
        ps, tree = self._remote_tree(dims)
        tg = ps.positions[:150]
        mac = BarnesHutMAC(alpha)
        dfs = build_interaction_lists(tree, tg, mac, method="dfs")
        fr = build_interaction_lists(tree, tg, mac, method="frontier")

        assert fr.mac_tests == dfs.mac_tests
        np.testing.assert_array_equal(fr.mac_per_target,
                                      dfs.mac_per_target)
        assert (set(zip(fr.cluster_node.tolist(),
                        fr.cluster_tgt.tolist()))
                == set(zip(dfs.cluster_node.tolist(),
                           dfs.cluster_tgt.tolist())))
        assert (set(zip(fr.p2p_leaf.tolist(), fr.p2p_tgt.tolist()))
                == set(zip(dfs.p2p_leaf.tolist(), dfs.p2p_tgt.tolist())))
        assert fr.p2p_interactions == dfs.p2p_interactions
        assert list(fr.remote_targets) == list(dfs.remote_targets)
        for node, idx in fr.remote_targets.items():
            np.testing.assert_array_equal(idx, dfs.remote_targets[node])

    def test_auto_matches_both(self):
        ps, tree = self._remote_tree(3)
        mac = BarnesHutMAC(0.7)
        tg = ps.positions[:64]
        auto = build_interaction_lists(tree, tg, mac)  # method="auto"
        dfs = build_interaction_lists(tree, tg, mac, method="dfs")
        assert auto.mac_tests == dfs.mac_tests
        assert auto.cluster_interactions == dfs.cluster_interactions
        assert auto.p2p_interactions == dfs.p2p_interactions

    def test_unknown_method_rejected(self):
        ps = plummer(200, seed=1)
        tree = build_tree(ps, leaf_capacity=8)
        with pytest.raises(ValueError):
            build_interaction_lists(tree, ps.positions[:8],
                                    BarnesHutMAC(0.7), method="bogus")
