"""Interaction-list traversal: walk the tree, then evaluate the lists.

The classical Barnes-Hut hot loop interleaves two very different kinds
of work: *deciding* which (node, target) pairs interact (the MAC walk)
and *computing* those interactions (the arithmetic).  This module splits
them:

1. :func:`build_interaction_lists` walks the tree exactly once per
   target batch and emits flat lists — one entry per accepted cluster
   interaction, one ``(leaf slice, target set)`` entry per leaf visit,
   plus the remote-target map the parallel engines turn into bins.  No
   kernel is evaluated during the walk.
2. :func:`evaluate_interaction_lists` consumes the lists with fused,
   chunked kernels: a single grouped gather per evaluator over *all*
   accepted cluster interactions, and a flat pair-expansion of the
   particle-particle work whose temporaries are bounded by a
   configurable working-set size.  There is one numpy evaluation path:
   chunks are owned by fixed accumulation slots (see :func:`_run_slots`),
   so the result bits do not depend on the thread count.

Because the lists depend only on the tree geometry, the MAC, and the
target positions — never on the evaluator or the evaluation mode — one
walk can serve potentials *and* forces and every multipole degree.
:class:`TraversalEngine` binds one tree's evaluation settings and runs
both passes per call; it keeps no lists between calls, because the
parallel engines never evaluate the same target batch twice (every
request bin carries fresh coordinates).

Exactness contract: the walk applies the MAC with the same
floating-point operations as :class:`~repro.bh.mac.BarnesHutMAC.accept`,
so the interaction *sets* — and therefore ``mac_tests``,
``cluster_interactions``, ``p2p_interactions``, the per-node DPDA
counters, and the per-target weight attribution — are identical to the
classical traversal.  Only the accumulation order of floating-point sums
differs (fused kernels sum per-pair contributions in list order), which
perturbs values at the 1e-15 level.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.bh import compiled, kernels
from repro.bh.mac import BarnesHutMAC
from repro.bh.tree import NO_CHILD, Tree

#: Default bound on the fused kernels' working set (bytes of live
#: floating-point temporaries per chunk).  Sized to stay cache-resident:
#: every chunk is touched by several passes (gather, subtract, square,
#: rsqrt, contract), and a chunk that fits in the last-level cache makes
#: the later passes cache hits.  Measured on the serial n=10k benchmark,
#: 4 MiB beats 16 MiB by ~15%.
DEFAULT_WORKING_SET_BYTES = 4 * 2 ** 20

#: ``method="auto"`` picks the frontier walk when the tree has at least
#: this many nodes per target.  The depth-first walk's cost is per-node
#: Python overhead (it shares one target array across all children of a
#: node and broadcasts scalar node data), so it loses exactly when
#: per-node target batches are small: many nodes, few targets.  The
#: frontier pays per-pair gathers instead, which large batches amortise
#: worse.  Measured on Plummer trees: at 64 targets the frontier is
#: 4.2x faster against a 4200-node tree and 1.5x against 470 nodes,
#: while at 1024 targets it is ~2x *slower* everywhere; the win/loss
#: boundary tracks the nodes-per-target ratio at about 5.
FRONTIER_AUTO_NODE_TARGET_RATIO = 6


@dataclass
class TraversalResult:
    """Output of one batched traversal.

    ``values`` holds potentials (n,) or forces (n, d) aligned with the
    target array.  The counters feed the paper's instruction-count cost
    model; ``remote_targets`` maps a remote-leaf node id to the indices
    of targets whose interaction must be shipped to the owner.
    """

    values: np.ndarray
    mac_tests: int = 0
    cluster_interactions: int = 0
    p2p_interactions: int = 0
    remote_targets: dict[int, np.ndarray] = field(default_factory=dict)

    def flops(self, degree: int) -> float:
        """Virtual flop count per the paper's model (Section 5.2):
        ``13 + 16 k^2`` per particle-cluster interaction, 14 per MAC.
        Monopole (degree 0) interactions and leaf particle-particle
        interactions are charged as the k = 1 case."""
        per_cluster = 13.0 + 16.0 * max(degree, 1) ** 2
        per_p2p = 13.0 + 16.0
        return (14.0 * self.mac_tests
                + per_cluster * self.cluster_interactions
                + per_p2p * self.p2p_interactions)

    def merge_counters(self, other: "TraversalResult") -> None:
        """Fold another traversal's work counters into this one (values
        are left alone — callers combine those explicitly)."""
        self.mac_tests += other.mac_tests
        self.cluster_interactions += other.cluster_interactions
        self.p2p_interactions += other.p2p_interactions


@dataclass
class InteractionLists:
    """Flat interaction lists of one walk over one target batch.

    Cluster interactions are stored one entry per accepted (node,
    target) pair (``cluster_node[i]`` interacts with target
    ``cluster_tgt[i]``); particle-particle work as one row per (visited
    leaf, target) pair — ``p2p_leaf[i]``'s whole particle slice
    interacts with target ``p2p_tgt[i]``.  ``remote_targets`` arrays
    are sorted so bin contents are independent of traversal order.
    """

    targets: np.ndarray            # (nt, d) positions the walk used
    nt: int
    d: int
    cluster_node: np.ndarray       # (ncluster,) int64 node ids
    cluster_tgt: np.ndarray        # (ncluster,) int64 target indices
    p2p_leaf: np.ndarray           # (nrows,) leaf node id per visit row
    p2p_tgt: np.ndarray            # (nrows,) target index per visit row
    p2p_sizes: np.ndarray          # (nrows,) int64 leaf particle counts
    remote_targets: dict[int, np.ndarray]
    mac_tests: int
    mac_per_target: np.ndarray     # (nt,) int64 MAC tests per target
    p2p_interactions: int
    # lazy caches (built on first evaluation, reused afterwards)
    _p2p_groups: list | None = None
    _cluster_per_target: np.ndarray | None = None
    _p2p_src_per_target: np.ndarray | None = None
    # P2P kernel scratch, keyed by (slot, ns, chunk), the slot being 0
    # for every slot of a one-thread run: one set of buffers serves
    # every chunk of a slot and persists across evaluate calls on the
    # same lists.  Bitwise-neutral — every buffer is fully overwritten
    # before it is read within a chunk.
    _scratch: dict | None = None

    @property
    def cluster_interactions(self) -> int:
        return int(self.cluster_tgt.size)

    def p2p_groups(self, tree: Tree, sources
                   ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray | None]]:
        """P2P rows regrouped by leaf source count for dense evaluation.

        Returns ``(tgt, tpos, row_entry, spos, smass)`` tuples: all rows
        whose leaf holds ``ns`` sources are stacked, their target
        positions pre-gathered into ``tpos``, the distinct leaves'
        source positions pre-gathered into one ``(nleaves, ns, d)``
        block (``smass`` likewise, or ``None`` when every source mass is
        equal); ``row_entry`` maps each target row to its leaf's block
        row.  Grouping uses node-id rank arrays — no sorting.  Cached
        across evaluations — the lists are bound to the tree and source
        set they were built over."""
        if self._p2p_groups is None:
            pos, mass = sources.positions, sources.masses
            uniform = mass.size > 0 and bool(np.all(mass == mass[0]))
            order = tree.order
            sizes = self.p2p_sizes
            rank = np.empty(tree.nnodes, dtype=np.int64)
            present = np.zeros(tree.nnodes, dtype=bool)
            groups = []
            for ns in np.unique(sizes):
                sel = sizes == ns
                tgt = self.p2p_tgt[sel]
                leaves = self.p2p_leaf[sel]
                present[:] = False
                present[leaves] = True
                leaf_ids = np.flatnonzero(present)
                rank[leaf_ids] = np.arange(leaf_ids.size)
                src_mat = order[tree.start[leaf_ids][:, None]
                                + np.arange(int(ns))[None, :]]
                groups.append((tgt, self.targets[tgt], rank[leaves],
                               pos[src_mat],
                               None if uniform else mass[src_mat]))
            self._p2p_groups = groups
        return self._p2p_groups

    def mac_tests_per_target(self) -> np.ndarray:
        """MAC tests charged to each target (14 model flops apiece)."""
        return self.mac_per_target

    def cluster_per_target(self) -> np.ndarray:
        if self._cluster_per_target is None:
            self._cluster_per_target = np.bincount(
                self.cluster_tgt, minlength=self.nt
            ).astype(np.int64)
        return self._cluster_per_target

    def p2p_sources_per_target(self) -> np.ndarray:
        """Total particle-particle source count charged to each target."""
        if self._p2p_src_per_target is None:
            if self.p2p_tgt.size:
                self._p2p_src_per_target = np.bincount(
                    self.p2p_tgt,
                    weights=self.p2p_sizes.astype(np.float64),
                    minlength=self.nt,
                ).astype(np.int64)
            else:
                self._p2p_src_per_target = np.zeros(self.nt,
                                                    dtype=np.int64)
        return self._p2p_src_per_target


def _concat(chunks: list[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks)


def _walk_dfs(tree: Tree, targets: np.ndarray, alpha: float,
              cls: np.ndarray, start: int):
    """The classical batched depth-first descent: a Python stack of
    (node, target-index-array) pairs, node data kept scalar."""
    nt = targets.shape[0]
    children = tree.children
    com, center, half = tree.com, tree.center, tree.half

    cl_nodes: list[int] = []
    cl_idx: list[np.ndarray] = []
    leaf_nodes: list[int] = []
    leaf_idx: list[np.ndarray] = []
    remote: dict[int, list[np.ndarray]] = {}
    mac_per_target = np.zeros(nt, dtype=np.int64)
    mac_tests = 0

    stack: list[tuple[int, np.ndarray]] = [(start, np.arange(nt))]
    while stack:
        node, idx = stack.pop()
        c = cls[node]
        if c:
            if c == 1:
                leaf_nodes.append(node)
                leaf_idx.append(idx)
            elif c == 2:
                remote.setdefault(node, []).append(idx)
            continue
        mac_tests += idx.size
        mac_per_target[idx] += 1
        t = targets[idx]
        # Bit-for-bit the expressions of BarnesHutMAC.accept.
        diff = t - com[node]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ok = (2.0 * half[node] < alpha * dist) \
            & ~np.all(np.abs(t - center[node]) < half[node], axis=1)
        far = idx[ok]
        if far.size:
            cl_nodes.append(node)
            cl_idx.append(far)
        near = idx[~ok]
        if near.size:
            row = children[node]
            for child in row[row != NO_CHILD]:
                stack.append((int(child), near))

    cl_sizes = np.array([a.size for a in cl_idx], dtype=np.int64)
    leaf_sizes = np.array([a.size for a in leaf_idx], dtype=np.int64)
    cluster_node = (np.repeat(np.asarray(cl_nodes, dtype=np.int64), cl_sizes)
                    if cl_nodes else np.zeros(0, dtype=np.int64))
    p2p_leaf = (np.repeat(np.asarray(leaf_nodes, dtype=np.int64), leaf_sizes)
                if leaf_nodes else np.zeros(0, dtype=np.int64))
    remote_pairs = {n: _concat(remote[n]) for n in remote}
    return (cluster_node, _concat(cl_idx), p2p_leaf, _concat(leaf_idx),
            remote_pairs, mac_tests, mac_per_target)


def _walk_frontier(tree: Tree, targets: np.ndarray, alpha: float,
                   cls: np.ndarray, start: int):
    """Level-synchronous MAC walk: one flat (node, target) pair frontier
    advanced per wave instead of a per-node Python stack.

    Applies the MAC with the same floating-point expressions as
    :meth:`BarnesHutMAC.accept`, gathered per pair — elementwise
    identical values, so every accept/refine decision matches the
    depth-first walk bit for bit; only the order of entries in the
    emitted lists differs (fp accumulation order in the fused kernels,
    within the module's exactness contract).
    """
    nt, d = targets.shape
    children = tree.children
    # One packed per-node row (com | center | half) turns the three
    # per-pair geometry gathers of a wave into one.  Column slices of
    # the gathered block hold the same doubles, so the MAC arithmetic
    # below is unchanged bit for bit.
    geom = np.concatenate(
        [tree.com, tree.center, tree.half[:, None]], axis=1)

    node = np.full(nt, start, dtype=np.int32)
    tgt = np.arange(nt, dtype=np.int32)
    cl_n: list[np.ndarray] = []
    cl_t: list[np.ndarray] = []
    lf_n: list[np.ndarray] = []
    lf_t: list[np.ndarray] = []
    rm_n: list[np.ndarray] = []
    rm_t: list[np.ndarray] = []
    mac_per_target = np.zeros(nt, dtype=np.int64)
    mac_tests = 0

    while node.size:
        c = cls[node]
        internal = c == 0
        if not internal.all():
            on, ot, oc = node[~internal], tgt[~internal], c[~internal]
            leaf = oc == 1
            if leaf.any():
                lf_n.append(on[leaf])
                lf_t.append(ot[leaf])
            rem = oc == 2
            if rem.any():
                rm_n.append(on[rem])
                rm_t.append(ot[rem])
            node, tgt = node[internal], tgt[internal]
        if node.size == 0:
            break
        mac_tests += node.size
        mac_per_target += np.bincount(tgt, minlength=nt)
        g = geom[node]
        t = targets[tgt]
        h = g[:, 2 * d]
        # Bit-for-bit the expressions of BarnesHutMAC.accept.
        diff = t - g[:, :d]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        ok = (2.0 * h < alpha * dist) \
            & ~np.all(np.abs(t - g[:, d:2 * d]) < h[:, None], axis=1)
        if ok.any():
            cl_n.append(node[ok])
            cl_t.append(tgt[ok])
        near = ~ok
        rows = children[node[near]]
        valid = rows != NO_CHILD
        tgt = np.repeat(tgt[near], valid.sum(axis=1))
        node = rows[valid]                    # per pair, octant order

    remote_pairs: dict[int, np.ndarray] = {}
    if rm_n:
        rn = np.concatenate(rm_n)
        rt = np.concatenate(rm_t)
        for r in np.unique(rn):
            remote_pairs[int(r)] = rt[rn == r].astype(np.int64)
    # Wave order interleaves nodes, which would scatter the evaluators'
    # per-chunk node gathers; regroup each list by node id so entries
    # for one node are contiguous, like the depth-first walk's output.
    # (List entry order is outside the exactness contract.)  The walk
    # runs on 32-bit pair indices; the published lists are int64 like
    # the depth-first walk's.
    def _grouped(nodes_chunks, tgt_chunks):
        nodes, tgts = _concat(nodes_chunks), _concat(tgt_chunks)
        if nodes.size:
            o = np.argsort(nodes, kind="stable")
            nodes, tgts = nodes[o], tgts[o]
        return nodes.astype(np.int64), tgts.astype(np.int64)

    cluster_node, cluster_tgt = _grouped(cl_n, cl_t)
    p2p_leaf, p2p_tgt = _grouped(lf_n, lf_t)
    return (cluster_node, cluster_tgt, p2p_leaf, p2p_tgt,
            remote_pairs, mac_tests, mac_per_target)


def build_interaction_lists(tree: Tree, target_positions: np.ndarray,
                            mac: BarnesHutMAC, root: int | None = None,
                            method: str = "auto") -> InteractionLists:
    """The list-building pass: one MAC walk, no kernel evaluation.

    Two walks produce the same interaction *sets*: the classical batched
    depth-first descent (``method="dfs"``) and a level-synchronous
    frontier walk (``method="frontier"``) that advances every live
    (node, target) pair at once per tree level.  ``"auto"`` picks the
    frontier walk when the tree is large relative to the target batch
    (see :data:`FRONTIER_AUTO_NODE_TARGET_RATIO`), and the depth-first
    walk for large batches.  Both inline the :class:`BarnesHutMAC`
    criterion with the
    identical floating-point expressions as the classical traversal, so
    every accept/refine decision — and hence all interaction counters,
    per-node DPDA counts, and remote bins — match it exactly; only list
    entry order (fp accumulation order) differs between walks.
    """
    targets = np.atleast_2d(np.asarray(target_positions, dtype=np.float64))
    nt, d = targets.shape
    empty = InteractionLists(
        targets=targets, nt=nt, d=d,
        cluster_node=np.zeros(0, dtype=np.int64),
        cluster_tgt=np.zeros(0, dtype=np.int64),
        p2p_leaf=np.zeros(0, dtype=np.int64),
        p2p_tgt=np.zeros(0, dtype=np.int64),
        p2p_sizes=np.zeros(0, dtype=np.int64),
        remote_targets={}, mac_tests=0,
        mac_per_target=np.zeros(nt, dtype=np.int64),
        p2p_interactions=0,
    )
    if nt == 0 or tree.nnodes == 0:
        return empty

    children = tree.children
    counts = (tree.end - tree.start).astype(np.int64)
    # One class code per node collapses the remote/empty/leaf tests into
    # a single lookup.  Priority mirrors the classical walk:
    # remote > empty > leaf > internal.
    cls = np.zeros(tree.nnodes, dtype=np.int8)        # 0 = internal
    cls[(children == NO_CHILD).all(axis=1)] = 1       # leaf
    cls[counts == 0] = 3                              # empty: skipped
    cls[tree.remote_owner >= 0] = 2                   # remote
    if method not in ("auto", "frontier", "dfs"):
        raise ValueError(f"unknown walk method {method!r}")
    if method == "auto":
        use_frontier = tree.nnodes >= FRONTIER_AUTO_NODE_TARGET_RATIO * nt
    else:
        use_frontier = method == "frontier"

    start = tree.ROOT if root is None else root
    walk = _walk_frontier if use_frontier else _walk_dfs
    (cluster_node, cluster_tgt, p2p_leaf, p2p_tgt, remote_pairs,
     mac_tests, mac_per_target) = walk(tree, targets, mac.alpha, cls, start)

    # Sorted keys and sorted contents: bin composition is independent of
    # the walk and of its visit order.
    remote_targets = {
        n: np.sort(remote_pairs[n]) for n in sorted(remote_pairs)
    }

    return InteractionLists(
        targets=targets, nt=nt, d=d,
        cluster_node=cluster_node,
        cluster_tgt=cluster_tgt,
        p2p_leaf=p2p_leaf,
        p2p_tgt=p2p_tgt,
        p2p_sizes=counts[p2p_leaf],
        remote_targets=remote_targets,
        mac_tests=mac_tests,
        mac_per_target=mac_per_target,
        p2p_interactions=int(counts[p2p_leaf].sum()),
    )


# -------------------------------------------------------------- evaluation
def _accumulate(values: np.ndarray, tgt: np.ndarray,
                contrib: np.ndarray, nt: int) -> None:
    """Scatter-add per-pair contributions onto the target axis."""
    if values.ndim == 1:
        values += np.bincount(tgt, weights=contrib, minlength=nt)
    else:
        for k in range(values.shape[1]):
            values[:, k] += np.bincount(tgt, weights=contrib[:, k],
                                        minlength=nt)


def _run_slots(values: np.ndarray, nslots: int, threads: int,
               run_slot) -> None:
    """Run ``run_slot(s, out)`` for the slots ``0 .. nslots - 1`` (the
    ones that own a chunk), serially or on a thread pool.

    Chunk ``c`` of a pass belongs to slot ``c % ACCUM_SLOTS``, and each
    slot scans its chunks in order.  Slot 0 accumulates straight into
    ``values``; every other slot gets a private zeroed buffer, and those
    buffers are added to ``values`` in slot order once all slots are
    done.  No slot reads what another writes, so the sum tree — and the
    result bits — depend on the chunk layout only, never on
    ``threads``.  With a single chunk this is the plain serial loop."""
    outs = [values] + [np.zeros_like(values) for _ in range(1, nslots)]
    if threads <= 1 or nslots <= 1:
        for s in range(nslots):
            run_slot(s, outs[s])
    else:
        with ThreadPoolExecutor(max_workers=min(threads, nslots)) as ex:
            list(ex.map(run_slot, range(nslots), outs))  # surfaces errors
    for out in outs[1:]:           # slot order — part of the sum tree
        values += out


def _cluster_pass(lists: InteractionLists, values: np.ndarray,
                  evaluator, mode: str, chunk_bytes: int,
                  tier: str, threads: int | None) -> None:
    n = lists.cluster_tgt.size
    if n == 0:
        return
    if tier == "numba":
        info = evaluator.compiled_cluster_data(mode)
        if info is not None:
            com, mass, soft = info
            compiled.cluster_pass(values, lists.targets,
                                  lists.cluster_tgt, lists.cluster_node,
                                  com, mass, soft, mode, threads)
            return
        # Evaluator is not compiled-eligible for this mode (degree >= 1
        # multipole potentials): fall through to the numpy batch path.
    batch = getattr(evaluator,
                    "batch_potential" if mode == "potential"
                    else "batch_force")
    chunk = max(1, chunk_bytes // max(int(evaluator.batch_row_bytes), 1))
    nchunks = -(-n // chunk)

    def run_slot(s, out):
        for ci in range(s, nchunks, compiled.ACCUM_SLOTS):
            lo = ci * chunk
            tgt = lists.cluster_tgt[lo:lo + chunk]
            contrib = batch(lists.cluster_node[lo:lo + chunk],
                            lists.targets[tgt])
            _accumulate(out, tgt, contrib, lists.nt)

    _run_slots(values, min(nchunks, compiled.ACCUM_SLOTS), threads or 1,
               run_slot)


def _p2p_rows(n: int, ns: int, d: int, chunk_bytes: int) -> int:
    """Target rows per P2P chunk of a leaf group with ``ns`` sources."""
    # live temporaries per target row: the (chunk, ns, d) source gather
    # + diff blocks and a few (chunk, ns) scalars
    row = 8 * (2 * ns * d + 4 * ns + 2 * d + 4)
    return min(n, max(1, chunk_bytes // row))


def _p2p_buffers(chunk: int, ns: int, d: int) -> tuple:
    """P2P chunk buffers: diff tensor, squared distances, per-pair
    weights, gathered masses."""
    return (np.empty((chunk, ns, d)), np.empty((chunk, ns)),
            np.empty((chunk, ns)), np.empty((chunk, ns)))


def _p2p_scratch(lists: InteractionLists, slot: int, ns: int,
                 chunk: int) -> tuple:
    """P2P chunk buffers cached on the lists, so every chunk of a slot —
    and any later evaluation of the same lists — reuses one
    allocation."""
    if lists._scratch is None:
        lists._scratch = {}
    key = (slot, ns, chunk)
    bufs = lists._scratch.get(key)
    if bufs is None:
        bufs = lists._scratch[key] = _p2p_buffers(chunk, ns, lists.d)
    return bufs


def _p2p_chunk(nt: int, out: np.ndarray,
               tgt: np.ndarray, tpos: np.ndarray, row_entry: np.ndarray,
               sp: np.ndarray, sm: np.ndarray | None, lo: int, hi: int,
               force: bool, soft2: float, scale: float,
               scratch: tuple) -> None:
    """One fused P2P chunk over target rows ``lo:hi``: gather, subtract,
    rsqrt, contract, scatter-add onto ``out`` (``nt`` targets).  Row
    ``i`` is target ``tgt[i]`` at ``tpos[i]`` against source block
    ``sp[row_entry[i]]`` (masses ``sm`` likewise, or ``None`` when
    ``scale`` already carries a uniform mass)."""
    diff, r2, w, mbuf = scratch
    c = hi - lo
    tg = tgt[lo:hi]
    rows = row_entry[lo:hi]
    dv, r2v, wv = diff[:c], r2[:c], w[:c]
    np.take(sp, rows, axis=0, out=dv)
    np.subtract(tpos[lo:hi, None, :], dv, out=dv)
    np.einsum("ijk,ijk->ij", dv, dv, out=r2v)
    if soft2 != 0.0:
        r2v += soft2
    zero = r2v == 0.0
    np.sqrt(r2v, out=r2v)
    with np.errstate(divide="ignore"):
        np.divide(1.0, r2v, out=r2v)           # inv_r
    r2v[zero] = 0.0
    if not force:
        if sm is None:
            contrib = r2v.sum(axis=1)
        else:
            np.take(sm, rows, axis=0, out=mbuf[:c])
            contrib = np.einsum("ij,ij->i", r2v, mbuf[:c])
    else:
        np.multiply(r2v, r2v, out=wv)
        wv *= r2v                              # inv_r^3
        if sm is not None:
            np.take(sm, rows, axis=0, out=mbuf[:c])
            wv *= mbuf[:c]
        contrib = np.einsum("ij,ijk->ik", wv, dv)
    contrib *= scale
    _accumulate(out, tg, contrib, nt)


def _p2p_pass(lists: InteractionLists, values: np.ndarray, tree: Tree,
              sources, mode: str, softening: float, chunk_bytes: int,
              tier: str, threads: int | None) -> None:
    if lists.p2p_leaf.size == 0:
        return
    if sources is None:
        raise ValueError("tree has local leaves but no source "
                         "particles were provided")
    if tier == "numba":
        compiled.p2p_pass(values, lists, tree, sources, mode, softening,
                          threads)
        return
    threads = threads or 1
    smass = sources.masses
    uniform = smass.size > 0 and bool(np.all(smass == smass[0]))
    # With uniform masses the scalar factor moves outside the row sums
    # (per-pair values differ only in rounding, ~1e-16 relative).
    scale = -kernels.G * (float(smass[0]) if uniform else 1.0)
    soft2 = softening ** 2
    force = mode == "force"
    plans = []
    for group in lists.p2p_groups(tree, sources):
        n, ns = group[0].size, group[3].shape[1]
        chunk = _p2p_rows(n, ns, lists.d, chunk_bytes)
        plans.append((group, n, ns, chunk, -(-n // chunk)))
    nslots = min(compiled.ACCUM_SLOTS, max(p[4] for p in plans))

    def run_slot(s, out):
        # Slots share scratch when they run one after another.
        key = s if threads > 1 else 0
        for (tgt, tpos, row_entry, sp, sm), n, ns, chunk, nchunks in plans:
            if s >= nchunks:
                continue
            scratch = _p2p_scratch(lists, key, ns, chunk)
            for ci in range(s, nchunks, compiled.ACCUM_SLOTS):
                lo = ci * chunk
                _p2p_chunk(lists.nt, out, tgt, tpos, row_entry, sp, sm,
                           lo, min(lo + chunk, n), force, soft2, scale,
                           scratch)

    _run_slots(values, nslots, threads, run_slot)


def evaluate_interaction_lists(tree: Tree, lists: InteractionLists,
                               sources, evaluator,
                               mode: str = "potential",
                               softening: float = 0.0,
                               count_node_interactions: bool = False,
                               target_weights: np.ndarray | None = None,
                               working_set_bytes: int | None = None,
                               kernel_tier: str = "numpy",
                               kernel_threads: int | None = None
                               ) -> TraversalResult:
    """The evaluation pass: fused kernels over prebuilt lists.

    Produces a :class:`TraversalResult` with the same values (to fp
    accumulation order), the identical counters, the identical per-node
    DPDA interaction counts, and the identical per-target weight
    attribution as the classical traversal would.

    ``kernel_tier`` selects the arithmetic backend (see
    :mod:`repro.bh.compiled`); counters, DPDA counts and weights come
    from the walk and are tier-independent by construction.
    ``kernel_threads`` is how many threads run the slot-deterministic
    evaluator; its results are bitwise independent of the count.
    ``None`` means one thread on the numpy tier and numba's own thread
    count on the numba tier.
    """
    if mode not in ("potential", "force"):
        raise ValueError(f"mode must be 'potential' or 'force', got {mode!r}")
    if kernel_threads is not None and int(kernel_threads) < 1:
        raise ValueError("kernel_threads must be >= 1 (or None for the "
                         "default)")
    tier = compiled.resolve_tier(kernel_tier)
    nt, d = lists.nt, lists.d
    values = np.zeros(nt) if mode == "potential" else np.zeros((nt, d))
    result = TraversalResult(
        values=values, mac_tests=lists.mac_tests,
        cluster_interactions=lists.cluster_interactions,
        p2p_interactions=lists.p2p_interactions,
        remote_targets=dict(lists.remote_targets),
    )
    if nt == 0:
        return result
    ws = (DEFAULT_WORKING_SET_BYTES if working_set_bytes is None
          else int(working_set_bytes))

    _cluster_pass(lists, values, evaluator, mode, ws, tier, kernel_threads)
    _p2p_pass(lists, values, tree, sources, mode, softening, ws,
              tier, kernel_threads)

    if count_node_interactions:
        nn = tree.nnodes
        if lists.cluster_node.size:
            tree.interactions += np.bincount(lists.cluster_node,
                                             minlength=nn)
        if lists.p2p_leaf.size:
            # A leaf visited by m targets costs m * leaf_count pairs.
            visits = np.bincount(lists.p2p_leaf, minlength=nn)
            counts = (tree.end - tree.start).astype(np.int64)
            tree.interactions += visits * counts
    if target_weights is not None:
        degree = getattr(evaluator, "degree", 0)
        per_cluster = 13.0 + 16.0 * max(degree, 1) ** 2
        # All three contributions are integer-valued floats, so this is
        # exactly equal to the classical per-visit accumulation.
        target_weights += (14.0 * lists.mac_tests_per_target()
                           + per_cluster * lists.cluster_per_target()
                           + 29.0 * lists.p2p_sources_per_target())
    return result


# ------------------------------------------------------------------ engine
class TraversalEngine:
    """One tree's traversal settings: every :meth:`compute` walks the
    tree for its target batch and evaluates the resulting lists.
    ``walks_built`` counts the walks.  ``working_set_bytes``,
    ``kernel_tier`` and ``kernel_threads`` are passed through to
    :func:`evaluate_interaction_lists` (``kernel_threads=None``: one
    thread on the numpy tier)."""

    def __init__(self, tree: Tree, sources=None, mac=None,
                 softening: float = 0.0,
                 working_set_bytes: int | None = None,
                 kernel_tier: str = "numpy",
                 kernel_threads: int | None = None):
        if kernel_threads is not None and int(kernel_threads) < 1:
            raise ValueError("kernel_threads must be >= 1 (or None for "
                             "the default)")
        self.tree = tree
        self.sources = sources
        self.mac = mac
        self.softening = softening
        self.working_set_bytes = working_set_bytes
        # resolved once: "auto" pins to the tier that will actually run
        self.kernel_tier = compiled.resolve_tier(kernel_tier)
        self.kernel_threads = kernel_threads
        self.walks_built = 0

    def compute(self, target_positions: np.ndarray, evaluator,
                mode: str = "potential",
                count_node_interactions: bool = False,
                target_weights: np.ndarray | None = None
                ) -> TraversalResult:
        """One walk plus one evaluation over ``target_positions``."""
        lists = build_interaction_lists(self.tree, target_positions,
                                        self.mac)
        self.walks_built += 1
        return evaluate_interaction_lists(
            self.tree, lists, self.sources, evaluator, mode=mode,
            softening=self.softening,
            count_node_interactions=count_node_interactions,
            target_weights=target_weights,
            working_set_bytes=self.working_set_bytes,
            kernel_tier=self.kernel_tier,
            kernel_threads=self.kernel_threads,
        )
