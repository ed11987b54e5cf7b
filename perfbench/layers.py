"""Per-layer tracing from outside the program.

``LayerTracer.install`` wraps each layer's public entry point, either by
patching the class attribute or by rebinding a module-level function in
every ``repro`` module that imported it by name.  Nothing under ``src/``
changes, and ``uninstall`` restores the originals.

Per call the wrapper records wall time (``perf_counter``) and CPU time
(``thread_time``).  Self time is a span's total minus the time covered
by its child spans.  Spans are recorded only inside a rank program: the
engines' ``run`` methods are wrapped so that each rank's ``main`` runs
under a per-thread span stack.  On the virtual backend the rank threads
share one interpreter lock, so thread CPU, not wall time, says how busy
a layer is.  Forked process-backend workers inherit the wrappers; each
writes its table to ``out_dir`` before its rank program returns.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import threading
import time

# layer -> [(owner, attribute name)]; an owner is a class path (patched
# on the class) or a module path (rebound wherever it was imported).
ENTRY_POINTS = {
    "walk": [("repro.bh.interaction_lists", "build_interaction_lists")],
    "eval": [("repro.bh.interaction_lists", "evaluate_interaction_lists")],
    "ship": [("repro.core.function_shipping:FunctionShippingEngine", "run"),
             ("repro.core.bins:BinManager", "complete")],
    "mailbox": [("repro.machine.mailbox:Mailbox", "get"),
                ("repro.machine.mailbox:Mailbox", "poll"),
                ("repro.machine.mailbox:Mailbox", "put")],
    "tree": [("repro.core.tree_build", "build_local_trees"),
             ("repro.bh.tree", "build_tree")],
    "tree_merge": [("repro.core.tree_merge", "merge_broadcast"),
                   ("repro.core.tree_merge", "merge_nonreplicated")],
    # The DPDA boundary search is inline in the rank state's decompose
    # step (costzones_owners is never called by a run), so the balance
    # layer is entered through that method for every scheme.
    "balance": [("repro.core.simulation:_RankState", "decompose"),
                ("repro.core.morton_assign", "balance_clusters"),
                ("repro.core.costzones", "costzones_owners")],
    "repair": [("repro.bh.tree_repair", "repair_tree")],
    "checkpoint": [("repro.core.checkpoint:CheckpointStore", "save"),
                   ("repro.core.checkpoint:DiskCheckpointStore", "save")],
    "transport": [("repro.runtime.process_transport:ProcessEndpoint",
                   "deliver"),
                  ("repro.runtime.process_transport:ProcessEndpoint",
                   "get"),
                  ("repro.runtime.shm", "encode"),
                  ("repro.runtime.shm", "decode")],
}
LAYERS = tuple(ENTRY_POINTS)

#: Per layer: outermost calls, and self wall and self CPU seconds.
_FIELDS = ("calls", "wall", "cpu")


def _counts(layer: str, args: tuple, result) -> dict:
    """Work counters taken from a layer call's arguments and result."""
    if layer == "walk":
        return {"targets": result.nt}
    if layer == "eval":
        return {"interactions": result.cluster_interactions
                + result.p2p_interactions}
    if layer == "repair":
        return {"fallbacks": int(bool(result.rebuilt))}
    if layer == "checkpoint" and hasattr(args[0], "_path"):
        store, ckpt = args[0], args[1]
        return {"bytes": os.path.getsize(store._path(ckpt.rank, ckpt.step))}
    return {}


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    __import__(mod_name)
    mod = sys.modules[mod_name]
    return mod, (getattr(mod, cls_name) if cls_name else None)


class LayerTracer:
    """Collects one table of per-layer totals per rank program."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.host_pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._tables: list[dict] = []
        self.engine_wall: list[float] = []

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        for layer, points in ENTRY_POINTS.items():
            for owner, attr in points:
                mod, cls = _resolve(owner)
                if cls is not None:
                    orig = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(layer, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(layer, orig)
                for name, m in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) \
                            and getattr(m, attr, None) is orig:
                        self._patch(m, attr, wrapped)
        from repro.machine.engine import Engine
        from repro.runtime.process_engine import ProcessEngine
        for cls in (Engine, ProcessEngine):
            self._patch(cls, "run", self._wrap_engine(cls.__dict__["run"]))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._saved):
            setattr(target, attr, orig)
        self._saved.clear()

    def _patch(self, target, attr: str, new) -> None:
        self._saved.append((target, attr, getattr(target, attr)
                            if not isinstance(target, type)
                            else target.__dict__[attr]))
        setattr(target, attr, new)

    # ------------------------------------------------------------- spans
    def _wrap(self, layer: str, fn):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:           # not inside a rank program
                return fn(*args, **kwargs)
            frame = [layer, 0.0, 0.0]   # layer, child wall, child cpu
            stack.append(frame)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dw = time.perf_counter() - w0
                dc = time.thread_time() - c0
                stack.pop()
                parent = stack[-1]
                parent[1] += dw
                parent[2] += dc
                row = local.table[layer]
                row["wall"] += dw - frame[1]
                row["cpu"] += dc - frame[2]
            # A layer re-entered from inside itself (a store's save
            # calling its base class) is one call, not two.
            if parent[0] != layer:
                row["calls"] += 1
                for k, v in _counts(layer, args, result).items():
                    row[k] = row.get(k, 0) + v
            return result

        return traced

    def _wrap_engine(self, run):
        tracer = self

        @functools.wraps(run)
        def traced_run(engine, main, *args, **kwargs):
            w0 = time.perf_counter()
            try:
                return run(engine, tracer._rank_program(main), *args,
                           **kwargs)
            finally:
                tracer.engine_wall.append(time.perf_counter() - w0)

        return traced_run

    def _rank_program(self, main):
        local = self._local

        def rank_main(comm, *args):
            local.table = {layer: dict.fromkeys(_FIELDS, 0)
                           for layer in LAYERS}
            local.stack = [["rank", 0.0, 0.0]]
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                return main(comm, *args)
            finally:
                table = {"rank": comm.rank,
                         "wall": time.perf_counter() - w0,
                         "cpu": time.thread_time() - c0,
                         "layers": local.table}
                local.stack = None
                self._finish(table)

        return rank_main

    def _finish(self, table: dict) -> None:
        if os.getpid() == self.host_pid:
            with self._lock:
                self._tables.append(table)
            return
        path = os.path.join(self.out_dir,
                            f"rank{table['rank']}-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(table, fh)

    def rank_tables(self) -> list[dict]:
        """Every finished rank program's table: in-process ones plus
        those the forked workers wrote."""
        tables = list(self._tables)
        for path in sorted(glob.glob(os.path.join(self.out_dir,
                                                  "rank*.json"))):
            with open(path) as fh:
                tables.append(json.load(fh))
        return tables


def summarise(tables: list[dict], engine_wall: list[float]) -> dict:
    """Machine-wide layer totals of one traced run."""
    total = {layer: {} for layer in LAYERS}
    for t in tables:
        for layer, row in t["layers"].items():
            for k, v in row.items():
                total[layer][k] = total[layer].get(k, 0) + v
    out = {"layers": total,
           "rank_cpu": sum(t["cpu"] for t in tables),
           "rank_wall_max": max((t["wall"] for t in tables), default=0.0),
           "engine_wall": sum(engine_wall)}
    out["other_cpu"] = out["rank_cpu"] - sum(
        row.get("cpu", 0.0) for row in total.values())
    return out
