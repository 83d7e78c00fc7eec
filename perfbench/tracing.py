"""Span tracing around the program's public callables, from outside.

A :class:`Tracer` replaces public functions and methods of the
``repro`` package with timing wrappers for the length of a ``with``
block and puts every original back on exit.  Nothing inside ``src/``
is edited: each wrapper records one span (name, start, end, parent
span, query id) around the call it forwards.  Spans are kept in flat
arrays in memory and written out once, by :meth:`Tracer.save`.

A span's *self time* is its duration minus the time its child spans
cover.  The layer of a span is its name up to the first dot, so
``peer.receive_batch`` belongs to layer ``peer``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

#: (dotted owner path, attribute, span name).  The owner is a module or
#: a class; a module-level function is also re-bound in every loaded
#: ``repro`` module that imported it by name, so calls through those
#: bindings are traced too.  A span name's first component is its layer.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graphs.powerlaw", "broder_graph", "graphs.synth"),
    ("repro.p2p.network.DocumentPlacement", "random", "p2p.placement"),
    ("repro.p2p.network.P2PNetwork", "__init__", "p2p.network_build"),
    ("repro.core.kernels.CSRWorkspace", "from_graph", "kernels.workspace_build"),
    ("repro.core.kernels.EdgeWorkspace", "from_graph", "kernels.workspace_build"),
    ("repro.core.kernels.CSRWorkspace", "pull", "kernels.pull"),
    ("repro.core.kernels.CSRWorkspace", "pull_rows", "kernels.pull"),
    ("repro.core.kernels.CSRWorkspace", "pull_edges", "kernels.pull"),
    ("repro.core.kernels.EdgeWorkspace", "pull", "kernels.pull"),
    ("repro.core.kernels.EdgeWorkspace", "pull_edges", "kernels.pull"),
    ("repro.core.distributed.ChaoticPagerank", "__init__", "core.build"),
    ("repro.core.distributed.ChaoticPagerank", "run", "core.run"),
    ("repro.parallel.engine.ParallelPagerank", "__init__", "parallel.build"),
    ("repro.parallel.engine.ParallelPagerank", "run", "parallel.run"),
    ("repro.p2p.peer.Peer", "compute_pass", "peer.compute_pass"),
    ("repro.p2p.peer.Peer", "receive_batch", "peer.receive_batch"),
    ("repro.simulation.engine.P2PPagerankSimulation", "__init__", "sim.build"),
    ("repro.simulation.engine.P2PPagerankSimulation", "run", "sim.run"),
    ("repro.faults.transport.ReliableTransport", "send", "faults.send"),
    ("repro.faults.transport.ReliableTransport", "tick", "faults.tick"),
    ("repro.runtime.runtime.AsyncPeerRuntime", "__init__", "runtime.build"),
    ("repro.runtime.runtime.AsyncPeerRuntime", "run", "runtime.run"),
    ("repro.runtime.transport.InMemoryTransport", "send_batch", "runtime.transport"),
    ("repro.runtime.transport.InMemoryTransport", "send_ack", "runtime.transport"),
    ("repro.runtime.transport.InMemoryTransport", "deliver_due", "runtime.transport"),
    ("repro.runtime.reliability.FlightTracker", "launch", "runtime.reliability"),
    ("repro.runtime.reliability.FlightTracker", "on_ack", "runtime.reliability"),
    ("repro.runtime.reliability.FlightTracker", "due", "runtime.reliability"),
    ("repro.runtime.reliability.FlightTracker", "next_due", "runtime.reliability"),
    ("repro.runtime.reliability.FlightTracker", "wipe", "runtime.reliability"),
    ("repro.runtime.reliability.FlightTracker", "forgive", "runtime.reliability"),
    ("repro.search.corpus", "synthesize_corpus", "search.corpus"),
    ("repro.search.index.DistributedIndex", "__init__", "search.index_build"),
    ("repro.search.index.DistributedIndex", "refresh_ranks", "search.refresh_ranks"),
    ("repro.serve.service.ServeSession", "__init__", "serve.build"),
    ("repro.serve.service.ServeSession", "run", "serve.run"),
    ("repro.serve.router.QueryRouter", "route", "serve.route"),
    ("repro.serve.router.QueryRouter", "owner_of_term", "serve.owner_of_term"),
    ("repro.serve.admission.AdmissionController", "try_admit", "serve.admit"),
    ("repro.serve.cache.ResultCache", "get", "serve.cache"),
    ("repro.serve.cache.ResultCache", "put", "serve.cache"),
)

#: Span names that open a new query id for themselves and their children.
QUERY_SPANS = frozenset({"serve.route"})


def resolve(path: str):
    """Import the module part of ``path`` and walk the rest as attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = __import__(module_name, fromlist=["_"])
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(f"cannot resolve {path!r}")


class Tracer:
    """Records spans around the callables in :data:`WRAPPED`.

    Use as a context manager; wrappers are live only inside the block.
    ``counts`` holds named tallies the wrappers add at the boundary
    (updates received by peers, updates applied, refresh messages).
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._next_query = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name_id: int, opens_query: bool) -> int:
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        if opens_query:
            qid = self._next_query
            self._next_query += 1
        else:
            qid = self.query[parent] if parent >= 0 else -1
        self.span_name.append(name_id)
        self.parent.append(parent)
        self.query.append(qid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _make_wrapper(self, fn: Callable, name: str) -> Callable:
        name_id = self._name_id(name)
        opens_query = name in QUERY_SPANS
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                idx = tracer._open(name_id, opens_query)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

            return async_wrapper

        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id, opens_query)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    # -- install / restore -------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for owner_path, attr, name in WRAPPED:
                self._install(resolve(owner_path), attr, name)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self, owner, attr: str, name: str) -> None:
        if inspect.isclass(owner):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._make_wrapper(raw.__func__, name))
            else:
                replacement = self._make_wrapper(raw, name)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            return
        original = getattr(owner, attr)
        wrapper = self._make_wrapper(original, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns (plus the name table)."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "query": np.frombuffer(self.query, dtype=np.int32).copy(),
            "names": np.array(self._names, dtype=object),
        }

    def summary(self, root: str) -> "SpanSummary":
        """Per-name totals over every span, and per-layer self times
        over the subtree of the last span named ``root``."""
        return SpanSummary(self.arrays(), root)

    def save(self, path) -> None:
        cols = self.arrays()
        cols["names"] = np.array(self._names, dtype=str)
        np.savez(path, **cols)


class SpanSummary:
    """Self times and call counts computed from recorded spans."""

    def __init__(self, cols: Dict[str, np.ndarray], root: str) -> None:
        names = list(cols["names"])
        name = cols["name"]
        parent = cols["parent"]
        dur = cols["end"] - cols["start"]
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        for i, n in enumerate(names):
            mask = name == i
            self.calls[n] = int(mask.sum())
            self.total_s[n] = float(dur[mask].sum())
            self.self_s[n] = float(self_time[mask].sum())
        self.layers = sorted({n.split(".")[0] for n in names if self.calls[n]})
        self.root_s = 0.0
        self.layer_self_s: Dict[str, float] = {}
        if root in names:
            roots = np.flatnonzero(name == names.index(root))
            if roots.size:
                r = int(roots[-1])
                inside = (cols["start"] >= cols["start"][r]) & (
                    cols["end"] <= cols["end"][r]
                )
                self.root_s = float(dur[r])
                for i, n in enumerate(names):
                    mask = inside & (name == i)
                    if mask.any():
                        layer = n.split(".")[0]
                        self.layer_self_s[layer] = self.layer_self_s.get(
                            layer, 0.0
                        ) + float(self_time[mask].sum())


def _count_receive(tracer: Tracer, args, applied) -> None:
    tracer.count("peer.updates_received", len(args[1]))
    tracer.count("peer.updates_applied", applied)


def _count_refresh(tracer: Tracer, args, messages) -> None:
    tracer.count("search.index_update_messages", messages)


_COUNTERS: Dict[str, Callable[[Tracer, tuple, object], None]] = {
    "peer.receive_batch": _count_receive,
    "search.refresh_ranks": _count_refresh,
}
