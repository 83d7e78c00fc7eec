"""Vectorized per-pass pagerank kernels shared by all engines.

Both the synchronous reference solver and the chaotic distributed
engine compute, once per pass, the quantity

    new(i) = (1 - d) + d * Σ_{j -> i} value(j) / outdeg(j)

over every in-link of every document (paper Eq. 1).  Two kernel
backends implement that contract, selected by the ``REPRO_KERNEL``
environment variable (read once per workspace construction):

* ``csr`` (default) — :class:`CSRWorkspace`, a precomputed reverse-CSR
  (in-adjacency) layout of flat numpy ``indptr``/``indices``/``data``
  arrays (no scipy).  Besides the full pull it supports **selective
  row recomputation** (:meth:`CSRWorkspace.pull_rows`): only the rows
  whose in-edge inputs changed since the last pass are re-summed.  A
  row whose inputs are untouched would re-sum to bit-identical values,
  so skipping it cannot change any result — the speedup is mechanical,
  not semantic (the differential suite proves byte-identical ranks and
  pass counts against the naive backend on every seed).
* ``naive`` — :class:`EdgeWorkspace`, the original per-edge layout
  (full gather + scatter-add over every edge, every pass).  Kept as
  the reference the differential tests compare against; select it with
  ``REPRO_KERNEL=naive``.

Bit-identity rests on one numerical fact the test suite pins down:
``np.bincount`` accumulates its weights *sequentially* in array order,
so per-target sums come out identical whether the edges are walked in
forward (source-major) order or grouped per row of the reverse CSR —
within one target, both orders list in-edges by ascending source.
(``np.add.reduceat`` is *not* used: it sums pairwise, which rounds
differently.)

Workspaces hold precomputed arrays plus reusable output buffers
(allocated once, reused every pass — "be easy on the memory" per the
optimization guide).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from repro.graphs.linkgraph import LinkGraph

__all__ = [
    "EdgeWorkspace",
    "CSRWorkspace",
    "ShardCSRView",
    "Workspace",
    "kernel_backend",
    "make_workspace",
    "expand_rows",
    "relative_change",
]

#: Environment variable selecting the kernel backend (``csr``/``naive``).
_KERNEL_ENV = "REPRO_KERNEL"


def kernel_backend() -> str:
    """The kernel backend selected by ``REPRO_KERNEL`` (default ``csr``).

    Read at every workspace construction, so tests can flip the
    environment between engine instantiations.  Unknown values raise
    immediately rather than silently running the wrong kernel.
    """
    backend = os.environ.get(_KERNEL_ENV, "csr").strip().lower()
    if backend not in ("csr", "naive"):
        raise ValueError(
            f"{_KERNEL_ENV} must be 'csr' or 'naive', got {backend!r}"
        )
    return backend


def expand_rows(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat positions of every CSR entry of ``rows``, plus row lengths.

    Returns ``(pos, lens)`` where ``pos`` indexes the CSR data/indices
    arrays and ``lens[k]`` is the entry count of ``rows[k]``; entries of
    one row are contiguous in ``pos`` and keep their CSR order.  Pure
    vectorized index arithmetic, O(total entries) — shared by the
    selective pull kernel, the engines' frontier expansion, and the
    incremental-update propagation.
    """
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lens
    cum = np.cumsum(lens)
    pos = np.repeat(starts, lens) + np.arange(total, dtype=np.int64)
    pos -= np.repeat(cum - lens, lens)
    return pos, lens


@dataclass
class EdgeWorkspace:
    """Per-edge arrays + scratch buffers (the ``naive`` kernel backend).

    Attributes
    ----------
    src:
        Source document of every edge (length E).
    dst:
        Target document of every edge (length E).
    inv_outdeg:
        ``1 / outdeg`` per *node* (0.0 for dangling nodes so a gather
        through it contributes nothing).
    edge_weight:
        ``inv_outdeg[src]`` per edge — the share of the source's rank
        this edge carries.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    inv_outdeg: np.ndarray
    edge_weight: np.ndarray
    _contrib: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @classmethod
    def from_graph(cls, graph: LinkGraph) -> "EdgeWorkspace":
        """Build the workspace for ``graph`` (O(E) one-time setup)."""
        n = graph.num_nodes
        out_deg = graph.out_degrees()
        src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
        dst = graph.indices
        inv = graph.inv_out_degrees()
        ws = cls(
            num_nodes=n,
            src=src,
            dst=dst,
            inv_outdeg=inv,
            edge_weight=inv[src],
        )
        ws._contrib = np.empty(src.size, dtype=np.float64)
        return ws

    def pull(self, values: np.ndarray, damping: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One full pull pass: ``(1-d) + d * Σ_in values[src]/outdeg``.

        Parameters
        ----------
        values:
            Per-node values visible to receivers (current ranks for the
            synchronous solver; last-*sent* ranks for the chaotic one).
        damping:
            The damping factor ``d``.
        out:
            Optional preallocated length-N output buffer.

        Returns
        -------
        numpy.ndarray
            The new rank of every node.
        """
        np.multiply(values[self.src], self.edge_weight, out=self._contrib)
        acc = np.bincount(self.dst, weights=self._contrib, minlength=self.num_nodes)
        if out is None:
            out = np.empty(self.num_nodes, dtype=np.float64)
        np.multiply(acc, damping, out=out)
        out += 1.0 - damping
        return out

    def pull_edges(
        self,
        edge_values: np.ndarray,
        damping: float,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pull pass where each edge carries its own delivered value.

        Used by the churn-aware engine: ``edge_values[e]`` is the last
        value actually *delivered* along edge ``e`` (deliveries fail
        while the receiving peer is absent), so different out-edges of
        the same document may carry different vintages of its rank —
        exactly the store-and-resend behaviour of §3.1.
        """
        np.multiply(edge_values, self.edge_weight, out=self._contrib)
        acc = np.bincount(self.dst, weights=self._contrib, minlength=self.num_nodes)
        if out is None:
            out = np.empty(self.num_nodes, dtype=np.float64)
        np.multiply(acc, damping, out=out)
        out += 1.0 - damping
        return out


@dataclass
class CSRWorkspace:
    """Reverse-CSR pull kernel with selective row recomputation.

    The layout is three flat numpy arrays (no scipy): ``rindptr`` of
    length ``N + 1``, ``rindices`` listing the *source* document of
    every in-edge grouped by target, and ``rdata`` carrying the edge
    weight ``1/outdeg(source)``.  Within one target the sources appear
    in ascending order — the same per-target order ``np.bincount``
    accumulates the forward (source-major) edge walk in, which is what
    makes every kernel here bit-identical to :class:`EdgeWorkspace`.

    The forward per-edge arrays (``src``/``dst``/``edge_weight``) are
    kept too: the churn engine's §3.1 per-edge delivered-value state
    and the frontier expansion of the selective path both need them.

    Attributes
    ----------
    rindptr:
        In-adjacency row pointers (length N + 1).
    rindices:
        In-edge source document per reverse-CSR entry (length E).
    rdata:
        ``inv_outdeg[rindices]`` — the weight of each in-edge.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    inv_outdeg: np.ndarray
    edge_weight: np.ndarray
    rindptr: np.ndarray
    rindices: np.ndarray
    rdata: np.ndarray
    _contrib: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _rev_rowids: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @classmethod
    def from_graph(cls, graph: LinkGraph) -> "CSRWorkspace":
        """Build forward + reverse layouts for ``graph`` (O(E) setup)."""
        n = graph.num_nodes
        out_deg = graph.out_degrees()
        src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
        dst = graph.indices
        inv = graph.inv_out_degrees()
        edge_weight = inv[src]
        # Reverse CSR: stable sort of the forward edge list by target
        # keeps, within each target, the ascending-source order the
        # forward bincount accumulates in.
        order = np.argsort(dst, kind="stable")
        rindices = src[order]
        rdata = edge_weight[order]
        rindptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=rindptr[1:])
        ws = cls(
            num_nodes=n,
            src=src,
            dst=dst,
            inv_outdeg=inv,
            edge_weight=edge_weight,
            rindptr=rindptr,
            rindices=rindices,
            rdata=rdata,
        )
        ws._contrib = np.empty(src.size, dtype=np.float64)
        ws._rev_rowids = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(rindptr)
        )
        return ws

    # ------------------------------------------------------------------
    def pull(self, values: np.ndarray, damping: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One full pull pass over the reverse layout.

        Bit-identical to :meth:`EdgeWorkspace.pull`: the per-target
        accumulation order (ascending source) and the scalar epilogue
        (multiply by ``d``, add ``1 - d``) are the same.
        """
        np.multiply(values[self.rindices], self.rdata, out=self._contrib)
        acc = np.bincount(
            self._rev_rowids, weights=self._contrib, minlength=self.num_nodes
        )
        if out is None:
            out = np.empty(self.num_nodes, dtype=np.float64)
        np.multiply(acc, damping, out=out)
        out += 1.0 - damping
        return out

    def pull_rows(
        self, values: np.ndarray, damping: float, rows: np.ndarray
    ) -> np.ndarray:
        """Selective pull: recompute only ``rows`` (sorted node ids).

        Returns the new rank of each requested row, bit-identical to
        what a full pull would produce there: each row's in-edges are
        walked in the same ascending-source order and summed by the
        same sequential ``bincount``.
        """
        pos, lens = expand_rows(self.rindptr, rows)
        k = rows.size
        if pos.size == 0:
            return np.full(k, 1.0 - damping, dtype=np.float64)
        contrib = values[self.rindices[pos]]
        contrib *= self.rdata[pos]
        local = np.repeat(np.arange(k, dtype=np.int64), lens)
        acc = np.bincount(local, weights=contrib, minlength=k)
        np.multiply(acc, damping, out=acc)
        acc += 1.0 - damping
        return acc

    def out_neighbors_mask(
        self, rows: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Mark (in ``out``, a length-N bool buffer) every out-link
        target of ``rows`` — the frontier whose inputs just changed."""
        out[:] = False
        pos, _ = expand_rows(indptr, rows)
        if pos.size:
            out[indices[pos]] = True
        return out

    def pull_edges(
        self,
        edge_values: np.ndarray,
        damping: float,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Pull pass where each edge carries its own delivered value
        (§3.1 churn state; see :meth:`EdgeWorkspace.pull_edges`).

        Operates on the forward per-edge arrays, so it is the very same
        computation as the naive backend's.
        """
        np.multiply(edge_values, self.edge_weight, out=self._contrib)
        acc = np.bincount(self.dst, weights=self._contrib, minlength=self.num_nodes)
        if out is None:
            out = np.empty(self.num_nodes, dtype=np.float64)
        np.multiply(acc, damping, out=out)
        out += 1.0 - damping
        return out


@dataclass
class ShardCSRView:
    """Read-only sub-CSR over a fixed row subset of a :class:`CSRWorkspace`.

    The multi-process sharded engine (:mod:`repro.parallel`) gives each
    worker shard a slice of the reverse CSR covering only its own rows;
    source indices stay *global* so a shard pulls straight out of the
    shared last-sent array without any id translation.  Because every
    row keeps its complete in-edge list in the original ascending-source
    order and the accumulation is the same sequential ``np.bincount``,
    the values a shard computes for its rows are bit-identical to what
    a full :meth:`CSRWorkspace.pull` over the whole graph would put
    there — the partition cannot change any result, only who computes
    it (the differential suite pins this down per seed).

    Attributes
    ----------
    rows:
        Global ids of the rows this view covers (sorted ascending).
    rindptr:
        Local in-adjacency row pointers (length ``rows.size + 1``).
    rindices:
        Global source id per in-edge of the covered rows.
    rdata:
        ``1/outdeg(source)`` weight per in-edge.
    """

    num_nodes: int
    rows: np.ndarray
    rindptr: np.ndarray
    rindices: np.ndarray
    rdata: np.ndarray
    _contrib: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _rowids: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @classmethod
    def from_workspace(
        cls, ws: CSRWorkspace, rows: np.ndarray
    ) -> "ShardCSRView":
        """Slice the reverse CSR of ``ws`` down to ``rows`` (O(shard
        edges) one-time setup; ``rows`` must be sorted and unique)."""
        rows = np.asarray(rows, dtype=np.int64)
        pos, lens = expand_rows(ws.rindptr, rows)
        rindptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=rindptr[1:])
        view = cls(
            num_nodes=ws.num_nodes,
            rows=rows,
            rindptr=rindptr,
            rindices=ws.rindices[pos].copy(),
            rdata=ws.rdata[pos].copy(),
        )
        view._contrib = np.empty(pos.size, dtype=np.float64)
        view._rowids = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
        return view

    @property
    def num_rows(self) -> int:
        """Rows covered by this view."""
        return int(self.rows.size)

    @property
    def num_edges(self) -> int:
        """In-edges of the covered rows."""
        return int(self.rindices.size)

    def row_edges(self, local_rows: np.ndarray) -> int:
        """Total in-edge count of the given *local* row indices."""
        return int(
            (self.rindptr[local_rows + 1] - self.rindptr[local_rows]).sum()
        )

    def pull(
        self,
        values: np.ndarray,
        damping: float,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Recompute every covered row from the global ``values`` array.

        Returns a length-``num_rows`` array aligned with :attr:`rows`,
        bit-identical to the same rows of a full-graph pull.
        """
        np.multiply(values[self.rindices], self.rdata, out=self._contrib)
        acc = np.bincount(
            self._rowids, weights=self._contrib, minlength=self.rows.size
        )
        if out is None:
            out = np.empty(self.rows.size, dtype=np.float64)
        np.multiply(acc, damping, out=out)
        out += 1.0 - damping
        return out

    def pull_rows(
        self, values: np.ndarray, damping: float, local_rows: np.ndarray
    ) -> np.ndarray:
        """Selective pull of the given *local* row indices (sorted).

        The shard-local twin of :meth:`CSRWorkspace.pull_rows`: same
        expansion, same sequential ``bincount``, so the returned values
        are bit-identical to a full pull's at ``rows[local_rows]``.
        """
        pos, lens = expand_rows(self.rindptr, local_rows)
        k = local_rows.size
        if pos.size == 0:
            return np.full(k, 1.0 - damping, dtype=np.float64)
        contrib = values[self.rindices[pos]]
        contrib *= self.rdata[pos]
        local = np.repeat(np.arange(k, dtype=np.int64), lens)
        acc = np.bincount(local, weights=contrib, minlength=k)
        np.multiply(acc, damping, out=acc)
        acc += 1.0 - damping
        return acc


#: Either kernel backend; engines accept both interchangeably.
Workspace = Union[CSRWorkspace, EdgeWorkspace]


def make_workspace(graph: LinkGraph) -> Workspace:
    """Build the pass-kernel workspace for ``graph`` under the backend
    selected by ``REPRO_KERNEL`` (see :func:`kernel_backend`)."""
    if kernel_backend() == "naive":
        return EdgeWorkspace.from_graph(graph)
    return CSRWorkspace.from_graph(graph)


def relative_change(old: np.ndarray, new: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-document relative error ``|old - new| / new`` (paper Fig. 1).

    ``new`` is bounded below by ``(1 - d) > 0`` for every computed
    document, so the division is safe there; entries where ``new`` is 0
    (never-computed documents in edge cases) are reported as 0 change.
    """
    if out is None:
        out = np.empty_like(new)
    np.subtract(old, new, out=out)
    np.abs(out, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, new, out=out, where=new != 0)
    out[new == 0] = 0.0
    return out
