"""Per-shard pass execution shared by both parallel backends.

A :class:`ShardRunner` owns one shard's slice of the chaotic iteration
(§2.3): the sub-CSR view over the shard's documents, the per-edge
§3.1 store-and-resend state of the in-edges it is the receiver for,
and the seeded per-shard fault stream.  Every pass splits into two
phases separated by a barrier:

* **compute** — read the globally shared inputs (last-sent values on
  the static path; the shard-private delivered-value edge state on the
  churn path), recompute the shard's rows, and stage the results;
* **publish/deliver** — write the staged results into the shard's own
  disjoint regions of the shared arrays (static), or fold the other
  shards' freshly published values into the private edge state
  (churn), then write the shard's statistics row.

All cross-shard writes are to disjoint index ranges and all
cross-shard reads happen on the far side of a barrier from the writes
they observe, so the execution is race-free and — because each row's
in-edges are walked in the same ascending-source order as the serial
kernels and summed by the same sequential ``bincount`` — every value
is bit-identical to the serial engine's (docs/PERFORMANCE.md "Sharded
execution model").  The ``in-process`` backend drives these runners on
one thread; the ``process`` backend runs :func:`worker_main` in worker
OS processes over a :class:`repro.parallel.state.SharedArena`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.convergence import sample_live
from repro.core.distributed import AvailabilityModel
from repro.core.kernels import (
    CSRWorkspace,
    ShardCSRView,
    expand_rows,
    relative_change,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs.linkgraph import LinkGraph
from repro.parallel.control import (
    COL_ACTIVE,
    COL_COMPUTE_S,
    COL_COMPUTED,
    COL_CUT,
    COL_DEFERRED,
    COL_DIRTY,
    COL_DROPPED,
    COL_MAX_CHANGE,
    COL_MESSAGES,
    COL_PENDING,
    COL_PUBLISHED,
    COL_RESENT,
    churn_should_stop,
    static_pass_is_dense,
    static_should_stop,
)
from repro.parallel.plan import ShardPlan, build_shard_plan
from repro.parallel.state import PlacedSpec, SharedArena

__all__ = [
    "RunConfig",
    "WorkerState",
    "ShardRunner",
    "build_worker_state",
    "gather_published",
    "worker_main",
]

#: Parent/worker barrier rendezvous budget before declaring a hang.
BARRIER_TIMEOUT_S = 300.0


@dataclass(frozen=True)
class RunConfig:
    """Everything a worker process needs besides the shared arrays.

    Picklable by construction (spawn-safe): the availability model is
    an identically seeded *copy* in every party, so each draws the very
    same mask sequence without any coordination.
    """

    num_docs: int
    num_peers: int
    shards: int
    workers: int
    damping: float
    epsilon: float
    max_passes: int
    mode: str  # "static" | "churn"
    fault_spec: Optional[FaultSpec] = None
    fault_seed: int = 0
    availability: Optional[AvailabilityModel] = None


def _shard_fault_plans(cfg: RunConfig) -> List[Optional[FaultPlan]]:
    """Seeded per-shard fault streams.

    One shard keeps the raw seed so a ``shards=1`` run replays the
    serial engine's exact draw sequence; more shards split the stream
    via ``SeedSequence.spawn`` — deterministic per ``(seed, shards)``
    and independent of worker count.
    """
    if cfg.fault_spec is None:
        return [None] * cfg.shards
    if cfg.shards == 1:
        return [FaultPlan(cfg.fault_spec, seed=cfg.fault_seed)]
    children = np.random.SeedSequence(cfg.fault_seed).spawn(cfg.shards)
    return [
        FaultPlan(cfg.fault_spec, seed=children[s]) for s in range(cfg.shards)
    ]


@dataclass
class WorkerState:
    """Immutable-per-run context every shard runner of one party shares."""

    cfg: RunConfig
    plan: ShardPlan
    views: Dict[str, np.ndarray]
    workspace: CSRWorkspace
    indptr: np.ndarray
    indices: np.ndarray
    assignment: np.ndarray
    remote_outdeg: np.ndarray
    cut_outdeg: np.ndarray
    frontier_buf: np.ndarray
    fault_plans: List[Optional[FaultPlan]]


def build_worker_state(
    cfg: RunConfig, views: Dict[str, np.ndarray]
) -> WorkerState:
    """Derive the per-party context from the shared arrays.

    Every party runs this independently over the same bytes, so the
    derived structures (reverse CSR, shard plan, cross-peer and
    cross-shard out-degrees) are identical everywhere.
    """
    indptr = views["indptr"]
    indices = views["indices"]
    assignment = views["assignment"]
    graph = LinkGraph(indptr, indices, validate=False)
    ws = CSRWorkspace.from_graph(graph)
    plan = build_shard_plan(assignment, cfg.num_peers, cfg.shards)
    n = cfg.num_docs
    cross = assignment[ws.src] != assignment[ws.dst]
    remote_outdeg = np.bincount(ws.src[cross], minlength=n).astype(np.int64)
    cut = plan.doc_shard[ws.src] != plan.doc_shard[ws.dst]
    cut_outdeg = np.bincount(ws.src[cut], minlength=n).astype(np.int64)
    return WorkerState(
        cfg=cfg,
        plan=plan,
        views=views,
        workspace=ws,
        indptr=indptr,
        indices=indices,
        assignment=assignment,
        remote_outdeg=remote_outdeg,
        cut_outdeg=cut_outdeg,
        frontier_buf=np.empty(n, dtype=bool),
        fault_plans=_shard_fault_plans(cfg),
    )


def gather_published(
    views: Dict[str, np.ndarray], plan: ShardPlan, stats: np.ndarray
) -> np.ndarray:
    """Concatenate every shard's published-ids region (previous pass).

    Order across shards is irrelevant: the ids only ever feed a size
    check and a boolean frontier mask, both order-free.
    """
    published = views["published"]
    offsets = plan.row_offsets
    parts = [
        published[offsets[s]: offsets[s] + int(stats[s, COL_PUBLISHED])]
        for s in range(plan.shards)
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


class ShardRunner:
    """One shard's compute/publish state machine (see module docstring)."""

    def __init__(self, state: WorkerState, shard: int) -> None:
        cfg = state.cfg
        self.state = state
        self.shard = shard
        self.damping = cfg.damping
        self.epsilon = cfg.epsilon
        self.fault_plan = state.fault_plans[shard]
        plan = state.plan
        self.rows: np.ndarray = plan.rows[shard]
        self.offset = int(plan.row_offsets[shard])
        self.view = ShardCSRView.from_workspace(state.workspace, self.rows)
        self.row_peer = state.assignment[self.rows]
        k = self.rows.size
        self._vals_buf = np.empty(k, dtype=np.float64)
        self._err_buf = np.empty(k, dtype=np.float64)
        self.compute_seconds = 0.0
        # Staged compute-phase results (written in the publish phase).
        self._stage_rows: np.ndarray = self.rows
        self._stage_vals: np.ndarray = self._vals_buf
        self._stage_act: np.ndarray = np.empty(0, dtype=bool)
        self._stage_max_change = 0.0
        if cfg.mode == "churn":
            self._init_churn_state()

    # ------------------------------------------------------------------
    # Static path (no churn, no faults)
    # ------------------------------------------------------------------
    def static_compute(
        self, t: int, dense: bool, published_global: Optional[np.ndarray]
    ) -> None:
        """Recompute this shard's (frontier) rows from the shared
        last-sent values; stage results for :meth:`static_publish`."""
        t0 = perf_counter()
        st = self.state
        last_sent = st.views["last_sent"]
        rank = st.views["rank"]
        if dense:
            rows_g = self.rows
            vals = self.view.pull(last_sent, self.damping, out=self._vals_buf)
        else:
            assert published_global is not None
            # Global frontier: out-targets of every shard's publishers;
            # this shard recomputes the intersection with its own rows.
            frontier = st.frontier_buf
            frontier[:] = False
            tpos, _ = expand_rows(st.indptr, published_global)
            if tpos.size:
                frontier[st.indices[tpos]] = True
            local = np.flatnonzero(frontier[self.rows])
            rows_g = self.rows[local]
            row_edges = self.view.row_edges(local)
            # Same density heuristic as the serial engine, applied at
            # shard scope — either branch computes identical bits, so
            # the choice never shows in any result.
            if 5 * row_edges >= 2 * self.view.num_edges:
                all_vals = self.view.pull(
                    last_sent, self.damping, out=self._vals_buf
                )
                vals = all_vals[local]
            else:
                vals = self.view.pull_rows(last_sent, self.damping, local)
        old = rank[rows_g]
        err = relative_change(old, vals)
        act = err > self.epsilon
        self._stage_rows = rows_g
        self._stage_vals = vals
        self._stage_act = act
        self._stage_max_change = float(err.max()) if err.size else 0.0
        self.compute_seconds = perf_counter() - t0

    def static_publish(self) -> None:
        """Write staged values into this shard's disjoint regions of
        the shared arrays, plus the statistics row."""
        t0 = perf_counter()
        st = self.state
        rows_g = self._stage_rows
        vals = self._stage_vals
        act = self._stage_act
        published = rows_g[act]
        if published.size:
            st.views["last_sent"][published] = vals[act]
        if rows_g.size:
            st.views["rank"][rows_g] = vals
        region = st.views["published"]
        region[self.offset: self.offset + published.size] = published
        row = st.views["stats"][self.shard]
        row[:] = 0.0
        row[COL_ACTIVE] = published.size
        row[COL_MESSAGES] = int(st.remote_outdeg[published].sum())
        row[COL_MAX_CHANGE] = self._stage_max_change
        row[COL_COMPUTED] = rows_g.size
        row[COL_PUBLISHED] = published.size
        row[COL_CUT] = int(st.cut_outdeg[published].sum())
        row[COL_COMPUTE_S] = self.compute_seconds + (perf_counter() - t0)

    # ------------------------------------------------------------------
    # Churn path (availability and/or injected loss, §3.1)
    # ------------------------------------------------------------------
    def _init_churn_state(self) -> None:
        st = self.state
        ws = st.workspace
        sel = np.flatnonzero(st.plan.doc_shard[ws.dst] == self.shard)
        # Forward-order edge subset received by this shard: within any
        # one target row the edges keep their global ascending-source
        # order, which is what makes the per-row bincount bit-identical
        # to the serial engine's whole-graph pull_edges.
        self.esrc = ws.src[sel]
        self.eweight = ws.edge_weight[sel].copy()
        self.elocal_dst = np.searchsorted(self.rows, ws.dst[sel])
        self.esrc_peer = st.assignment[self.esrc]
        self.ecross = self.esrc_peer != self.row_peer[self.elocal_dst]
        self.ecut = st.plan.doc_shard[self.esrc] != self.shard
        rank = st.views["rank"]
        self.delivered = rank[self.esrc].copy()
        self.pending = np.zeros(sel.size, dtype=bool)
        self.pending_val = np.zeros(sel.size, dtype=np.float64)
        self.dirty = np.zeros(self.rows.size, dtype=bool)
        self._contrib = np.empty(sel.size, dtype=np.float64)
        self._n_resent = 0
        self._n_dropped = 0
        self._n_active = 0
        self._n_computed = 0

    def churn_compute(self, t: int, live_peer: np.ndarray) -> None:
        """Resend + recompute phase, all private state: fold §3.1
        stored updates whose endpoints returned and pull this shard's
        rows from the per-edge delivered values.  Writes nothing shared
        — the parent may still be reading the previous pass's results —
        results are staged for :meth:`churn_publish`."""
        t0 = perf_counter()
        st = self.state
        rank = st.views["rank"]
        live_rows = live_peer[self.row_peer]
        src_live = live_peer[self.esrc_peer]
        dst_live = live_rows[self.elocal_dst]

        # 1) Store-and-resend over the same lossy links (serial order:
        #    resend draws come before this pass's send draws).
        resend = self.pending & src_live & dst_live
        self._n_dropped = 0
        if self.fault_plan is not None and resend.any():
            cand = np.flatnonzero(resend)
            kept = self.fault_plan.edge_delivery_mask(t, cand.size)
            if not kept.all():
                resend[cand[~kept]] = False
                self._n_dropped += int((~kept).sum())
        self._n_resent = int(resend.sum())
        if self._n_resent:
            self.delivered[resend] = self.pending_val[resend]
            self.pending[resend] = False
            self.dirty[self.elocal_dst[resend]] = True

        # 2) Live rows recompute from their delivered in-edge values.
        k = self.rows.size
        np.multiply(self.delivered, self.eweight, out=self._contrib)
        acc = np.bincount(
            self.elocal_dst, weights=self._contrib, minlength=k
        )
        new = np.multiply(acc, self.damping, out=self._vals_buf)
        new += 1.0 - self.damping
        old = rank[self.rows]
        np.copyto(new, old, where=~live_rows)
        err = relative_change(old, new, out=self._err_buf)
        err[~live_rows] = 0.0
        self.dirty[live_rows] = False
        act = live_rows & (err > self.epsilon)

        self._stage_vals = new
        self._stage_act = act
        self._stage_max_change = float(err.max()) if k else 0.0
        self._n_active = int(act.sum())
        self._n_computed = int(live_rows.sum())
        self._dst_live = dst_live
        self.compute_seconds = perf_counter() - t0

    def churn_publish(self) -> None:
        """Write the staged ranks and activity flags for this shard's
        own rows (disjoint regions); every shard reads the full arrays
        only in the delivery phase, on the far side of the barrier."""
        t0 = perf_counter()
        st = self.state
        if self.rows.size:
            st.views["rank"][self.rows] = self._stage_vals
            st.views["active"][self.rows] = self._stage_act
        self.compute_seconds += perf_counter() - t0

    def churn_deliver(self, t: int, live_peer: np.ndarray) -> None:
        """Delivery phase: read every shard's freshly published ranks
        and activity, update the private per-edge state (deliver /
        defer / lose-and-park), and write the statistics row."""
        t0 = perf_counter()
        st = self.state
        rank = st.views["rank"]
        active_sh = st.views["active"]
        send_edge = active_sh[self.esrc]
        dst_live = self._dst_live
        deliver = send_edge & dst_live
        defer = send_edge & ~dst_live

        if self.fault_plan is not None:
            lossy = np.flatnonzero(deliver & self.ecross)
            if lossy.size:
                kept = self.fault_plan.edge_delivery_mask(t, lossy.size)
                if not kept.all():
                    lost = lossy[~kept]
                    deliver[lost] = False
                    self.pending_val[lost] = rank[self.esrc[lost]]
                    self.pending[lost] = True
                    self._n_dropped += lost.size
            self.pending[deliver] = False

        if deliver.any():
            self.delivered[deliver] = rank[self.esrc[deliver]]
            self.dirty[self.elocal_dst[deliver]] = True
        if defer.any():
            self.pending_val[defer] = rank[self.esrc[defer]]
            self.pending[defer] = True

        messages = int((deliver & self.ecross).sum()) + self._n_resent
        row = st.views["stats"][self.shard]
        row[:] = 0.0
        row[COL_ACTIVE] = self._n_active
        row[COL_MESSAGES] = messages
        row[COL_MAX_CHANGE] = self._stage_max_change
        row[COL_COMPUTED] = self._n_computed
        row[COL_DEFERRED] = int(self.pending.sum())
        row[COL_RESENT] = self._n_resent
        row[COL_DROPPED] = self._n_dropped
        row[COL_PENDING] = 1.0 if self.pending.any() else 0.0
        row[COL_DIRTY] = 1.0 if self.dirty.any() else 0.0
        row[COL_CUT] = int((deliver & self.ecut).sum())
        row[COL_COMPUTE_S] = self.compute_seconds + (perf_counter() - t0)

    def churn_dead_pass(self, t: int) -> None:
        """All peers down: nothing recomputes; report the parked-update
        backlog so the pass record matches the serial engine's."""
        row = self.state.views["stats"][self.shard]
        row[:] = 0.0
        row[COL_DEFERRED] = int(self.pending.sum())
        row[COL_PENDING] = 1.0 if self.pending.any() else 0.0
        row[COL_DIRTY] = 1.0 if self.dirty.any() else 0.0


# ----------------------------------------------------------------------
# Worker process body (the "process" backend)
# ----------------------------------------------------------------------
def _loop_static(
    runners: Sequence[ShardRunner],
    state: WorkerState,
    barrier_a,
    barrier_b,
) -> None:
    cfg = state.cfg
    stats = state.views["stats"]
    n = cfg.num_docs
    prev_published = 0
    for t in range(cfg.max_passes):
        dense = static_pass_is_dense(t, prev_published, n)
        published_global = (
            None if dense else gather_published(state.views, state.plan, stats)
        )
        for runner in runners:
            runner.static_compute(t, dense, published_global)
        barrier_a.wait(BARRIER_TIMEOUT_S)
        for runner in runners:
            runner.static_publish()
        barrier_b.wait(BARRIER_TIMEOUT_S)
        prev_published = int(stats[:, COL_PUBLISHED].sum())
        if static_should_stop(stats):
            break


def _loop_churn(
    runners: Sequence[ShardRunner],
    state: WorkerState,
    barrier_a,
    barrier_b,
) -> None:
    cfg = state.cfg
    stats = state.views["stats"]
    # Three rendezvous per churn pass (A, B, A again — barriers reset
    # once every party passes, so reuse is safe as long as every party
    # performs the identical wait sequence):
    #   private compute -> A -> publish own rank/active -> B ->
    #   deliver + stats -> A -> (parent records; stop decision)
    # The extra rendezvous keeps the parent's read window (between the
    # last wait and the next pass's first wait) free of shared writes.
    # The parent alone applies the dead-pass rule: when it ends the run
    # it aborts both barriers, which stands the workers down.
    for t in range(cfg.max_passes):
        live_peer = sample_live(cfg.availability, t, cfg.num_peers)
        if not live_peer.any():
            barrier_a.wait(BARRIER_TIMEOUT_S)
            barrier_b.wait(BARRIER_TIMEOUT_S)
            for runner in runners:
                runner.churn_dead_pass(t)
            barrier_a.wait(BARRIER_TIMEOUT_S)
            continue
        for runner in runners:
            runner.churn_compute(t, live_peer)
        barrier_a.wait(BARRIER_TIMEOUT_S)
        for runner in runners:
            runner.churn_publish()
        barrier_b.wait(BARRIER_TIMEOUT_S)
        for runner in runners:
            runner.churn_deliver(t, live_peer)
        barrier_a.wait(BARRIER_TIMEOUT_S)
        if churn_should_stop(stats):
            break


def worker_main(
    worker_id: int,
    cfg: RunConfig,
    shm_name: str,
    layout: List[PlacedSpec],
    barrier_a,
    barrier_b,
    errors,
    untrack_shm: bool = False,
) -> None:
    """Worker process entry point (top-level so ``spawn`` can pickle it).

    Attaches the shared arena by name, rebuilds the identical derived
    context every party holds, and runs the pass loop for this worker's
    round-robin shard set.  Any failure is reported through ``errors``
    and both barriers are aborted so no party deadlocks.
    """
    import threading

    arena = SharedArena.attach(shm_name, layout, untrack=untrack_shm)
    try:
        state = build_worker_state(cfg, arena.views())
        runners = [
            ShardRunner(state, s)
            for s in state.plan.shards_of_worker(worker_id, cfg.workers)
        ]
        if cfg.mode == "static":
            _loop_static(runners, state, barrier_a, barrier_b)
        else:
            _loop_churn(runners, state, barrier_a, barrier_b)
    except threading.BrokenBarrierError:  # pragma: no cover - a peer failed,
        pass  # or the parent ended the run (dead-pass rule) and aborted the barriers
    except Exception:  # pragma: no cover - exercised via machinery tests
        errors.put((worker_id, traceback.format_exc()))
        barrier_a.abort()
        barrier_b.abort()
    finally:
        arena.close()
