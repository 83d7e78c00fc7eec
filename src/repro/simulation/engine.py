"""Protocol-level pass simulator on the real P2P substrate.

Where :class:`repro.core.distributed.ChaoticPagerank` is the vectorized
array engine, :class:`P2PPagerankSimulation` runs the *actual
protocol*: :class:`~repro.p2p.peer.Peer` state machines exchanging
:class:`~repro.p2p.messages.PagerankUpdate` objects in per-destination
batches, with §3.1 store-and-resend for absent peers and an optional
§3.2 delivery policy pricing DHT routing hops.

Under the default ``csr`` kernel backend the update plane is columnar
at pass granularity: each live peer stages its whole pass as one
:class:`~repro.p2p.messages.UpdateBlock`, and the lossless path
concatenates every sender's block once per pass, stable-sorts it by
receiver and hands each receiver its rows in one vectorized receive.
Per-update :class:`~repro.p2p.messages.PagerankUpdate` records are
built only where a consumer needs them: store-and-resend and the
reliable transport.  ``REPRO_KERNEL=naive`` keeps the per-update
object path end to end as the parity reference.  Either way the
simulator matches the vectorized engine exactly (identical ranks,
message counts and pass counts), which the integration suite checks.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro._util import check_positive, check_threshold
from repro.core.convergence import (
    ConvergenceTracker,
    PassInstruments,
    PassStats,
    RunReport,
    sample_live,
)
from repro.core.distributed import AvailabilityModel
from repro.core.kernels import expand_rows, kernel_backend
from repro.core.pagerank import DEFAULT_DAMPING
from repro.faults.plan import FaultPlan
from repro.faults.transport import (
    ReliabilityConfig,
    ReliableTransport,
    StagnationDetector,
)
from repro.graphs.linkgraph import LinkGraph
from repro.obs import CounterMirror, get_registry, get_trace_sink
from repro.p2p.messages import MESSAGE_SIZE_BYTES, MessageBatch, UpdateBlock
from repro.p2p.network import P2PNetwork
from repro.p2p.peer import Peer
from repro.p2p.routing import DeliveryPolicy

__all__ = ["P2PPagerankSimulation", "TrafficSummary"]


@dataclass
class TrafficSummary:
    """Aggregate traffic accounting of one protocol-level run.

    Attributes
    ----------
    update_messages:
        Pagerank update messages delivered (cross-peer only).
    resent_messages:
        Of those, deliveries that had been stored for absent peers.
    network_batches:
        (sender, receiver) batch transfers — the unit the §4.6.1
        transfer model serialises.
    routing_hops:
        Total hops charged by the delivery policy (0 with the default
        oracle policy; > messages in Freenet/routed mode).
    bytes_transferred:
        ``update_messages × 24`` under the paper's message sizing.
    migrations:
        Documents moved by §3.1 re-homing (0 unless ``rehoming_after``
        is enabled).
    """

    update_messages: int = 0
    resent_messages: int = 0
    network_batches: int = 0
    routing_hops: int = 0
    bytes_transferred: int = 0
    migrations: int = 0


class _SimInstruments(PassInstruments):
    """Registry handles for the protocol simulator's per-pass emissions
    (shared no-op singletons under the default disabled registry).
    The shared per-pass handles are updated by
    :class:`~repro.core.convergence.ConvergenceTracker`; :attr:`traffic`
    mirrors :class:`TrafficSummary`.  Names are documented in
    docs/OBSERVABILITY.md."""

    __slots__ = ("traffic", "pass_timer")

    event = "sim.pass"

    def __init__(self, reg, traffic: TrafficSummary) -> None:
        super().__init__()
        self.passes = reg.counter(
            "sim.passes", unit="passes",
            description="protocol-simulator passes executed",
        )
        self.traffic = CounterMirror(
            {
                "update_messages": reg.counter(
                    "sim.messages_delivered", unit="messages",
                    description="cross-peer update messages delivered (Table 3)",
                ),
                "resent_messages": reg.counter(
                    "sim.messages_resent", unit="messages",
                    description="deliveries that had been stored for absent peers",
                ),
                "network_batches": reg.counter(
                    "sim.network_batches", unit="batches",
                    description="(sender, receiver) batch transfers (section 4.6.1 unit)",
                ),
                "bytes_transferred": reg.counter(
                    "sim.bytes_transferred", unit="bytes",
                    description="wire bytes under the paper's 24-byte message model",
                ),
                "routing_hops": reg.counter(
                    "sim.routing_hops", unit="hops",
                    description="hops charged by the delivery policy (section 3.2)",
                ),
                "migrations": reg.counter(
                    "sim.migrations", unit="documents",
                    description="documents moved by section 3.1 re-homing",
                ),
            },
            traffic,
        )
        self.store_depth = reg.histogram(
            "sim.store_depth", unit="messages",
            description="stored (undeliverable) updates outstanding per pass",
        )
        self.residual = reg.gauge(
            "sim.residual", unit="rel. change",
            description="max per-document relative change of the latest pass",
        )
        self.live_peers = reg.gauge(
            "sim.live_peers", unit="peers",
            description="peers present during the latest pass",
        )
        self.dead_passes = reg.counter(
            "sim.dead_passes", unit="passes",
            description="passes skipped because zero peers were live",
        )
        self.pass_timer = reg.timer(
            "sim.pass_seconds",
            description="wall-clock seconds per protocol-simulator pass",
        )


class P2PPagerankSimulation:
    """Distributed pagerank over explicit peer state machines.

    Parameters
    ----------
    graph:
        The document link graph.
    network:
        A :class:`~repro.p2p.network.P2PNetwork` with a placement
        attached (who stores which document).
    damping, epsilon, init_rank:
        Algorithm parameters, as in the vectorized engine.
    delivery_policy:
        Optional :class:`~repro.p2p.routing.DeliveryPolicy` pricing
        the hops of each delivered update (defaults to none — hop
        accounting off; message counts are policy-independent).
    rehoming_after:
        Optional §3.1 liveness fix: when a peer has been absent for
        this many *consecutive* passes, the DHT re-homes its documents
        (state and all) to each document's first live successor, and
        they migrate back when the peer returns.  Without it, two peers
        that are never simultaneously present can deadlock the
        store-and-resend protocol (see docs/PROTOCOL.md §6).  Requires
        the network's Chord ring.
    faults:
        Optional seeded :class:`~repro.faults.plan.FaultPlan`.  When
        given, every batch transfer goes through the reliable-delivery
        transport (acks, timeout + exponential-backoff retries,
        duplicate suppression — docs/PROTOCOL.md §13) and the plan
        injects drops, duplicates, delays, crashes and partitions.
        ``None`` (default) keeps the pre-fault lossless code path
        byte-for-byte.
    reliability:
        Ack/retry/backoff parameters for the reliable transport;
        defaults to :class:`~repro.faults.transport.ReliabilityConfig`
        when ``faults`` is given.  Only meaningful with ``faults``.
    stagnation_window:
        Consecutive quiescent-but-undeliverable passes after which a
        faulted run aborts with a :class:`~repro.faults.transport.
        FaultDiagnostics` report instead of spinning to the pass cap.
    """

    def __init__(
        self,
        graph: LinkGraph,
        network: P2PNetwork,
        *,
        damping: float = DEFAULT_DAMPING,
        epsilon: float = 1e-3,
        init_rank: float = 1.0,
        delivery_policy: Optional[DeliveryPolicy] = None,
        rehoming_after: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
        stagnation_window: int = 25,
    ) -> None:
        check_threshold("damping", damping)
        check_threshold("epsilon", epsilon)
        check_positive("init_rank", init_rank)
        if network.placement is None:
            raise ValueError("network must have a document placement attached")
        if network.placement.num_docs != graph.num_nodes:
            raise ValueError(
                f"placement covers {network.placement.num_docs} documents, "
                f"graph has {graph.num_nodes}"
            )
        self.graph = graph
        self.network = network
        self.damping = float(damping)
        self.epsilon = float(epsilon)
        self.init_rank = float(init_rank)
        self.delivery_policy = delivery_policy
        if rehoming_after is not None:
            if rehoming_after < 1:
                raise ValueError(
                    f"rehoming_after must be >= 1, got {rehoming_after}"
                )
            if network.ring is None:
                raise ValueError("rehoming requires the network's Chord ring")
        self.rehoming_after = rehoming_after
        if reliability is not None and faults is None:
            raise ValueError("reliability config requires a fault plan")
        if faults is not None and rehoming_after is not None:
            raise ValueError(
                "fault injection and re-homing are mutually exclusive "
                "(the reliable transport subsumes store-and-resend)"
            )
        if stagnation_window < 1:
            raise ValueError(
                f"stagnation_window must be >= 1, got {stagnation_window}"
            )
        self.faults = faults
        self.reliability = (
            reliability
            if reliability is not None
            else (ReliabilityConfig() if faults is not None else None)
        )
        self.stagnation_window = int(stagnation_window)
        #: The reliable transport of the latest faulted run (exposes
        #: :class:`~repro.faults.transport.FaultStats`); ``None`` until
        #: a faulted ``run()`` starts.
        self.transport: Optional[ReliableTransport] = None
        self.traffic = TrafficSummary()

        docs_by_peer = network.placement.docs_by_peer()
        self.peers: List[Peer] = [
            Peer(pid, docs_by_peer[pid], graph, init_rank=init_rank)
            for pid in range(network.num_peers)
        ]
        # Ownership is mutable under re-homing; keep our own copy plus
        # the original "home" placement documents return to.
        self._peer_of = network.placement.assignment.copy()
        self._home_peer = network.placement.assignment.copy()
        self._absence = np.zeros(network.num_peers, dtype=np.int64)
        # Documents that received an update not yet folded into a
        # recompute (absent owners); blocks premature convergence.
        self._dirty = np.zeros(graph.num_nodes, dtype=bool)
        # Columnar update plane (docs/PERFORMANCE.md); the naive kernel
        # backend keeps the per-update object path.
        self._columnar = kernel_backend() == "csr"

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        max_passes: int = 10_000,
        availability: Optional[AvailabilityModel] = None,
        keep_history: bool = True,
        max_dead_passes: int = 50,
    ) -> RunReport:
        """Run passes until the strong convergence criterion.

        Semantics mirror the vectorized engine exactly: (1) stored
        updates whose sender and receiver are both present are
        delivered, (2) every present peer recomputes all its documents
        from previously received values, (3) freshly staged updates are
        delivered to present receivers and stored for absent ones.

        With a fault plan attached, steps (1) and (3) instead go
        through the reliable transport: (1) becomes delayed-copy
        delivery plus ack-timeout retransmission, (3) submits each
        batch as a new flight, and a run that goes quiescent while
        undeliverable updates remain aborts with a
        :class:`~repro.faults.transport.FaultDiagnostics` report on the
        returned :class:`~repro.core.convergence.RunReport`.

        A pass whose availability sample has *zero* live peers is
        skipped (counted, never evaluated for convergence);
        ``max_dead_passes`` consecutive dead passes raise a
        ``RuntimeError`` rather than silently stalling to the cap.
        """
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {max_passes}")
        reg = get_registry()
        obs = _SimInstruments(reg, self.traffic)
        tracker = ConvergenceTracker(
            self.epsilon, keep_history=keep_history, instruments=obs,
            max_dead_passes=max_dead_passes,
        )
        num_peers = self.network.num_peers

        faulted = self.faults is not None
        transport: Optional[ReliableTransport] = None
        detector: Optional[StagnationDetector] = None
        crash_down = None
        if faulted:
            transport = ReliableTransport(
                self.faults, self.reliability, _weak_deliver(self), registry=reg
            )
            self.transport = transport
            detector = StagnationDetector(self.stagnation_window)
            crash_down = np.zeros(num_peers, dtype=np.int64)
            needs_republish: Set[int] = set()
        converged = False
        diagnostics = None
        with get_trace_sink().span(
            "sim.run", documents=self.graph.num_nodes, peers=num_peers,
            epsilon=self.epsilon,
        ):
            for t in range(max_passes):
                live = sample_live(availability, t, num_peers)
                if faulted:
                    # Crash-with-state-loss: wipe volatile queues and the
                    # retransmit buffer; the peer reboots after a spell.
                    for p in self.faults.crashes_at(t):
                        lost = self.peers[p].crash_volatile()
                        lost += transport.wipe_sender(p)
                        transport.note_crash(p, lost)
                        crash_down[p] = self.faults.down_passes_for(t, p)
                        needs_republish.add(p)
                    if crash_down.any():
                        live = live & (crash_down <= 0)
                        np.subtract(
                            crash_down, 1, out=crash_down, where=crash_down > 0
                        )
                    # Crash recovery: a rebooted peer cannot know which
                    # of its sends died with it, so it re-announces its
                    # persisted published values (equal-version replays
                    # are idempotent at receivers).
                    for p in sorted(needs_republish):
                        if crash_down[p] == 0 and live[p]:
                            staged = self.peers[p].reboot_republish(self._peer_of)
                            transport.note_reboot_republish(p, staged)
                            needs_republish.discard(p)

                if not live.any():
                    tracker.dead_pass(t, self._outstanding(transport))
                    continue

                with obs.pass_timer:
                    # (0) §3.1 re-homing of long-absent peers' documents
                    if self.rehoming_after is not None:
                        self._absence[live] = 0
                        self._absence[~live] += 1
                        self._rehome(live)

                    # (1) store-and-resend deliveries (reliable transport:
                    #     due delayed copies + ack-timeout retransmits)
                    if faulted:
                        transport.begin_pass(t)
                        transport.tick(t, live)
                        resent = transport.pass_resent
                    else:
                        resent = self._deliver_deferred(live)

                    # (2) concurrent recompute on live peers
                    active = 0
                    max_change = 0.0
                    computed = 0
                    published_docs = []
                    for peer in self.peers:
                        if not live[peer.peer_id]:
                            continue
                        outcome = peer.compute_pass(
                            self.damping, self.epsilon, self._peer_of
                        )
                        active += outcome.active_documents
                        computed += len(peer.documents)
                        if outcome.max_rel_change > max_change:
                            max_change = outcome.max_rel_change
                        self._dirty[peer.documents] = False
                        published_docs.extend(outcome.published_docs)
                    # Published values are instantly visible to co-located
                    # consumers, who now owe a recompute (the vectorized engine
                    # marks these via its per-edge dirty pass); remote targets
                    # are marked at delivery below.  One segment expansion per
                    # pass over all publishers replaces the per-edge loop.
                    if published_docs:
                        pubs = np.asarray(published_docs, dtype=np.int64)
                        pos, lens = expand_rows(self.graph.indptr, pubs)
                        targets = self.graph.indices[pos]
                        owners = np.repeat(self._peer_of[pubs], lens)
                        colocated = targets[self._peer_of[targets] == owners]
                        self._dirty[colocated] = True

                    # (3) drain outboxes: deliver or defer (reliable
                    #     transport: submit each batch as a new flight)
                    if faulted:
                        for peer in self.peers:
                            if not live[peer.peer_id]:
                                continue
                            for batch in peer.outbox.batches():
                                transport.send(t, batch, live)
                        messages = transport.pass_delivered
                        resent = transport.pass_resent
                    else:
                        if self._columnar:
                            delivered = self._deliver_pass_block(live)
                        else:
                            delivered = self._deliver_outboxes(live)
                        messages = delivered + resent

                self.traffic.update_messages += messages
                self.traffic.resent_messages += resent
                self.traffic.bytes_transferred = (
                    self.traffic.update_messages * MESSAGE_SIZE_BYTES
                )
                obs.traffic.publish(self.traffic)
                deferred_now = self._outstanding(transport)
                tracker.record(
                    PassStats(
                        pass_index=t,
                        max_rel_change=max_change,
                        active_documents=active,
                        messages=messages,
                        deferred_messages=deferred_now,
                        live_peers=int(live.sum()),
                        computed_documents=computed,
                        resent_messages=resent,
                    )
                )
                if faulted:
                    # Abandoned (budget-exhausted) updates will never
                    # arrive: strong convergence must not be certified
                    # over them, and a quiescent system that still owes
                    # undeliverable updates is stagnant, not converging.
                    quiescent = active == 0 and not self._dirty.any()
                    if (
                        quiescent
                        and transport.undeliverable_updates == 0
                        and deferred_now == 0
                    ):
                        converged = True
                        break
                    if detector.observe(
                        quiescent=quiescent,
                        undelivered=transport.undeliverable_updates,
                        delivered_this_pass=messages,
                        attempts_this_pass=transport.pass_attempts,
                    ):
                        transport.note_stagnation_abort()
                        diagnostics = transport.diagnose(t, detector.streak)
                        break
                elif active == 0 and deferred_now == 0 and not self._dirty.any():
                    converged = True
                    break
        if faulted:
            transport.publish_metrics()
        return tracker.finish(self.ranks(), converged, diagnostics)

    # ------------------------------------------------------------------
    def _outstanding(self, transport: Optional[ReliableTransport]) -> int:
        """Stored updates still owed: unacknowledged flights under a
        fault plan, the peers' §3.1 stores otherwise."""
        if transport is not None:
            return transport.unacked_updates
        return sum(p.deferred_count for p in self.peers)

    # ------------------------------------------------------------------
    def _fault_deliver(self, batch: MessageBatch) -> int:
        """Reliable-transport delivery callback: hand a batch to its
        receiver, mirroring the lossless path's bookkeeping (dirty
        marking, hop charges, batch count).  Returns how many updates
        mutated receiver state (duplicates are suppressed by the
        per-source version dedup)."""
        applied = self.peers[batch.receiver_peer].receive_batch(batch.updates)
        self._mark_dirty(batch.updates)
        self._charge_hops(batch.sender_peer, batch.updates)
        self.traffic.network_batches += 1
        return applied

    # ------------------------------------------------------------------
    def ranks(self) -> np.ndarray:
        """Current rank of every document, gathered from the peers."""
        out = np.empty(self.graph.num_nodes, dtype=np.float64)
        for peer in self.peers:
            for doc, value in peer.rank.items():
                out[doc] = value
        return out

    # ------------------------------------------------------------------
    def _deliver_deferred(self, live: np.ndarray) -> int:
        """Step 1: present senders flush stored updates to present
        receivers.  Returns the number of updates delivered.

        Under re-homing a stored update's target document may have
        moved, so each update is re-resolved to the document's *current*
        owner before delivery.
        """
        delivered = 0
        for peer in self.peers:
            if not live[peer.peer_id] or not peer.deferred:
                continue
            if self.rehoming_after is None:
                dests = [d for d in peer.deferred if live[d]]
                for dest in dests:
                    updates = peer.take_deferred(dest)
                    self.peers[dest].receive_batch(updates)
                    self._mark_dirty(updates)
                    self._charge_hops(peer.peer_id, updates)
                    delivered += len(updates)
                    self.traffic.network_batches += 1
                continue
            # Re-homing: re-resolve every stored update's owner.
            all_updates = []
            for dest in list(peer.deferred):
                all_updates.extend(peer.take_deferred(dest))
            by_owner: Dict[int, list] = {}
            for u in all_updates:
                by_owner.setdefault(int(self._peer_of[u.target_doc]), []).append(u)
            for owner, updates in by_owner.items():
                if live[owner]:
                    self.peers[owner].receive_batch(updates)
                    self._mark_dirty(updates)
                    self._charge_hops(peer.peer_id, updates)
                    delivered += len(updates)
                    self.traffic.network_batches += 1
                else:
                    peer.defer(owner, updates)
        return delivered

    def _deliver_outboxes(self, live: np.ndarray) -> int:
        """Step 3: route freshly staged batches.  Returns updates
        delivered (stored ones are counted when finally delivered)."""
        delivered = 0
        for peer in self.peers:
            if not live[peer.peer_id]:
                # An absent peer cannot have computed this pass, but it
                # may hold a stale outbox in pathological uses; leave it.
                continue
            for batch in peer.outbox.batches():
                if live[batch.receiver_peer]:
                    self.peers[batch.receiver_peer].receive_batch(batch.updates)
                    self._mark_dirty(batch.updates)
                    self._charge_hops(peer.peer_id, batch.updates)
                    delivered += len(batch)
                    self.traffic.network_batches += 1
                else:
                    peer.defer(batch.receiver_peer, batch.updates)
        return delivered

    def _deliver_pass_block(self, live: np.ndarray) -> int:
        """Step 3 on the columnar plane: every live peer's staged block,
        concatenated once for the pass.  Rows for absent receivers are
        stored (§3.1); the rest are stable-sorted by receiver, so each
        receiver gets one vectorized receive of its rows in the order
        per-batch delivery would have applied them (senders ascending,
        then staging order).  Returns updates delivered."""
        senders = [p for p in self.peers if live[p.peer_id]]
        blocks = [p.outbox.take_block() for p in senders]
        counts = [len(b) for b in blocks]
        if not sum(counts):
            return 0
        block = UpdateBlock.concat(blocks)
        sender = np.repeat(
            np.array([p.peer_id for p in senders], dtype=np.int64), counts
        )
        arrives = live[block.dest_peer]
        if not arrives.all():
            stored = ~arrives
            for (src_peer, dest), updates in _group_rows(
                sender[stored], block.dest_peer[stored], block.take(stored).records()
            ).items():
                self.peers[src_peer].defer(dest, updates)
            block = block.take(arrives)
            sender = sender[arrives]
            if not len(block):
                return 0
        dests = block.dest_peer
        pairs = sender * self.network.num_peers + dests
        self.traffic.network_batches += int(np.unique(pairs).size)
        policy = self.delivery_policy
        if policy is not None:
            for (src_peer, _), targets in _group_rows(
                sender, dests, block.target_doc.tolist()
            ).items():
                self.traffic.routing_hops += policy.delivery_hops_batch(
                    src_peer, targets
                )
        self._dirty[block.target_doc] = True
        inbound = block.take(np.argsort(dests, kind="stable"))
        dests = inbound.dest_peer
        cuts = np.flatnonzero(dests[1:] != dests[:-1]) + 1
        starts = [0] + cuts.tolist()
        ends = cuts.tolist() + [len(inbound)]
        for lo, hi in zip(starts, ends):
            self.peers[int(dests[lo])].receive_batch(inbound.take(slice(lo, hi)))
        return len(inbound)

    def _rehome(self, live: np.ndarray) -> None:
        """Move documents off long-absent peers and back home on return."""
        from repro.p2p.guid import document_guid

        ring = self.network.ring
        dead = set(int(p) for p in np.flatnonzero(~live))
        threshold = self.rehoming_after

        # Evacuate: peers absent for too long surrender everything —
        # document state plus the in-link knowledge it was computed
        # from (exported before surrendering, since sources may be
        # co-migrating local documents).
        for peer in self.peers:
            pid = peer.peer_id
            if self._absence[pid] < threshold or peer.documents.size == 0:
                continue
            docs = [int(d) for d in peer.documents]
            knowledge = peer.export_inlink_knowledge(docs)
            state = peer.surrender_documents(docs)
            by_doc = {u.target_doc: [] for u in knowledge}
            for u in knowledge:
                by_doc[u.target_doc].append(u)
            for doc in docs:
                new_owner = ring.owner_excluding(document_guid(doc), dead)
                self.peers[new_owner].adopt_documents({doc: state[doc]})
                self.peers[new_owner].receive_batch(by_doc.get(doc, []))
                self._peer_of[doc] = new_owner
                self._dirty[doc] = True  # new owner owes a recompute
                self.traffic.migrations += 1

        # Return home: a reappeared peer re-acquires its documents.
        for pid in np.flatnonzero(live):
            pid = int(pid)
            if self._absence[pid] != 0:
                continue
            strayed = np.flatnonzero(
                (self._home_peer == pid) & (self._peer_of != pid)
            )
            for doc in strayed:
                doc = int(doc)
                holder = self.peers[int(self._peer_of[doc])]
                knowledge = holder.export_inlink_knowledge([doc])
                state = holder.surrender_documents([doc])
                self.peers[pid].adopt_documents(state)
                self.peers[pid].receive_batch(knowledge)
                self._peer_of[doc] = pid
                self._dirty[doc] = True
                self.traffic.migrations += 1

    def _mark_dirty(self, updates) -> None:
        dirty = self._dirty
        for u in updates:
            dirty[u.target_doc] = True

    def _charge_hops(self, sender_peer: int, updates) -> None:
        if self.delivery_policy is None:
            return
        self.traffic.routing_hops += self.delivery_policy.delivery_hops_batch(
            sender_peer, [u.target_doc for u in updates]
        )


def _weak_deliver(sim: "P2PPagerankSimulation") -> Callable[[MessageBatch], int]:
    """``sim``'s fault-delivery callback through a weak reference.  A
    bound method would make a simulation <-> transport cycle that keeps
    every finished faulted run, peers and all, alive until a cyclic
    garbage collection."""
    ref = weakref.ref(sim)

    def deliver(batch: MessageBatch) -> int:
        owner = ref()
        assert owner is not None, "transport outlived its simulation"
        return owner._fault_deliver(batch)

    return deliver


def _group_rows(
    sender: np.ndarray, dest: np.ndarray, items: Sequence
) -> Dict[Tuple[int, int], list]:
    """``items`` grouped per (sender, receiver) batch, batches in
    first-row order and items in row order — the batches per-sender
    staging would have produced, since rows run sender by sender."""
    groups: Dict[Tuple[int, int], list] = {}
    for key, item in zip(zip(sender.tolist(), dest.tolist()), items):
        groups.setdefault(key, []).append(item)
    return groups
