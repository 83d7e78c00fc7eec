"""The concurrent peer runtime: asyncio tasks, two scheduler modes.

:class:`AsyncPeerRuntime` executes the paper's protocol the way §6's
future work imagines it deployed: every peer is an asyncio task behind
a mailbox, exchanging the priced wire messages over a pluggable
transport with reliable delivery (acks, capped backoff, retry budget —
docs/PROTOCOL.md §13, §14).  Two ways to drive it:

* :meth:`AsyncPeerRuntime.run` — **deterministic scheduler mode**.  A
  coordinator owns a :class:`~repro.runtime.clock.VirtualClock` and
  repeats one round: deliver every envelope due now (in the seeded
  ``(deliver_time, sequence)`` order), wake each peer task in
  ascending peer id and wait for it to drain its mailbox and service
  its retry timers, then advance the clock to the next scheduled
  event.  Same seed → same event order → byte-identical ranks, which
  is what lets the differential tests hold this runtime to the
  pass-based simulator's results within the paper's error bound.
* :meth:`AsyncPeerRuntime.run_realtime` — **free-running mode**.  Peers
  drain whenever the transport feeds them (real clock, optionally the
  local TCP transport); convergence is declared after the system has
  been quiescent for a configurable quiet window.  Not reproducible
  byte-for-byte; exists to run the protocol over real sockets.

Termination is the distributed computation's natural quiescence plus a
**bounded-staleness check**: no envelope queued or in flight, no
unacknowledged flight outstanding, and every remote consumer's view of
every published rank within ε of the publisher's value (the staleness
bound the ε publish gate promises — see
:meth:`repro.p2p.peer.Peer.recompute_document`).  A run that quiesces
with abandoned flights (retry budget exhausted under heavy loss)
reports ``converged=False`` instead of spinning, mirroring the pass
engines' graceful degradation.  ``runtime.*`` metrics are emitted
through :mod:`repro.obs` (catalogue: docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro._util import check_positive, check_threshold
from repro._util.rng import SeedLike, as_generator
from repro.core.pagerank import DEFAULT_DAMPING
from repro.faults.plan import FaultPlan
from repro.faults.transport import ReliabilityConfig
from repro.graphs.linkgraph import LinkGraph
from repro.obs import get_registry
from repro.p2p.network import P2PNetwork
from repro.p2p.peer import Peer
from repro.runtime.clock import RealClock, VirtualClock
from repro.runtime.mailbox import Mailbox, WorkTracker
from repro.runtime.node import PeerNode
from repro.runtime.transport import InMemoryTransport, OnOffSchedule, Transport

__all__ = ["RuntimeReport", "AsyncPeerRuntime"]


class _RuntimeInstruments:
    """Registry handles for the runtime's emissions (no-op singletons
    under the default disabled registry).  Catalogued in
    docs/OBSERVABILITY.md §9."""

    __slots__ = (
        "messages", "batches", "delivered", "acks", "retries", "suppressed",
        "recomputes", "abandoned", "deferred", "rounds", "backlog",
        "overflow", "quiesce_time",
    )

    def __init__(self, reg) -> None:
        self.messages = reg.counter(
            "runtime.messages_sent", unit="messages",
            description="update messages handed to the transport (first attempts)",
        )
        self.batches = reg.counter(
            "runtime.batches_sent", unit="batches",
            description="batch flights launched by peer nodes",
        )
        self.delivered = reg.counter(
            "runtime.messages_delivered", unit="messages",
            description="updates delivered into peer mailboxes",
        )
        self.acks = reg.counter(
            "runtime.acks_sent", unit="acks",
            description="batch acknowledgements sent by receiving nodes",
        )
        self.retries = reg.counter(
            "runtime.retries", unit="batches",
            description="flight retransmissions after ack timeout",
        )
        self.suppressed = reg.counter(
            "runtime.redeliveries_suppressed", unit="messages",
            description="duplicate updates absorbed by receiver version dedup",
        )
        self.recomputes = reg.counter(
            "runtime.recomputes", unit="documents",
            description="event-driven document recomputations",
        )
        self.abandoned = reg.counter(
            "runtime.abandoned_updates", unit="messages",
            description="updates whose flight exhausted the retry budget",
        )
        self.deferred = reg.counter(
            "runtime.deferred_deliveries", unit="envelopes",
            description="deliveries held for peers in a down spell (churn)",
        )
        self.rounds = reg.counter(
            "runtime.scheduler_rounds", unit="rounds",
            description="deterministic scheduler rounds executed",
        )
        self.backlog = reg.histogram(
            "runtime.mailbox_backlog", unit="envelopes",
            description="mailbox depth observed at each drain",
        )
        self.overflow = reg.counter(
            "runtime.mailbox_overflow", unit="envelopes",
            description="envelopes refused by bounded mailboxes at capacity",
        )
        self.quiesce_time = reg.gauge(
            "runtime.quiesce_time", unit="time",
            description="clock reading at quiescence (virtual units or seconds)",
        )


@dataclass(frozen=True)
class RuntimeReport:
    """Outcome of one concurrent-runtime run.

    Attributes
    ----------
    ranks:
        Final per-document ranks.
    converged:
        Quiesced with nothing undeliverable and every consumer within
        the ε staleness bound.
    quiesced:
        The event system drained naturally (False on budget/timeout).
    clock_time:
        Clock reading at termination (virtual units or seconds).
    rounds:
        Deterministic scheduler rounds executed (0 in free-running
        mode).
    messages:
        Cross-peer update messages sent (first attempts; the paper's
        traffic accounting, retransmits excluded).
    batches:
        Batch flights launched.
    acks:
        Acknowledgements sent by receivers.
    retries:
        Flight retransmissions after ack timeout.
    recomputes:
        Event-driven document recomputations performed.
    redeliveries_suppressed:
        Duplicate updates absorbed by receiver version dedup.
    abandoned_updates:
        Updates whose flight exhausted the retry budget (undelivered).
    deferred_deliveries:
        Deliveries held for peers in a down spell (churn).
    max_staleness:
        Largest relative gap between a published rank and any remote
        consumer's view of it at termination (ε-bounded on a converged
        run).
    epsilon:
        The convergence threshold the run used.
    mailbox_overflow:
        Envelopes refused by bounded mailboxes at capacity (recovered
        end-to-end by sender retransmission).
    crashes:
        Peer crashes the recovery supervisor applied (0 without a
        recovery config).
    restarts:
        Supervised restarts from WAL+snapshot replay.
    """

    ranks: np.ndarray
    converged: bool
    quiesced: bool
    clock_time: float
    rounds: int
    messages: int
    batches: int
    acks: int
    retries: int
    recomputes: int
    redeliveries_suppressed: int
    abandoned_updates: int
    deferred_deliveries: int
    max_staleness: float
    epsilon: float
    mailbox_overflow: int = 0
    crashes: int = 0
    restarts: int = 0


class AsyncPeerRuntime:
    """Concurrent peer runtime over a pluggable transport.

    Parameters
    ----------
    graph:
        Document link graph.
    network:
        P2P network with a document placement attached.
    damping, epsilon, init_rank:
        Algorithm parameters (paper §2.2).
    transport:
        A :class:`~repro.runtime.transport.Transport`; defaults to a
        seeded :class:`~repro.runtime.transport.InMemoryTransport`
        built from ``latency`` / ``faults`` / ``availability``.
        Passing an explicit transport together with those keyword
        arguments is an error (they configure the default only).
    latency:
        Latency model for the default in-memory transport.
    faults:
        Seeded :class:`~repro.faults.plan.FaultPlan` for the default
        transport (loss / duplication / delay / partitions).
    availability:
        :class:`~repro.runtime.transport.OnOffSchedule` churn for the
        default transport (down peers receive on return, §3.1).
    reliability:
        Ack/retry/backoff parameters shared with the pass engines'
        :class:`~repro.faults.ReliableTransport`.
    gate:
        Publish gate (see :meth:`repro.p2p.peer.Peer.recompute_document`).
    pass_time:
        Clock units per pass-equivalent; scales reliability timeouts
        and the fault plan's pass-denominated delays.
    seed:
        Seed for the default transport's latency sampling.
    registry:
        Metrics registry (defaults to the process registry).
    recovery:
        Optional :class:`~repro.recovery.supervisor.RecoveryConfig`.
        When set, every peer runs behind a durability journal
        (WAL + snapshots) and a supervisor applies the fault plan's
        crash schedule for real: the peer task dies losing volatile
        state, a heartbeat failure detector notices the silence, and
        the supervisor restarts the task from bitwise WAL replay plus
        anti-entropy re-publish (docs/PROTOCOL.md §15).  Deterministic
        scheduler mode only.
    mailbox_capacity:
        Optional bound on every peer mailbox (overflow envelopes are
        refused and recovered by sender retransmission, §14).
    sanitizer:
        Optional :class:`~repro.sanitize.hb.RuntimeSanitizer` — the
        happens-before race detector.  When ``None``, setting
        ``REPRO_SANITIZE=1`` in the environment auto-creates one, and
        the run *raises* :class:`~repro.sanitize.hb.SanitizeRaceError`
        if it finds unordered conflicting accesses (the CI smoke
        gate); an explicitly passed instance only journals, so tests
        can inspect ``runtime.sanitizer.findings()``.  Observation
        only — results stay byte-identical (docs/STATIC_ANALYSIS.md,
        "Dynamic sanitizer").  Deterministic scheduler mode only.
    tiebreak:
        Optional bijective key over the default transport's submission
        sequence (the interleaving explorer's schedule perturbation —
        :func:`repro.sanitize.explorer.perturbation`).  Like
        ``latency``/``faults``, it configures the default in-memory
        transport only.

    A runtime instance is single-shot: construct a fresh one per run.
    """

    def __init__(
        self,
        graph: LinkGraph,
        network: P2PNetwork,
        *,
        damping: float = DEFAULT_DAMPING,
        epsilon: float = 1e-3,
        init_rank: float = 1.0,
        transport: Optional[Transport] = None,
        latency=None,
        faults: Optional[FaultPlan] = None,
        availability: Optional[OnOffSchedule] = None,
        reliability: Optional[ReliabilityConfig] = None,
        gate: str = "published",
        pass_time: float = 1.0,
        seed: SeedLike = None,
        registry=None,
        recovery=None,
        mailbox_capacity: Optional[int] = None,
        sanitizer=None,
        tiebreak=None,
    ) -> None:
        check_threshold("damping", damping)
        check_threshold("epsilon", epsilon)
        check_positive("init_rank", init_rank)
        check_positive("pass_time", pass_time)
        if network.placement is None:
            raise ValueError("network must have a document placement attached")
        if network.placement.num_docs != graph.num_nodes:
            raise ValueError("placement and graph disagree on document count")
        if gate not in ("published", "rank"):
            raise ValueError(f"gate must be 'published' or 'rank', got {gate!r}")
        if transport is not None and (
            latency is not None
            or faults is not None
            or availability is not None
            or tiebreak is not None
        ):
            raise ValueError(
                "latency/faults/availability/tiebreak configure the default "
                "in-memory transport; attach them to your explicit "
                "transport instead"
            )
        if availability is not None and availability.num_peers != network.num_peers:
            raise ValueError("availability schedule peer count mismatch")
        self.graph = graph
        self.network = network
        self.damping = float(damping)
        self.epsilon = float(epsilon)
        self.init_rank = float(init_rank)
        self.gate = gate
        self.pass_time = float(pass_time)
        # Keep the derived-stream convention: latency sampling gets its
        # own generator so the fault plan's stream is untouched.
        if transport is None:
            transport = InMemoryTransport(
                latency=latency,
                faults=faults,
                availability=availability,
                pass_time=pass_time,
                seed=as_generator(seed),
                tiebreak=tiebreak,
            )
        self.transport = transport
        # Opt-in happens-before race detection (zero-cost when off).
        self._san_owned = False
        if sanitizer is None and os.environ.get("REPRO_SANITIZE") == "1":
            # Imported here: repro.sanitize imports repro.lint, which
            # this module must not depend on unconditionally.
            from repro.sanitize.hb import RuntimeSanitizer

            sanitizer = RuntimeSanitizer(registry=registry)
            self._san_owned = True
        self.sanitizer = sanitizer
        if sanitizer is not None:
            self.transport.sanitizer = sanitizer
        self._clock = VirtualClock()
        self._tracker = WorkTracker()
        self._obs = _RuntimeInstruments(
            registry if registry is not None else get_registry()
        )
        self._peer_of = network.placement.assignment
        self._reliability = reliability
        self.mailbox_capacity = mailbox_capacity
        self._recovery = recovery
        self._supervisor = None
        self._journals: dict = {}
        if recovery is not None:
            # Imported here: repro.recovery's package init pulls in the
            # soak harness, which imports this module.
            from repro.recovery.journal import PeerJournal
            from repro.recovery.supervisor import Supervisor
            from repro.recovery.wal import WriteAheadLog

            plan = getattr(transport, "faults", None)
            events = plan.crash_events() if plan is not None else ()
            self._supervisor = Supervisor(
                network.num_peers,
                events,
                pass_time=pass_time,
                config=recovery,
            )
        docs_by_peer = network.placement.docs_by_peer()
        self.nodes: List[PeerNode] = []
        for pid in range(network.num_peers):
            peer = Peer(pid, docs_by_peer[pid], graph, init_rank=self.init_rank)
            if sanitizer is not None:
                sanitizer.register_task(f"peer{pid}")
                sanitizer.wrap_peer(peer)
            mailbox = Mailbox(pid, self._tracker, capacity=mailbox_capacity)
            transport.connect(pid, mailbox)
            journal = None
            if recovery is not None:
                wal = None
                if recovery.wal_dir is not None:
                    wal = WriteAheadLog(
                        os.path.join(recovery.wal_dir, f"peer{pid}.wal.jsonl")
                    )
                journal = PeerJournal(
                    peer,
                    graph,
                    damping=self.damping,
                    epsilon=self.epsilon,
                    peer_of=self._peer_of,
                    gate=gate,
                    snapshot_interval=recovery.snapshot_interval,
                    wal=wal,
                )
                self._journals[pid] = journal
            self.nodes.append(
                PeerNode(
                    peer,
                    mailbox,
                    transport,
                    self._clock,
                    damping=self.damping,
                    epsilon=self.epsilon,
                    peer_of=self._peer_of,
                    gate=gate,
                    reliability=reliability,
                    pass_time=pass_time,
                    instruments=self._obs,
                    journal=journal,
                    sanitizer=sanitizer,
                )
            )
        self._ran = False
        self._shut_down = False

    # ------------------------------------------------------------------
    # Deterministic scheduler mode
    # ------------------------------------------------------------------
    async def run(
        self,
        *,
        max_time: Optional[float] = None,
        max_rounds: int = 1_000_000,
        round_hook=None,
    ) -> RuntimeReport:
        """Drive the system to quiescence under the virtual clock.

        One round: apply due supervised crashes, deliver due envelopes
        (seeded total order), wake each live peer task in ascending id
        to drain and service timers, heartbeat the survivors, run the
        failure detector and any due supervised restarts, then advance
        the clock to the next scheduled event.  Returns the report
        once nothing is scheduled anywhere (natural quiescence) or a
        budget is exhausted.

        ``round_hook(rounds, runtime)``, if given, is called after
        every round — the soak harness's continuous invariant probe.
        """
        if self._ran:
            raise RuntimeError("a runtime instance is single-shot; build a new one")
        self._ran = True
        if not isinstance(self.transport, InMemoryTransport):
            raise TypeError(
                "deterministic mode requires the in-memory transport; "
                "use run_realtime() for socket transports"
            )
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        sup = self._supervisor
        san = self.sanitizer
        for node in self.nodes:
            node.task = asyncio.create_task(node.run())
        # Startup round: the Fig. 1 concurrent initial pass, ordered by
        # peer id so first-send sequence numbers are reproducible.
        for node in self.nodes:
            await node.step()
        if san is not None:
            san.round_barrier()
        if sup is not None:
            for node in self.nodes:
                sup.detector.heartbeat(node.peer.peer_id, self._clock.now())
        rounds = 0
        quiesced = False
        while rounds < max_rounds:
            now = self._clock.now()
            if sup is not None:
                for pid in sup.crashes_due(now):
                    await self._apply_crash(pid, now)
            self.transport.deliver_due(now)
            for node in self.nodes:
                if sup is not None and sup.is_down(node.peer.peer_id):
                    continue
                if not node.mailbox.empty or node.timer_due(now):
                    await node.step()
            if san is not None:
                # The end-of-steps join: everything this round's steps
                # did happens-before the supervisor phase, the round
                # hook, and every following round.  Same-round steps
                # stay mutually concurrent — that is the race surface.
                san.round_barrier()
            if sup is not None:
                for node in self.nodes:
                    if not sup.is_down(node.peer.peer_id):
                        sup.detector.heartbeat(node.peer.peer_id, now)
                sup.observe(now)
                for pid in sup.restarts_due(now):
                    await self._apply_restart(pid, now)
            rounds += 1
            self._obs.rounds.inc()
            if round_hook is not None:
                round_hook(rounds, self)
            candidates = [self.transport.next_due()]
            candidates.extend(node.tracker.next_due() for node in self.nodes)
            if sup is not None:
                candidates.append(sup.next_event(now))
            times = [t for t in candidates if t is not None]
            if not times:
                quiesced = True
                break
            t_next = min(times)
            if max_time is not None and t_next > max_time:
                break
            self._clock.advance_to(t_next)
        await self.shutdown()
        if san is not None:
            findings = san.finalize()
            if findings and self._san_owned:
                # Env-var mode is the CI gate: fail loudly.  An
                # explicitly passed sanitizer only journals, so tests
                # can inspect runtime.sanitizer.findings().
                from repro.sanitize.hb import SanitizeRaceError

                raise SanitizeRaceError(findings)
        return self._report(quiesced=quiesced, rounds=rounds)

    # ------------------------------------------------------------------
    # Supervised crash/restart mechanics (docs/PROTOCOL.md §15)
    # ------------------------------------------------------------------
    async def _apply_crash(self, pid: int, now: float) -> None:
        """Kill one peer task with state loss: queued envelopes, the
        outbox, the deferred store, and in-flight batches all die; the
        journal (WAL + snapshot) survives."""
        sup = self._supervisor
        assert sup is not None
        node = self.nodes[pid]
        journal = self._journals[pid]
        if self._recovery.verify_replay_on_crash and not journal.verify_replay():
            sup.instruments.state_loss.inc()
        # Queued envelopes die unprocessed (balance the work tracker).
        lost_envelopes = node.mailbox.drain()
        node.mailbox.done(len(lost_envelopes))
        node.peer.crash_volatile()
        node.tracker.wipe()
        node.request_stop()
        if node.task is not None:
            await node.task
            node.task = None
        self.transport.set_down(pid)
        sup.note_crash_applied(pid)

    async def _apply_restart(self, pid: int, now: float) -> None:
        """Resurrect one peer task from bitwise WAL+snapshot replay,
        then heal staleness in both directions: the recovered peer
        re-announces its published values, and live neighbors
        re-publish toward it (forgiving flights they had abandoned
        while it was down — anti-entropy catch-up, §15.4)."""
        sup = self._supervisor
        assert sup is not None
        journal = self._journals[pid]
        old = self.nodes[pid]
        peer = journal.replay()
        journal.rebind(peer)
        # Compact so the next replay starts from the restored state.
        journal.compact()
        if self.sanitizer is not None:
            # The replayed peer carries fresh plain dicts; re-wrap them
            # (its task keeps its clock, so pre-crash edges survive).
            self.sanitizer.wrap_peer(peer)
        mailbox = Mailbox(pid, self._tracker, capacity=self.mailbox_capacity)
        mailbox.overflow_dropped = old.mailbox.overflow_dropped
        self.transport.connect(pid, mailbox)
        node = PeerNode(
            peer,
            mailbox,
            self.transport,
            self._clock,
            damping=self.damping,
            epsilon=self.epsilon,
            peer_of=self._peer_of,
            gate=self.gate,
            reliability=self._reliability,
            pass_time=self.pass_time,
            instruments=self._obs,
            journal=journal,
            sanitizer=self.sanitizer,
        )
        # The crashed node's counters and flight table carry over (its
        # flights were wiped at the crash; its ledger is cleared below).
        node.tracker = old.tracker
        node.messages_sent = old.messages_sent
        node.batches_sent = old.batches_sent
        node.messages_received = old.messages_received
        node.acks_sent = old.acks_sent
        node.recomputes = old.recomputes
        node.redeliveries_suppressed = old.redeliveries_suppressed
        node.mark_resumed()
        self.nodes[pid] = node
        node.task = asyncio.create_task(node.run())
        released = self.transport.clear_down(pid, now)
        if released:
            sup.instruments.parked.inc(released)
        sup.mark_restarted(pid, now)
        # Recovered peer re-announces its persisted published values
        # (equal-version replays are idempotent at receivers), which
        # supersedes whatever it abandoned before the crash.
        staged = peer.reboot_republish(self._peer_of)
        if staged:
            sup.instruments.republished.inc(staged)
            node.flush_outbox(now)
        sup.instruments.healed.inc(node.tracker.table.forgive(sender=pid))
        if self._recovery.neighbor_republish:
            for other in self.nodes:
                opid = other.peer.peer_id
                if opid == pid or sup.is_down(opid):
                    continue
                refreshed = other.peer.republish_to(pid, self._peer_of)
                if refreshed:
                    sup.instruments.republished.inc(refreshed)
                    other.flush_outbox(now)
                sup.instruments.healed.inc(other.tracker.forgive(pid))

    # ------------------------------------------------------------------
    # Free-running mode
    # ------------------------------------------------------------------
    async def run_realtime(
        self,
        *,
        quiet_window: float = 0.05,
        timeout: float = 60.0,
        tick: float = 0.01,
    ) -> RuntimeReport:
        """Free-running execution under the real clock.

        Peers drain as the transport feeds them; a coordinator tick
        services retry timers and (for the in-memory transport) pumps
        due deliveries.  Quiescence is declared once nothing has been
        queued, in flight, or unacknowledged for ``quiet_window``
        seconds; ``timeout`` bounds the whole run.  Results are
        protocol-correct but not byte-reproducible — use :meth:`run`
        for differential testing.
        """
        if self._ran:
            raise RuntimeError("a runtime instance is single-shot; build a new one")
        self._ran = True
        if self._supervisor is not None:
            raise RuntimeError(
                "recovery supervision requires deterministic mode; "
                "free-running restarts are not reproducible"
            )
        if self.sanitizer is not None:
            raise RuntimeError(
                "the happens-before sanitizer requires deterministic "
                "mode; free-running interleavings have no round barrier"
            )
        check_positive("quiet_window", quiet_window)
        check_positive("timeout", timeout)
        check_positive("tick", tick)
        clock = RealClock()
        self._clock = clock
        for node in self.nodes:
            node.clock = clock
            node.mailbox.set_on_put(node.wake)
        await self.transport.start()
        for node in self.nodes:
            node.task = asyncio.create_task(node.run())
            node.wake()  # run the initial pass
        quiesced = False
        quiet_since: Optional[float] = None
        start = clock.now()
        while True:
            await asyncio.sleep(tick)
            now = clock.now()
            if isinstance(self.transport, InMemoryTransport):
                self.transport.deliver_due(now)
            for node in self.nodes:
                if node.timer_due(now):
                    node.wake()
            if any(node.failure is not None for node in self.nodes):
                break  # shutdown() re-raises the dead task's exception
            if self._idle():
                if quiet_since is None:
                    quiet_since = now
                elif now - quiet_since >= quiet_window:
                    quiesced = True
                    break
            else:
                quiet_since = None
            if now - start >= timeout:
                break
        await self.shutdown()
        return self._report(quiesced=quiesced, rounds=0)

    def _idle(self) -> bool:
        """Nothing queued, nothing in flight, nothing unacknowledged."""
        if self._tracker.outstanding:
            return False
        in_flight = getattr(self.transport, "pending", 0)
        if in_flight:
            return False
        return all(
            node.started and node.tracker.unacked_flights == 0
            for node in self.nodes
        )

    # ------------------------------------------------------------------
    # Shutdown / reporting
    # ------------------------------------------------------------------
    async def shutdown(self) -> None:
        """Graceful drain: every node applies its queued envelopes and
        exits; the transport tears down.  Idempotent.  If a peer task
        died, its exception is re-raised once the rest have stopped."""
        if self._shut_down:
            return
        self._shut_down = True
        for node in self.nodes:
            node.request_stop()
        tasks = [node.task for node in self.nodes if node.task is not None]
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        if self.sanitizer is not None:
            # Join barrier: the final drains happen-before the
            # coordinator's report reads (staleness probe, rank gather).
            self.sanitizer.round_barrier()
        await self.transport.stop()
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome

    @property
    def clock_now(self) -> float:
        """Current scheduler clock reading (virtual units in
        deterministic mode, seconds in free-running mode) — the time
        base ``round_hook`` observers share with the run."""
        return float(self._clock.now())

    def staleness_probe(self) -> float:
        """Largest relative gap between any published rank and a remote
        consumer's view of it — the bounded-staleness invariant (≤ ε on
        a fully delivered run)."""
        worst = 0.0
        for node in self.nodes:
            peer = node.peer
            for doc in peer.documents:
                doc = int(doc)
                value = peer.published[doc]
                denom = abs(value) if value != 0 else 1.0
                for target in self.graph.out_links(doc):
                    consumer = int(self._peer_of[int(target)])
                    if consumer == peer.peer_id:
                        continue
                    seen = self.nodes[consumer].peer.visible_value(doc)
                    gap = abs(value - seen) / denom
                    if gap > worst:
                        worst = gap
        return worst

    def gather_ranks(self) -> np.ndarray:
        """Final per-document ranks across all peers."""
        out = np.empty(self.graph.num_nodes, dtype=np.float64)
        for node in self.nodes:
            for doc, value in node.peer.rank.items():
                out[doc] = value
        return out

    def _report(self, *, quiesced: bool, rounds: int) -> RuntimeReport:
        messages = sum(n.messages_sent for n in self.nodes)
        batches = sum(n.batches_sent for n in self.nodes)
        acks = sum(n.acks_sent for n in self.nodes)
        retries = sum(n.tracker.retries for n in self.nodes)
        recomputes = sum(n.recomputes for n in self.nodes)
        suppressed = sum(n.redeliveries_suppressed for n in self.nodes)
        abandoned = sum(n.tracker.abandoned_updates for n in self.nodes)
        deferred = int(getattr(self.transport, "deferred_deliveries", 0))
        delivered = int(getattr(self.transport, "delivered_messages", 0))
        overflow = sum(n.mailbox.overflow_dropped for n in self.nodes)
        staleness = self.staleness_probe()
        clock_time = float(self._clock.now())
        converged = bool(
            quiesced and abandoned == 0 and staleness <= self.epsilon
        )
        obs = self._obs
        obs.messages.inc(messages)
        obs.batches.inc(batches)
        obs.delivered.inc(delivered)
        obs.acks.inc(acks)
        obs.retries.inc(retries)
        obs.suppressed.inc(suppressed)
        obs.recomputes.inc(recomputes)
        obs.abandoned.inc(abandoned)
        obs.deferred.inc(deferred)
        obs.overflow.inc(overflow)
        if quiesced:
            obs.quiesce_time.set(clock_time)
        crashes = restarts = 0
        sup = self._supervisor
        if sup is not None:
            crashes = sup.crashes_applied
            restarts = sup.restarts_applied
            journals = self._journals.values()
            sup.instruments.wal_records.inc(
                sum(j.records_appended for j in journals)
            )
            sup.instruments.snapshots.inc(
                sum(j.snapshots_taken for j in journals)
            )
            sup.instruments.replayed.inc(
                sum(j.replayed_records for j in journals)
            )
        return RuntimeReport(
            ranks=self.gather_ranks(),
            converged=converged,
            quiesced=quiesced,
            clock_time=clock_time,
            rounds=rounds,
            messages=messages,
            batches=batches,
            acks=acks,
            retries=retries,
            recomputes=recomputes,
            redeliveries_suppressed=suppressed,
            abandoned_updates=abandoned,
            deferred_deliveries=deferred,
            max_staleness=staleness,
            epsilon=self.epsilon,
            mailbox_overflow=overflow,
            crashes=crashes,
            restarts=restarts,
        )
