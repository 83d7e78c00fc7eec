"""Reliable batch delivery over a faulty transport (acks + backoff).

The protocol's wire format (docs/PROTOCOL.md §2) has no reliability:
a :class:`~repro.p2p.messages.MessageBatch` that the network drops is
simply gone, and the §3.1 store-and-resend rule only covers receivers
known to be *absent* — not messages lost in flight.  This module adds
the missing layer, the classic positive-ack protocol:

* every batch transfer is a **flight** with a transport-level id;
* a delivered batch is acknowledged by the receiver
  (:class:`~repro.p2p.messages.BatchAck`); the ack travels the same
  lossy links and can itself be dropped;
* an unacknowledged flight is retransmitted after a timeout, with the
  timeout doubling per attempt (exponential backoff) up to a retry
  budget; exhausting the budget *abandons* the flight and records the
  (sender, receiver) link as black-holed;
* retransmits necessarily produce duplicate deliveries; the receiver's
  per-source version dedup (`Peer.receive`, which rejects equal-or-
  older versions) makes them no-ops, and the transport counts how many
  updates that suppression absorbed.

The flight bookkeeping is :class:`FlightTable`, shared with the
runtime's :class:`~repro.runtime.reliability.FlightTracker`.

Fault decisions (drop/duplicate/delay/partition) come from the seeded
:class:`~repro.faults.plan.FaultPlan`; the transport itself is
deterministic given the plan and the engine's call order.

Degradation is graceful, not silent: :class:`StagnationDetector`
watches for passes in which the computation is quiescent yet
undeliverable updates remain, and :class:`FaultDiagnostics` is the
abort report — which links are black-holed and how much update mass
never arrived — returned on :class:`~repro.core.convergence.RunReport`
instead of spinning to the pass cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.p2p.messages import MessageBatch
from repro.faults.plan import FaultPlan

__all__ = [
    "ReliabilityConfig",
    "FaultStats",
    "Flight",
    "FlightTable",
    "ReliableTransport",
    "StagnationDetector",
    "FaultDiagnostics",
]


@dataclass(frozen=True)
class ReliabilityConfig:
    """Ack/retry/backoff parameters of the reliable-delivery layer.

    Attributes
    ----------
    ack_timeout_passes:
        Passes to wait for an ack before the first retransmit.
    backoff_factor:
        Timeout multiplier per failed attempt (attempt ``k`` waits
        ``ack_timeout_passes * backoff_factor**(k-1)`` passes).
    max_retries:
        Retransmissions allowed per flight.  A flight still unacked
        after the budget is *abandoned* — recorded as black-holed, its
        updates counted as undelivered mass for the diagnostics report.
    max_retry_delay_passes:
        Backoff ceiling.  Uncapped exponential backoff would park a
        flight for hundreds of passes — longer than the stagnation
        window — and starve an otherwise-recoverable run; capping it
        also bounds the worst-case pass count before a doomed flight
        exhausts its budget and is abandoned.
    """

    ack_timeout_passes: int = 2
    backoff_factor: float = 2.0
    max_retries: int = 10
    max_retry_delay_passes: int = 8

    def __post_init__(self) -> None:
        if self.ack_timeout_passes < 1:
            raise ValueError(
                f"ack_timeout_passes must be >= 1, got {self.ack_timeout_passes}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_retry_delay_passes < 1:
            raise ValueError(
                "max_retry_delay_passes must be >= 1, "
                f"got {self.max_retry_delay_passes}"
            )

    def retry_delay(self, attempt: int) -> int:
        """Whole passes to wait after failed attempt number ``attempt``."""
        delay = int(self.ack_timeout_passes * self.backoff_factor ** (attempt - 1))
        return max(1, min(delay, self.max_retry_delay_passes))


@dataclass
class FaultStats:
    """Plain-integer fault accounting, readable without the obs layer.

    All message quantities are update counts (the catalogue's
    *messages* unit); ``retries`` and ``partition_blocked_sends`` count
    batch transfers, ``acks_sent``/``acks_dropped`` count
    acknowledgements.  The runtime's in-memory transport fills the
    send-fate fields (drops, duplicates, delays, blocks, ack drops).
    """

    dropped_updates: int = 0
    duplicated_updates: int = 0
    delayed_updates: int = 0
    acks_sent: int = 0
    acks_dropped: int = 0
    retries: int = 0
    redeliveries_suppressed: int = 0
    partition_blocked_sends: int = 0
    abandoned_updates: int = 0
    parked_updates: int = 0
    parked_resent: int = 0
    crashes: int = 0
    crash_state_loss: int = 0
    reboot_republished: int = 0
    stagnation_aborts: int = 0


class _FaultInstruments:
    """Registry counters mirroring :class:`FaultStats` field for field
    (shared no-op singletons under the default disabled registry).
    Catalogued in docs/OBSERVABILITY.md §4."""

    def __init__(self, reg) -> None:
        self._published = FaultStats()
        self._counters = {
            "dropped_updates": reg.counter(
                "faults.messages_dropped", unit="messages",
                description="updates lost to injected message drops",
            ),
            "duplicated_updates": reg.counter(
                "faults.messages_duplicated", unit="messages",
                description="updates delivered twice by injected duplication",
            ),
            "delayed_updates": reg.counter(
                "faults.messages_delayed", unit="messages",
                description="updates whose delivery was postponed (reordering)",
            ),
            "acks_sent": reg.counter(
                "faults.ack_messages", unit="acks",
                description="batch acknowledgements sent by receivers",
            ),
            "acks_dropped": reg.counter(
                "faults.acks_dropped", unit="acks",
                description="acknowledgements lost in transit (forces retransmit)",
            ),
            "retries": reg.counter(
                "faults.retries", unit="batches",
                description="batch retransmissions after ack timeout",
            ),
            "redeliveries_suppressed": reg.counter(
                "faults.redeliveries_suppressed", unit="messages",
                description="duplicate updates absorbed by receiver version dedup",
            ),
            "partition_blocked_sends": reg.counter(
                "faults.partition_blocked_sends", unit="batches",
                description="send attempts blocked by an active link partition",
            ),
            "abandoned_updates": reg.counter(
                "faults.abandoned_updates", unit="messages",
                description="updates whose flight exhausted the retry budget",
            ),
            "parked_updates": reg.counter(
                "faults.parked_updates", unit="messages",
                description="budget-exhausted updates parked into store-and-resend",
            ),
            "parked_resent": reg.counter(
                "faults.parked_resent", unit="messages",
                description="parked updates relaunched after their blockage cleared",
            ),
            "crashes": reg.counter(
                "faults.crashes", unit="peers",
                description="injected peer crashes (volatile state wiped)",
            ),
            "crash_state_loss": reg.counter(
                "faults.crash_state_loss", unit="messages",
                description="in-flight updates wiped by peer crashes",
            ),
            "reboot_republished": reg.counter(
                "faults.reboot_republished", unit="messages",
                description="updates re-announced by rebooted peers (crash recovery)",
            ),
            "stagnation_aborts": reg.counter(
                "faults.stagnation_aborts", unit="runs",
                description="runs aborted by the residual-stagnation detector",
            ),
        }

    def publish(self, stats: FaultStats) -> None:
        """Add what ``stats`` gained since the last call to the counters."""
        for name, counter in self._counters.items():
            counter.inc(getattr(stats, name) - getattr(self._published, name))
        self._published = replace(stats)


@dataclass
class Flight:
    """One batch transfer awaiting acknowledgement.  ``next_retry`` is
    in the owning table's clock; ``delivered_once`` lets the simulator
    count later copies as suppressed redeliveries."""

    flight_id: int
    batch: MessageBatch
    attempts: int = 1
    next_retry: float = 0
    delivered_once: bool = False


class FlightTable:
    """Unacked flights, their retry deadlines, and the abandonment ledger.

    The one ack/retry/abandon state machine of both reliable-delivery
    paths (docs/PROTOCOL.md §13.1, §14.3): :class:`ReliableTransport`
    drives a table in passes, each runtime node's
    :class:`~repro.runtime.reliability.FlightTracker` one on the runtime
    clock.  ``time_unit`` is the clock length of one pass.

    The ledger holds, per ``(sender, receiver)`` link, the updates and
    ``|value|`` mass of abandoned flights; they block convergence until
    :meth:`settle` or :meth:`forgive` takes them off.
    """

    def __init__(self, config: ReliabilityConfig, *, time_unit: float = 1) -> None:
        if time_unit <= 0:
            raise ValueError(f"time_unit must be > 0, got {time_unit}")
        self.config = config
        self.time_unit = time_unit
        self._flights: Dict[int, Flight] = {}
        self._next_id = 0
        self.unacked_updates = 0
        self.retries = 0
        self._ledger: Dict[Tuple[int, int], Tuple[int, float]] = {}

    @property
    def unacked_flights(self) -> int:
        return len(self._flights)

    @property
    def abandoned_updates(self) -> int:
        return sum(n for n, _ in self._ledger.values())

    @property
    def abandoned_mass(self) -> float:
        return sum((mass for _, mass in self._ledger.values()), 0.0)

    def ledger(self) -> Dict[Tuple[int, int], int]:
        """Abandoned updates per ``(sender, receiver)`` link."""
        return {key: n for key, (n, _) in self._ledger.items()}

    def __contains__(self, flight_id: int) -> bool:
        return flight_id in self._flights

    def __iter__(self) -> Iterator[Flight]:
        return iter(self._flights.values())

    def _arm(self, flight: Flight, now: float) -> None:
        delay = self.config.retry_delay(flight.attempts)
        flight.next_retry = now + delay * self.time_unit

    def launch(self, batch: MessageBatch, now: float) -> Flight:
        """Register a freshly staged batch as a new flight."""
        flight = Flight(self._next_id, batch)
        self._next_id += 1
        self._arm(flight, now)
        self._flights[flight.flight_id] = flight
        self.unacked_updates += len(batch)
        return flight

    def ack(self, flight_id: int) -> bool:
        """Clear an acknowledged flight; False if it was not live."""
        flight = self._flights.get(flight_id)
        if flight is not None:
            self._drop(flight)
        return flight is not None

    def _drop(self, flight: Flight) -> None:
        del self._flights[flight.flight_id]
        self.unacked_updates -= len(flight.batch)

    def due(self, now: float) -> Tuple[List[Flight], List[Flight]]:
        """The flights whose deadline has passed, oldest first, split
        into ``(retransmit, abandoned)``.  A retransmit has ``attempts``
        incremented and its deadline re-armed; a flight over the retry
        budget leaves the table for the ledger."""
        retransmit: List[Flight] = []
        abandoned: List[Flight] = []
        for flight in list(self._flights.values()):
            if flight.next_retry > now:
                continue
            if flight.attempts > self.config.max_retries:
                self._drop(flight)
                self._book(flight.batch, 1)
                abandoned.append(flight)
            else:
                flight.attempts += 1
                self._arm(flight, now)
                retransmit.append(flight)
        self.retries += len(retransmit)
        return retransmit, abandoned

    def next_due(self) -> Optional[float]:
        """Earliest retry/abandon deadline among live flights."""
        if not self._flights:
            return None
        return min(f.next_retry for f in self._flights.values())

    def wipe(self, sender: Optional[int] = None) -> int:
        """Crash semantics: drop the live flights (of ``sender`` only,
        if given) without abandoning them.  Returns the updates lost."""
        lost = 0
        for flight in list(self._flights.values()):
            if sender in (None, flight.batch.sender_peer):
                self._drop(flight)
                lost += len(flight.batch)
        return lost

    def _book(self, batch: MessageBatch, sign: int) -> None:
        key = (batch.sender_peer, batch.receiver_peer)
        n, mass = self._ledger.get(key, (0, 0.0))
        n += sign * len(batch)
        mass += sign * sum(abs(u.value) for u in batch)
        if n > 0:
            self._ledger[key] = (n, mass)
        else:
            self._ledger.pop(key, None)

    def settle(self, batch: MessageBatch) -> None:
        """Take an abandoned batch off the ledger: it is sent again."""
        self._book(batch, -1)

    def forgive(
        self, *, sender: Optional[int] = None, receiver: Optional[int] = None
    ) -> int:
        """Clear the ledger of every link from ``sender`` and/or into
        ``receiver``: a re-publish has superseded those updates.
        Returns the number of updates forgiven."""
        forgiven = 0
        for s, r in list(self._ledger):
            if sender in (None, s) and receiver in (None, r):
                forgiven += self._ledger.pop((s, r))[0]
        return forgiven


@dataclass
class _Parked:
    """One budget-exhausted batch held in store-and-resend (§3.1).

    ``undeliverable`` records whether the batch has been blocked by a
    partition or a down receiver since parking; relaunch is
    *transition-gated* — only a batch that was blocked and whose
    blockage has since cleared goes back on the wire.  A batch that
    exhausted its budget on an open, up link lost to pure chance stays
    parked (retrying it forever would just mask a hopeless loss rate).
    """

    batch: MessageBatch
    undeliverable: bool = False


@dataclass(frozen=True)
class FaultDiagnostics:
    """Why a faulted run was aborted (the graceful-degradation report).

    Attributes
    ----------
    fired_at_pass:
        Pass index at which the stagnation detector fired.
    stagnant_passes:
        Consecutive quiescent-but-undeliverable passes observed.
    black_holed_links:
        ``((sender, receiver), undelivered_updates)`` per link that
        holds undelivered updates: those on the abandonment ledger
        (flights that exhausted the retry budget) plus those in
        flights still unacked at abort time.
    black_holed_peers:
        Likely-culprit peers: those incident to at least half of the
        black-holed links (a fully partitioned peer touches all of its
        links; innocent bystanders touch only the ones to it).
    abandoned_updates:
        Updates whose flight was abandoned (retry budget exhausted).
    unacked_updates:
        Updates still sitting in unacknowledged flights at abort time.
    undelivered_mass:
        Total ``|value|`` mass of abandoned plus unacked updates — how
        much rank contribution never reached its consumers.
    """

    fired_at_pass: int
    stagnant_passes: int
    black_holed_links: Tuple[Tuple[Tuple[int, int], int], ...]
    black_holed_peers: Tuple[int, ...]
    abandoned_updates: int
    unacked_updates: int
    undelivered_mass: float

    def describe(self) -> str:
        """Human-readable abort report."""
        lines = [
            f"residual stagnation after {self.stagnant_passes} quiescent "
            f"passes (aborted at pass {self.fired_at_pass}):",
            f"  undelivered updates: {self.abandoned_updates} abandoned, "
            f"{self.unacked_updates} still unacked "
            f"(|value| mass {self.undelivered_mass:.6g})",
        ]
        if self.black_holed_links:
            lines.append("  black-holed links (sender->receiver: updates):")
            for (s, r), n in self.black_holed_links:
                lines.append(f"    {s} -> {r}: {n}")
        if self.black_holed_peers:
            lines.append(
                "  unreachable peers: "
                + ", ".join(str(p) for p in self.black_holed_peers)
            )
        return "\n".join(lines)


class StagnationDetector:
    """Detects quiescent-but-undeliverable runs (graceful abort).

    A faulted run can reach a state where no document is active, yet
    undelivered updates remain that can never arrive (permanent
    partition, retry budget exhausted).  Without detection the engine
    would spin to ``max_passes`` doing nothing.  The detector counts
    consecutive passes that are *quiescent* (nothing published, no
    recompute owed) while undeliverable-or-stuck updates exist and no
    delivery succeeded; after ``window`` such passes it fires.
    """

    def __init__(self, window: int = 25) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self.streak = 0

    def observe(
        self,
        *,
        quiescent: bool,
        undelivered: int,
        delivered_this_pass: int,
        attempts_this_pass: int = 0,
    ) -> bool:
        """Record one pass; True when stagnation is established.

        A pass in which the transport still *attempted* a transmission
        is not stagnant — the retry machinery is working and will
        either get through or exhaust its budget (bounded by the
        backoff cap); only once nothing is even being tried does the
        clock run.
        """
        if (
            quiescent
            and undelivered > 0
            and delivered_this_pass == 0
            and attempts_this_pass == 0
        ):
            self.streak += 1
        else:
            self.streak = 0
        return self.streak >= self.window


class ReliableTransport:
    """Ack/retry/backoff delivery of message batches under a fault plan.

    Flights live in a pass-timed :class:`FlightTable`; this class adds
    delayed copies, ack loss, duplicate-suppression accounting, §3.1
    parking of abandoned batches and the :meth:`diagnose` report.

    Parameters
    ----------
    plan:
        The seeded fault oracle.
    config:
        Ack/retry/backoff parameters.
    deliver:
        Engine callback ``deliver(batch) -> applied`` that hands a
        delivered batch to the receiving peer and returns how many of
        its updates actually mutated state (the rest were suppressed
        by version dedup).  The callback must also do the engine's own
        bookkeeping (dirty marking, routing-hop charges).
    registry:
        Metrics registry (defaults to the process registry's no-ops).

    Per-pass delivery counts are exposed as ``pass_delivered`` /
    ``pass_resent`` / ``pass_attempts`` — reset by :meth:`begin_pass` —
    so the engine can fold them into its traffic summary and
    :class:`~repro.core.convergence.PassStats`.
    """

    def __init__(
        self,
        plan: FaultPlan,
        config: ReliabilityConfig,
        deliver: Callable[[MessageBatch], int],
        *,
        registry=None,
    ) -> None:
        if registry is None:
            from repro.obs import get_registry

            registry = get_registry()
        self.plan = plan
        self.config = config
        self._deliver = deliver
        self.stats = FaultStats()
        self._obs = _FaultInstruments(registry)
        self._table = FlightTable(config)
        # Heap of (due_pass, seq, flight, attempt_no) — copies travelling
        # the network, delivered in deterministic (due, seq) order.
        self._delayed: List[Tuple[int, int, Flight, int]] = []
        self._delay_seq = 0
        # Store-and-resend holding area for budget-exhausted batches,
        # keyed by a monotonically increasing park id (FIFO relaunch).
        self._parked: Dict[int, _Parked] = {}
        self._next_park = 0
        self.pass_delivered = 0
        self.pass_resent = 0
        self.pass_attempts = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def unacked_updates(self) -> int:
        """Updates in flights still awaiting acknowledgement."""
        return self._table.unacked_updates

    @property
    def unacked_flights(self) -> int:
        return self._table.unacked_flights

    @property
    def abandoned_updates(self) -> int:
        return self.stats.abandoned_updates

    @property
    def undeliverable_updates(self) -> int:
        """Ledger plus still-unacked updates (convergence blockers).
        A parked batch counts until its blockage clears and it
        relaunches, or its rebooted sender re-announces."""
        return self._table.abandoned_updates + self._table.unacked_updates

    @property
    def parked_batches(self) -> int:
        """Budget-exhausted batches held in store-and-resend."""
        return len(self._parked)

    def black_holed_links(self) -> Dict[Tuple[int, int], int]:
        """Links whose flights exhausted the retry budget, with the
        number of updates abandoned on each."""
        return self._table.ledger()

    # ------------------------------------------------------------------
    # Pass lifecycle
    # ------------------------------------------------------------------
    def begin_pass(self, pass_index: int) -> None:
        """Reset the per-pass delivery counters; publish metrics."""
        self.pass_delivered = 0
        self.pass_resent = 0
        self.pass_attempts = 0
        self.publish_metrics()

    def publish_metrics(self) -> None:
        """Bring the ``faults.*`` registry counters level with
        :attr:`stats` (also called once when the run ends)."""
        self._obs.publish(self.stats)

    def tick(self, pass_index: int, live) -> None:
        """Deliver due delayed copies, then retransmit timed-out flights.

        Call once per pass, after ``begin_pass`` and before the compute
        step (the transport's analogue of §3.1's resend-first rule).
        """
        while self._delayed and self._delayed[0][0] <= pass_index:
            _, _, flight, attempt = heapq.heappop(self._delayed)
            self._deliver_copy(pass_index, flight, attempt, live)

        retransmit, abandoned = self._table.due(pass_index)
        for flight in abandoned:
            self._park(flight.batch, pass_index, live)
        self.stats.retries += len(retransmit)
        for flight in retransmit:
            self._attempt(pass_index, flight, live)

        self._service_parked(pass_index, live)

    def _service_parked(self, pass_index: int, live) -> None:
        """Store-and-resend for budget-exhausted batches: track each
        parked batch's blockage, relaunch the ones whose blockage has
        cleared (transition-gated — see :class:`_Parked`)."""
        if not self._parked:
            return
        for park_id in sorted(self._parked):
            entry = self._parked[park_id]
            batch = entry.batch
            if self._blocked(pass_index, batch, live):
                entry.undeliverable = True
                continue
            if not entry.undeliverable:
                continue
            # Was blocked, now clear: back onto the wire as a fresh
            # flight with a fresh retry budget.
            del self._parked[park_id]
            self._table.settle(batch)
            self.stats.parked_resent += len(batch)
            self.send(pass_index, batch, live)

    def send(self, pass_index: int, batch: MessageBatch, live) -> None:
        """Submit a freshly staged batch for reliable delivery."""
        if not len(batch):
            return
        self._attempt(pass_index, self._table.launch(batch, pass_index), live)

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def wipe_sender(self, peer: int) -> int:
        """Crash semantics: drop every unacked flight originating at
        ``peer`` (its retransmit buffer died with it).  Copies already
        travelling the network are left alone — they physically left
        the host.  Returns the number of updates wiped."""
        lost = self._table.wipe(peer)
        # The store-and-resend holding area is volatile too.
        for park_id in list(self._parked):
            if self._parked[park_id].batch.sender_peer == peer:
                lost += len(self._parked[park_id].batch)
                del self._parked[park_id]
        return lost

    def note_crash(self, peer: int, state_loss: int) -> None:
        """Record a peer crash and its total volatile-state loss."""
        self.stats.crashes += 1
        self.stats.crash_state_loss += state_loss

    def note_reboot_republish(self, peer: int, staged: int) -> None:
        """Record a rebooted peer's re-announcements, which supersede
        what it had abandoned (its parked batches died in the crash)."""
        self.stats.reboot_republished += staged
        self._table.forgive(sender=peer)

    def note_stagnation_abort(self) -> None:
        self.stats.stagnation_aborts += 1

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def diagnose(self, pass_index: int, stagnant_passes: int) -> FaultDiagnostics:
        """Build the graceful-degradation abort report."""
        links = self._table.ledger()
        unacked_mass = 0.0
        for flight in self._table:
            key = (flight.batch.sender_peer, flight.batch.receiver_peer)
            links[key] = links.get(key, 0) + len(flight.batch)
            unacked_mass += sum(abs(u.value) for u in flight.batch)
        incidence: Dict[int, int] = {}
        for s, r in links:
            incidence[s] = incidence.get(s, 0) + 1
            incidence[r] = incidence.get(r, 0) + 1
        threshold = max(1, (len(links) + 1) // 2)
        peers = tuple(sorted(p for p, n in incidence.items() if n >= threshold))
        return FaultDiagnostics(
            fired_at_pass=pass_index,
            stagnant_passes=stagnant_passes,
            black_holed_links=tuple(sorted(links.items())),
            black_holed_peers=peers,
            abandoned_updates=self._table.abandoned_updates,
            unacked_updates=self.unacked_updates,
            undelivered_mass=self._table.abandoned_mass + unacked_mass,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _blocked(self, pass_index: int, batch: MessageBatch, live) -> bool:
        """Whether a partition or a down receiver blocks ``batch``."""
        return self.plan.link_blocked(
            pass_index, batch.sender_peer, batch.receiver_peer
        ) or not live[batch.receiver_peer]

    def _attempt(self, pass_index: int, flight: Flight, live) -> None:
        """One transmission attempt: consult the plan, deliver or lose."""
        batch = flight.batch
        self.pass_attempts += 1
        delays = self.plan.send_copies(
            pass_index, batch.sender_peer, batch.receiver_peer, len(batch), self.stats
        )
        for delay in delays:
            if delay > 0:
                heapq.heappush(
                    self._delayed,
                    (pass_index + delay, self._delay_seq, flight, flight.attempts),
                )
                self._delay_seq += 1
            else:
                self._deliver_copy(pass_index, flight, flight.attempts, live)

    def _deliver_copy(self, pass_index: int, flight: Flight, attempt: int, live) -> None:
        """One copy of a batch arrives at the receiver's doorstep."""
        batch = flight.batch
        if not live[batch.receiver_peer]:
            # Receiver down (churn or crash): the copy is lost on the
            # floor; the retry machinery will try again later.
            return
        applied = self._deliver(batch)
        self.pass_delivered += len(batch)
        if attempt > 1:
            self.pass_resent += len(batch)
        if flight.delivered_once:
            self.stats.redeliveries_suppressed += len(batch) - applied
        flight.delivered_once = True
        # The receiver acknowledges; the ack can be lost too.
        if flight.flight_id in self._table:
            self.stats.acks_sent += 1
            if self.plan.roll_ack_drop(pass_index):
                self.stats.acks_dropped += 1
            else:
                self._table.ack(flight.flight_id)

    def _park(self, batch: MessageBatch, pass_index: int, live) -> None:
        """Retry budget exhausted: park the batch into store-and-resend
        (§3.1) — if its link heals or its receiver returns, it
        relaunches."""
        self.stats.abandoned_updates += len(batch)
        self._parked[self._next_park] = _Parked(
            batch, self._blocked(pass_index, batch, live)
        )
        self._next_park += 1
        self.stats.parked_updates += len(batch)
