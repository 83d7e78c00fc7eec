"""Pluggable message transports for the concurrent peer runtime.

The runtime's peers exchange exactly the wire messages the rest of the
repo prices — :class:`~repro.p2p.messages.MessageBatch` payloads of
24-byte :class:`~repro.p2p.messages.PagerankUpdate`\\ s plus
:class:`~repro.p2p.messages.BatchAck` acknowledgements (paper §4.6.1;
docs/PROTOCOL.md §2, §13) — wrapped in an :class:`Envelope` carrying
transport metadata (flight id, attempt number, timestamps).

Two transports ship:

* :class:`InMemoryTransport` — a seeded, latency-modelled delivery
  queue ordered by ``(deliver_time, sequence)``.  Deterministic given
  its seed and the runtime's call order; this is what the differential
  tests and the benchmark harness drive.  Message loss, duplication,
  delay and partitions come from the same seeded
  :class:`~repro.faults.plan.FaultPlan` oracle the pass-based engines
  use, and absent receivers (churn) hold deliveries until the peer
  returns — the §3.1 store-and-resend rule in continuous time.
* :class:`~repro.runtime.tcp.TcpTransport` — the same envelopes as
  JSON lines over localhost TCP sockets (:func:`encode_envelope` /
  :func:`decode_envelope`), for free-running real-clock mode.

Both implement the small :class:`Transport` interface so the runtime
and its tests treat them interchangeably.  The in-memory transport's
latency models (:class:`FixedLatency`, :class:`UniformLatency`,
:class:`ExponentialLatency`) and continuous-time churn schedule
(:class:`OnOffSchedule`) live here too.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro._util import as_generator, check_positive
from repro._util.rng import SeedLike
from repro.faults.plan import FaultPlan
from repro.faults.transport import FaultStats
from repro.p2p.messages import BatchAck, MessageBatch, PagerankUpdate

__all__ = [
    "Envelope",
    "Transport",
    "InMemoryTransport",
    "FixedLatency",
    "UniformLatency",
    "ExponentialLatency",
    "OnOffSchedule",
    "encode_envelope",
    "decode_envelope",
]

#: Latency model signature: ``(rng, src_peer, dst_peer) -> time units``.
LatencyModel = Callable[[np.random.Generator, int, int], float]


# ----------------------------------------------------------------------
# Latency models and continuous-time availability (in-memory transport).
# ----------------------------------------------------------------------
class FixedLatency:
    """Constant network latency between any pair of peers."""

    def __init__(self, latency: float) -> None:
        check_positive("latency", latency, strict=False)
        self.latency = float(latency)

    def __call__(self, rng: np.random.Generator, src_peer: int, dst_peer: int) -> float:
        return self.latency


class UniformLatency:
    """Latency uniform in ``[low, high]`` — the simplest jitter model."""

    def __init__(self, low: float, high: float) -> None:
        check_positive("low", low, strict=False)
        if high < low:
            raise ValueError(f"high must be >= low, got low={low}, high={high}")
        self.low = float(low)
        self.high = float(high)

    def __call__(self, rng: np.random.Generator, src_peer: int, dst_peer: int) -> float:
        return float(rng.uniform(self.low, self.high))


class ExponentialLatency:
    """Heavy-ish tailed latency with the given mean (memoryless model,
    a common stand-in for wide-area P2P delivery times)."""

    def __init__(self, mean: float) -> None:
        check_positive("mean", mean)
        self.mean = float(mean)

    def __call__(self, rng: np.random.Generator, src_peer: int, dst_peer: int) -> float:
        return float(rng.exponential(self.mean))


class OnOffSchedule:
    """Continuous-time peer availability: alternating up/down spells.

    The pass engines model churn per pass (§3.1/§4.3); the runtime's
    virtual clock needs availability over continuous time.  Each peer
    alternates exponentially-distributed up and down spells; a message
    arriving during a down spell is held and delivered when the peer
    returns (the §3.1 store-and-resend behaviour, expressed as delayed
    delivery).

    Parameters
    ----------
    num_peers:
        Peer population.
    mean_up, mean_down:
        Mean spell lengths (stationary availability is
        ``mean_up / (mean_up + mean_down)``).
    horizon:
        Schedules are materialised up to this virtual time; peers are
        considered permanently up afterwards (runs should quiesce well
        before it).
    seed:
        Deterministic seed.
    """

    def __init__(
        self,
        num_peers: int,
        *,
        mean_up: float = 20.0,
        mean_down: float = 5.0,
        horizon: float = 10_000.0,
        seed: SeedLike = None,
    ) -> None:
        if num_peers < 1:
            raise ValueError(f"num_peers must be >= 1, got {num_peers}")
        check_positive("mean_up", mean_up)
        check_positive("mean_down", mean_down)
        check_positive("horizon", horizon)
        rng = as_generator(seed)
        self.num_peers = num_peers
        self.mean_up = float(mean_up)
        self.mean_down = float(mean_down)
        self.horizon = float(horizon)
        #: per peer: sorted list of (down_start, down_end) intervals
        self._downtimes: List[List[tuple]] = []
        for _ in range(num_peers):
            t = float(rng.exponential(mean_up))  # first down spell start
            spans = []
            while t < horizon:
                d = float(rng.exponential(mean_down))
                spans.append((t, t + d))
                t += d + float(rng.exponential(mean_up))
            self._downtimes.append(spans)

    @property
    def stationary_availability(self) -> float:
        return self.mean_up / (self.mean_up + self.mean_down)

    def is_up(self, peer: int, t: float) -> bool:
        """Whether ``peer`` is present at virtual time ``t``."""
        return self.next_up(peer, t) == t

    def next_up(self, peer: int, t: float) -> float:
        """Earliest time >= ``t`` at which ``peer`` is present."""
        if not 0 <= peer < self.num_peers:
            raise IndexError(f"peer {peer} out of range")
        for start, end in self._downtimes[peer]:
            if t < start:
                return t
            if t < end:
                return end
        return t


KIND_BATCH = "batch"
KIND_ACK = "ack"


@dataclass(frozen=True)
class Envelope:
    """One transport-level transfer: a batch flight copy or an ack.

    Attributes
    ----------
    kind:
        ``"batch"`` or ``"ack"``.
    sender, receiver:
        Peer endpoints (for an ack, ``sender`` is the acknowledging
        receiver of the original batch).
    payload:
        The wire message — :class:`~repro.p2p.messages.MessageBatch`
        or :class:`~repro.p2p.messages.BatchAck`.
    flight_id:
        The reliability layer's transfer id (docs/PROTOCOL.md §13).
    attempt:
        1-based transmission attempt of the flight this copy belongs
        to (> 1 means it is a retransmit).
    send_time:
        Clock reading at submission.
    """

    kind: str
    sender: int
    receiver: int
    payload: Union[MessageBatch, BatchAck]
    flight_id: int
    attempt: int = 1
    send_time: float = 0.0

    @property
    def size_bytes(self) -> int:
        """Priced wire size of the payload (paper's 24-byte accounting)."""
        return self.payload.size_bytes


class Transport:
    """Interface every runtime transport implements.

    ``connect`` registers a peer's mailbox; ``send_batch`` /
    ``send_ack`` submit wire messages.  Lifecycle hooks are async
    no-ops by default (the TCP transport overrides them to run its
    socket machinery).
    """

    def connect(self, peer_id: int, mailbox) -> None:
        raise NotImplementedError

    def send_batch(
        self, batch: MessageBatch, *, flight_id: int, attempt: int, now: float
    ) -> None:
        raise NotImplementedError

    def send_ack(self, ack: BatchAck, *, now: float) -> None:
        raise NotImplementedError

    async def start(self) -> None:
        """Bring up transport machinery (sockets, pumps)."""

    async def stop(self) -> None:
        """Tear down transport machinery."""


class InMemoryTransport(Transport):
    """Seeded in-process delivery queue (deterministic scheduler mode).

    Every submitted envelope is scheduled at ``now + latency`` and
    delivered in ``(deliver_time, sequence)`` order when the runtime
    calls :meth:`deliver_due` — the total order that makes a
    virtual-clock run reproducible.

    Parameters
    ----------
    latency:
        Cross-peer latency model ``(rng, src, dst) -> time units``;
        must be strictly positive (zero latency would let a round feed
        itself).  Defaults to ``FixedLatency(1.0)``.
    faults:
        Optional seeded :class:`~repro.faults.plan.FaultPlan`; each send's
        fate comes from its ``send_copies``, as in the pass engines, and
        is tallied in ``stats``.  Crash schedules are the supervisor's.
    availability:
        Optional :class:`OnOffSchedule`.  A
        delivery addressed to a peer in a down spell is held and
        re-scheduled for the peer's return (§3.1 store-and-resend).
    pass_time:
        Time units corresponding to one pass of the pass-based
        engines; scales the plan's pass-denominated delays and
        partition spells onto the runtime's clock.
    seed:
        Seed for latency sampling.
    tiebreak:
        Optional bijective key over the submission sequence number,
        controlling the delivery order of envelopes due at the *same*
        virtual time (the interleaving explorer's perturbation hook —
        see :func:`repro.sanitize.explorer.perturbation`).  ``None``
        keeps plain submission order.
    """

    def __init__(
        self,
        *,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultPlan] = None,
        availability: Optional[OnOffSchedule] = None,
        pass_time: float = 1.0,
        seed: SeedLike = None,
        tiebreak: Optional[Callable[[int], int]] = None,
    ) -> None:
        if pass_time <= 0:
            raise ValueError(f"pass_time must be > 0, got {pass_time}")
        self.latency: LatencyModel = latency if latency is not None else FixedLatency(1.0)
        self.faults = faults
        self.availability = availability
        self.pass_time = float(pass_time)
        self._rng = as_generator(seed)
        self._tiebreak = tiebreak
        #: Optional :class:`repro.sanitize.hb.RuntimeSanitizer` — when
        #: set, every scheduled envelope is stamped with the sender's
        #: vector clock (happens-before message edges).
        self.sanitizer = None
        self._mailboxes: Dict[int, object] = {}
        # (deliver_time, tiebreak key, sequence, envelope) — the total
        # delivery order.  The key equals the sequence unless a
        # perturbation is installed; both are unique, so envelopes are
        # never compared.
        self._heap: List[Tuple[float, int, int, Envelope]] = []
        self._seq = 0
        # Crashed peers (supervisor-managed): deliveries to them are
        # parked here until the peer restarts (docs/PROTOCOL.md §15.4).
        self._down: set = set()
        self._parked_down: Dict[int, List[Envelope]] = {}
        #: Injected-fault tallies, in the pass engines' vocabulary
        #: (drops, duplicates, delays, partition blocks, ack drops).
        self.stats = FaultStats()
        # Plain counters the runtime folds into its report/metrics.
        self.deferred_deliveries = 0
        self.delivered_messages = 0

    # ------------------------------------------------------------------
    def connect(self, peer_id: int, mailbox) -> None:
        self._mailboxes[int(peer_id)] = mailbox

    @property
    def pending(self) -> int:
        """Envelopes scheduled or parked but not yet delivered."""
        return len(self._heap) + sum(
            len(v) for v in self._parked_down.values()
        )

    # ------------------------------------------------------------------
    # Crash-recovery hooks (docs/PROTOCOL.md §15.4)
    # ------------------------------------------------------------------
    def set_down(self, peer_id: int) -> None:
        """Mark a peer crashed: due deliveries to it are parked, not
        fed to its (dead) mailbox."""
        self._down.add(int(peer_id))

    def clear_down(self, peer_id: int, now: float) -> int:
        """Mark a peer restarted and reschedule its parked envelopes
        for immediate delivery (at ``now``, preserving park order).
        Returns the number of envelopes released."""
        peer_id = int(peer_id)
        self._down.discard(peer_id)
        parked = self._parked_down.pop(peer_id, [])
        for envelope in parked:
            self._schedule(now, envelope)
        return len(parked)

    def next_due(self) -> Optional[float]:
        """Deliver time of the earliest scheduled envelope."""
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------------
    def _pass_index(self, now: float) -> int:
        return int(now / self.pass_time)

    def _schedule(self, when: float, envelope: Envelope) -> None:
        key = self._seq if self._tiebreak is None else self._tiebreak(self._seq)
        if self.sanitizer is not None:
            self.sanitizer.stamp(envelope)
        heapq.heappush(self._heap, (when, key, self._seq, envelope))
        self._seq += 1

    def _draw_latency(self, sender: int, receiver: int) -> float:
        lat = float(self.latency(self._rng, sender, receiver))
        if lat <= 0:
            raise ValueError("transport latency must be strictly positive")
        return lat

    def send_batch(
        self, batch: MessageBatch, *, flight_id: int, attempt: int, now: float
    ) -> None:
        """Submit one batch flight copy, consulting the fault plan."""
        delays: Tuple[int, ...] = (0,)
        if self.faults is not None:
            delays = self.faults.send_copies(
                self._pass_index(now),
                batch.sender_peer,
                batch.receiver_peer,
                len(batch),
                self.stats,
            )
        for extra in delays:
            when = now + self._draw_latency(batch.sender_peer, batch.receiver_peer)
            if extra > 0:
                when += extra * self.pass_time
            self._schedule(
                when,
                Envelope(
                    kind=KIND_BATCH,
                    sender=batch.sender_peer,
                    receiver=batch.receiver_peer,
                    payload=batch,
                    flight_id=flight_id,
                    attempt=attempt,
                    send_time=now,
                ),
            )

    def send_ack(self, ack: BatchAck, *, now: float) -> None:
        """Submit one acknowledgement (acks travel the same lossy links)."""
        if self.faults is not None and self.faults.roll_ack_drop(
            self._pass_index(now)
        ):
            self.stats.acks_dropped += 1
            return
        when = now + self._draw_latency(ack.sender_peer, ack.receiver_peer)
        self._schedule(
            when,
            Envelope(
                kind=KIND_ACK,
                sender=ack.sender_peer,
                receiver=ack.receiver_peer,
                payload=ack,
                flight_id=ack.flight_id,
                send_time=now,
            ),
        )

    def deliver_due(self, now: float) -> int:
        """Move every envelope due at or before ``now`` into its
        receiver's mailbox, in ``(deliver_time, sequence)`` order.

        Returns the number of envelopes delivered.  A receiver in a
        down spell holds the delivery until its return instead
        (continuous-time §3.1 store-and-resend).
        """
        delivered = 0
        while self._heap and self._heap[0][0] <= now:
            when, _, _, envelope = heapq.heappop(self._heap)
            if envelope.receiver in self._down:
                self._parked_down.setdefault(envelope.receiver, []).append(
                    envelope
                )
                continue
            if self.availability is not None:
                up_at = self.availability.next_up(envelope.receiver, when)
                if up_at > now:
                    self.deferred_deliveries += 1
                    self._schedule(up_at, envelope)
                    continue
            mailbox = self._mailboxes.get(envelope.receiver)
            if mailbox is None:
                raise KeyError(f"no mailbox connected for peer {envelope.receiver}")
            if envelope.kind == KIND_BATCH:
                self.delivered_messages += len(envelope.payload)
            mailbox.put(envelope)
            delivered += 1
        return delivered


# ----------------------------------------------------------------------
# Wire codec (JSON lines) — used by the local TCP transport.
# ----------------------------------------------------------------------
def encode_envelope(envelope: Envelope) -> bytes:
    """Serialise an envelope as one JSON line (newline-terminated)."""
    if envelope.kind == KIND_BATCH:
        body = {
            "kind": KIND_BATCH,
            "sender": envelope.sender,
            "receiver": envelope.receiver,
            "fid": envelope.flight_id,
            "attempt": envelope.attempt,
            "t": envelope.send_time,
            "updates": [
                [u.target_doc, u.source_doc, u.value, u.version]
                for u in envelope.payload.updates
            ],
        }
    else:
        body = {
            "kind": KIND_ACK,
            "sender": envelope.sender,
            "receiver": envelope.receiver,
            "fid": envelope.flight_id,
            "t": envelope.send_time,
        }
    return (json.dumps(body, separators=(",", ":")) + "\n").encode("utf-8")


def decode_envelope(line: bytes) -> Envelope:
    """Parse one JSON line back into an :class:`Envelope`."""
    body = json.loads(line)
    kind = body["kind"]
    if kind == KIND_BATCH:
        batch = MessageBatch(
            sender_peer=int(body["sender"]),
            receiver_peer=int(body["receiver"]),
            updates=[
                PagerankUpdate(
                    target_doc=int(t), source_doc=int(s), value=float(v),
                    version=int(ver),
                )
                for t, s, v, ver in body["updates"]
            ],
        )
        return Envelope(
            kind=KIND_BATCH,
            sender=int(body["sender"]),
            receiver=int(body["receiver"]),
            payload=batch,
            flight_id=int(body["fid"]),
            attempt=int(body.get("attempt", 1)),
            send_time=float(body.get("t", 0.0)),
        )
    if kind == KIND_ACK:
        ack = BatchAck(
            flight_id=int(body["fid"]),
            sender_peer=int(body["sender"]),
            receiver_peer=int(body["receiver"]),
        )
        return Envelope(
            kind=KIND_ACK,
            sender=int(body["sender"]),
            receiver=int(body["receiver"]),
            payload=ack,
            flight_id=int(body["fid"]),
            send_time=float(body.get("t", 0.0)),
        )
    raise ValueError(f"unknown envelope kind {kind!r}")
