"""Crash scheduling, suspicion tracking, and restart supervision.

Glue between the fault plan, the failure detector, and the runtime:
the :class:`Supervisor` owns the deterministic crash timeline (from
:meth:`repro.faults.plan.FaultPlan.crash_events`, scaled by the run's
``pass_time``), tracks which peers are down, decides *when* a restart
may fire — only after the detector has suspected the peer **and** the
scheduled down-spell has elapsed — and feeds the scheduler the exact
times it must visit so detection latency and downtime are part of the
reproducible VirtualClock timeline (docs/PROTOCOL.md §15.3–§15.4).

The actual crash/restart mechanics (wiping volatile state, WAL replay,
re-publish anti-entropy) live in
:class:`~repro.runtime.runtime.AsyncPeerRuntime`; the supervisor is
pure bookkeeping so it can be unit-tested without an event loop.
``recovery.*`` metrics (docs/OBSERVABILITY.md §10) are emitted here
and by the soak harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import get_registry
from repro.recovery.detector import HeartbeatFailureDetector

__all__ = ["RecoveryConfig", "Supervisor"]


class _RecoveryInstruments:
    """Registry handles for the recovery subsystem's emissions
    (no-op singletons under the default disabled registry).
    Catalogued in docs/OBSERVABILITY.md §10."""

    __slots__ = (
        "wal_records", "snapshots", "replayed", "crashes", "restarts",
        "suspicions", "false_suspicions", "state_loss", "republished",
        "healed", "parked", "detection_delay", "downtime", "violations",
    )

    def __init__(self, reg) -> None:
        self.wal_records = reg.counter(
            "recovery.wal_records", unit="records",
            description="durable mutations appended to peer WALs",
        )
        self.snapshots = reg.counter(
            "recovery.snapshots", unit="snapshots",
            description="compaction snapshots captured (WAL truncations)",
        )
        self.replayed = reg.counter(
            "recovery.wal_replayed_records", unit="records",
            description="WAL records re-applied during restart replays",
        )
        self.crashes = reg.counter(
            "recovery.crashes", unit="crashes",
            description="peer crashes applied by the supervisor",
        )
        self.restarts = reg.counter(
            "recovery.restarts", unit="restarts",
            description="supervised peer restarts from WAL+snapshot",
        )
        self.suspicions = reg.counter(
            "recovery.suspicions", unit="peers",
            description="down peers flagged by the failure detector",
        )
        self.false_suspicions = reg.counter(
            "recovery.false_suspicions", unit="peers",
            description="live peers the detector wrongly suspected",
        )
        self.state_loss = reg.counter(
            "recovery.state_loss", unit="crashes",
            description="crashes where replay failed the bitwise check",
        )
        self.republished = reg.counter(
            "recovery.republished_updates", unit="messages",
            description="anti-entropy updates re-published around restarts",
        )
        self.healed = reg.counter(
            "recovery.abandoned_healed", unit="messages",
            description="abandoned updates forgiven after a restart re-publish",
        )
        self.parked = reg.counter(
            "recovery.parked_deliveries", unit="envelopes",
            description="envelopes parked for down peers and redelivered",
        )
        self.detection_delay = reg.histogram(
            "recovery.detection_delay", unit="time",
            description="crash-to-suspicion latency per detected crash",
        )
        self.downtime = reg.histogram(
            "recovery.downtime", unit="time",
            description="crash-to-restart duration per recovered peer",
        )
        self.violations = reg.counter(
            "recovery.soak_violations", unit="violations",
            description="invariant violations recorded by the soak harness",
        )


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables for the durable-state and self-healing layer.

    Attributes
    ----------
    snapshot_interval:
        WAL records between compaction snapshots
        (docs/PROTOCOL.md §15.2).
    heartbeat_timeout_passes:
        Failure-detector hard timeout, in pass-time units.
    phi_threshold:
        Optional phi-accrual suspicion threshold (None = hard timeout
        only; docs/PROTOCOL.md §15.3).
    neighbor_republish:
        After a restart, have live peers re-publish their current
        values toward the recovered peer and forgive abandoned flights
        (anti-entropy catch-up, docs/PROTOCOL.md §15.4).
    verify_replay_on_crash:
        At every crash, check that WAL+snapshot replay reproduces the
        crashed peer's durable state bitwise (cheap; the §15.1
        invariant — failures count into ``recovery.state_loss``).
    wal_dir:
        Optional directory for file-backed WAL mirrors (one JSONL file
        per peer); None keeps logs in memory.
    """

    snapshot_interval: int = 256
    heartbeat_timeout_passes: float = 2.0
    phi_threshold: Optional[float] = None
    neighbor_republish: bool = True
    verify_replay_on_crash: bool = True
    wal_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.snapshot_interval < 1:
            raise ValueError(
                f"snapshot_interval must be >= 1, got {self.snapshot_interval}"
            )
        if self.heartbeat_timeout_passes <= 0:
            raise ValueError(
                "heartbeat_timeout_passes must be positive, got "
                f"{self.heartbeat_timeout_passes}"
            )


class Supervisor:
    """Deterministic crash/restart bookkeeping for the runtime.

    Parameters
    ----------
    num_peers:
        Peers under supervision.
    crash_events:
        ``(pass_index, peer, down_passes)`` tuples (see
        :meth:`repro.faults.plan.FaultPlan.crash_events`); the crash
        fires at ``pass_index * pass_time`` and the peer becomes
        *eligible* to restart ``down_passes`` passes later — the
        restart itself still waits for the failure detector.
    pass_time:
        Virtual-clock duration of one pass (scales pass-indexed
        schedules into clock time).
    config:
        Recovery tunables (detector timeout, phi threshold).
    """

    def __init__(
        self,
        num_peers: int,
        crash_events: Sequence[Tuple[int, int, int]],
        *,
        pass_time: float,
        config: Optional[RecoveryConfig] = None,
    ) -> None:
        self.num_peers = num_peers
        self.pass_time = float(pass_time)
        self.config = config if config is not None else RecoveryConfig()
        self.detector = HeartbeatFailureDetector(
            num_peers,
            timeout=self.config.heartbeat_timeout_passes * self.pass_time,
            phi_threshold=self.config.phi_threshold,
        )
        self.instruments = _RecoveryInstruments(get_registry())
        # Pending crash schedule, soonest first.
        self._schedule: List[Tuple[float, int, float]] = sorted(
            (
                (t * self.pass_time, int(peer), down * self.pass_time)
                for t, peer, down in crash_events
            ),
        )
        for _, peer, _ in self._schedule:
            if not 0 <= peer < num_peers:
                raise ValueError(f"crash schedules unknown peer {peer}")
        self._down: Dict[int, Dict[str, Optional[float]]] = {}
        #: Completed (peer, crashed_at, restarted_at) triples.
        self.history: List[Tuple[int, float, float]] = []
        self.crashes_applied = 0
        self.restarts_applied = 0

    # ------------------------------------------------------------------
    def is_down(self, peer: int) -> bool:
        return peer in self._down

    @property
    def down_peers(self) -> Tuple[int, ...]:
        return tuple(sorted(self._down))

    @property
    def pending_crashes(self) -> int:
        return len(self._schedule)

    @property
    def idle(self) -> bool:
        """True when no crash is scheduled and nobody is down."""
        return not self._schedule and not self._down

    # ------------------------------------------------------------------
    def crashes_due(self, now: float) -> List[int]:
        """Pop and return peers whose crash time has arrived.

        A peer already down keeps its original record (overlapping
        schedule entries collapse into the first spell).
        """
        due: List[int] = []
        while self._schedule and self._schedule[0][0] <= now:
            _, peer, down_for = self._schedule.pop(0)
            if peer in self._down:
                continue
            self._down[peer] = {
                "crashed_at": now,
                "up_time": now + down_for,
                "detected_at": None,
            }
            due.append(peer)
        return due

    def mark_crashed(self, peer: int, now: float, *, down_for: float) -> None:
        """Record an unscheduled crash (used by tests and soak chaos)."""
        if peer in self._down:
            return
        self._down[peer] = {
            "crashed_at": now,
            "up_time": now + down_for,
            "detected_at": None,
        }

    def note_crash_applied(self, peer: int) -> None:
        """Count a crash the runtime has mechanically applied.  The
        detector keeps the peer's last heartbeat: suspicion must accrue
        from the silence that *follows* the crash."""
        self.crashes_applied += 1
        self.instruments.crashes.inc()

    # ------------------------------------------------------------------
    def observe(self, now: float) -> List[int]:
        """Run suspicion checks; returns newly suspected down peers.

        Live peers the detector suspects (slow, not dead) are counted
        as ``recovery.false_suspicions`` but never restarted.
        """
        newly: List[int] = []
        for peer in sorted(self._down):
            record = self._down[peer]
            if record["detected_at"] is None and self.detector.suspect(peer, now):
                record["detected_at"] = now
                crashed_at = record["crashed_at"]
                assert crashed_at is not None
                self.instruments.suspicions.inc()
                self.instruments.detection_delay.observe(now - crashed_at)
                newly.append(peer)
        for peer in range(self.num_peers):
            if peer not in self._down and self.detector.suspect(peer, now):
                self.instruments.false_suspicions.inc()
        return newly

    def restarts_due(self, now: float) -> List[int]:
        """Down peers whose restart may fire now: suspected by the
        detector *and* past their scheduled down spell."""
        due: List[int] = []
        for peer in sorted(self._down):
            record = self._down[peer]
            up_time = record["up_time"]
            assert up_time is not None
            if record["detected_at"] is not None and now >= up_time:
                due.append(peer)
        return due

    def mark_restarted(self, peer: int, now: float) -> None:
        record = self._down.pop(peer)
        crashed_at = record["crashed_at"]
        assert crashed_at is not None
        self.history.append((peer, crashed_at, now))
        self.restarts_applied += 1
        self.instruments.restarts.inc()
        self.instruments.downtime.observe(now - crashed_at)
        # Restarted peers heartbeat from 'now' on a fresh inter-arrival
        # window, so the phi estimator never sees the downtime gap.
        self.detector.forget(peer)
        self.detector.heartbeat(peer, now)

    # ------------------------------------------------------------------
    def next_event(self, now: float) -> Optional[float]:
        """Earliest future time the scheduler must visit on the
        supervisor's account: the next scheduled crash, a down peer's
        suspicion deadline, or a suspected peer's restart eligibility."""
        candidates: List[float] = []
        for t, _, _ in self._schedule:
            if t > now:
                candidates.append(t)
                break
        for peer in self._down:
            record = self._down[peer]
            up_time = record["up_time"]
            assert up_time is not None
            if record["detected_at"] is None:
                deadline = self.detector.deadline(peer)
                if deadline > now:
                    candidates.append(deadline)
            if up_time > now:
                candidates.append(up_time)
        future = [t for t in candidates if t > now]
        return min(future) if future else None
