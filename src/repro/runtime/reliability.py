"""Sender-side reliable delivery for the concurrent runtime.

Both engines share one ack/retry/abandon state machine,
:class:`repro.faults.transport.FlightTable` (docs/PROTOCOL.md §13.1,
§14.3).  A :class:`FlightTracker` on each
:class:`~repro.runtime.node.PeerNode` binds it to the runtime clock,
with ``pass_time`` clock units per pass, so a
:class:`~repro.faults.ReliabilityConfig` tuned for the simulator
behaves identically here.
"""

from __future__ import annotations

from typing import List, Optional

from repro.faults.transport import Flight, FlightTable, ReliabilityConfig
from repro.p2p.messages import BatchAck, MessageBatch

__all__ = ["FlightTracker"]


class FlightTracker:
    """One node's :class:`~repro.faults.transport.FlightTable` on the
    runtime clock (``pass_time`` clock units per pass)."""

    def __init__(self, config: ReliabilityConfig, *, pass_time: float = 1.0) -> None:
        if pass_time <= 0:
            raise ValueError(f"pass_time must be > 0, got {pass_time}")
        self.table = FlightTable(config, time_unit=float(pass_time))

    @property
    def unacked_flights(self) -> int:
        return self.table.unacked_flights

    @property
    def unacked_updates(self) -> int:
        return self.table.unacked_updates

    @property
    def undeliverable_updates(self) -> int:
        """Abandoned plus still-unacked updates (convergence blockers)."""
        return self.table.abandoned_updates + self.table.unacked_updates

    @property
    def retries(self) -> int:
        return self.table.retries

    @property
    def abandoned_updates(self) -> int:
        return self.table.abandoned_updates

    @property
    def abandoned_mass(self) -> float:
        return self.table.abandoned_mass

    def launch(self, batch: MessageBatch, now: float) -> Flight:
        """Register a freshly staged batch as a new flight."""
        return self.table.launch(batch, now)

    def on_ack(self, ack: BatchAck) -> bool:
        """Clear the acknowledged flight; False for a duplicate ack."""
        return self.table.ack(ack.flight_id)

    def due(self, now: float) -> List[Flight]:
        """Flights to retransmit at ``now`` (over-budget ones are abandoned)."""
        return self.table.due(now)[0]

    def next_due(self) -> Optional[float]:
        """Earliest retry/abandon deadline among unacked flights."""
        return self.table.next_due()

    def wipe(self) -> int:
        """Crash with state loss: drop every flight; returns the updates lost."""
        return self.table.wipe()

    def forgive(self, receiver: int) -> int:
        """Clear the ledger toward a re-published-to receiver (§15.4)."""
        return self.table.forgive(receiver=receiver)
