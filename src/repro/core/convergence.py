"""Per-pass convergence bookkeeping for the distributed engines.

The paper reports several quantities per run — passes to convergence
(Table 1), message totals (Table 3), and error-versus-reference
distributions (Table 2).  :class:`ConvergenceTracker` is the one place
a pass engine records a pass: it keeps the per-pass series every
experiment reads, updates the engine's shared per-pass instruments,
emits the engine's ``<engine>.pass`` trace event, and applies the
all-peers-down rule (docs/PROTOCOL.md §13.4).  :class:`PassStats` and
:class:`RunReport` are the frozen result types the engines hand back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.obs import NULL_REGISTRY, get_trace_sink

if TYPE_CHECKING:
    from repro.core.distributed import AvailabilityModel

__all__ = [
    "PassStats",
    "RunReport",
    "PassInstruments",
    "ConvergenceTracker",
    "sample_live",
]


@dataclass(frozen=True)
class PassStats:
    """Statistics of a single simulation pass.

    Every pass engine fills these fields with the same meaning, so the
    vectorized engine, the protocol simulator and the sharded engine
    produce equal histories on equal inputs.  A pass with zero live
    peers (skipped, see :meth:`ConvergenceTracker.dead_pass`) records
    zeros everywhere except ``pass_index`` and ``deferred_messages``.

    Attributes
    ----------
    pass_index:
        0-based pass number.
    max_rel_change:
        Maximum per-document relative change among documents that
        recomputed this pass (the paper's convergence measure).
    active_documents:
        Documents whose change exceeded ε and therefore sent updates.
    messages:
        Network (cross-peer) update messages generated this pass,
        including store-and-resend deliveries.
    deferred_messages:
        Stored updates still outstanding at the end of the pass: held
        at senders for absent receivers (§3.1), or, under a fault
        plan, awaiting retransmission or acknowledgement.
    live_peers:
        Number of peers present during the pass.
    computed_documents:
        Documents that recomputed (i.e. reside on live peers).
    resent_messages:
        Of ``messages``, the store-and-resend deliveries of updates
        stored in earlier passes.
    """

    pass_index: int
    max_rel_change: float
    active_documents: int
    messages: int
    deferred_messages: int
    live_peers: int
    computed_documents: int
    resent_messages: int = 0


@dataclass(frozen=True)
class RunReport:
    """Aggregate outcome of a distributed pagerank run.

    Attributes
    ----------
    ranks:
        Final per-document ranks (``R_d`` in the paper's notation).
    passes:
        Passes executed until convergence (or budget exhaustion).
    converged:
        True if the strong criterion held: a pass in which every
        computed document changed by less than ε and no stored updates
        remained undelivered.
    total_messages:
        Total cross-peer update messages over the whole run.
    history:
        Per-pass statistics (empty if tracking was disabled).
    epsilon:
        The convergence threshold the run used.
    diagnostics:
        ``None`` for a normal run.  When a faulted run is aborted by
        the residual-stagnation detector this carries the
        :class:`repro.faults.FaultDiagnostics` report (black-holed
        links, undelivered update mass) explaining *why* convergence
        was unreachable.
    """

    ranks: np.ndarray
    passes: int
    converged: bool
    total_messages: int
    history: tuple
    epsilon: float
    diagnostics: Optional[object] = None

    @property
    def messages_per_document(self) -> float:
        """Average update messages per document (Table 3's per-node
        metric, which the paper uses as its size-independent measure)."""
        n = self.ranks.size
        return self.total_messages / n if n else 0.0

    def messages_by_pass(self) -> np.ndarray:
        """Per-pass message counts as an array (empty if untracked)."""
        return np.array([p.messages for p in self.history], dtype=np.int64)

    def max_change_by_pass(self) -> np.ndarray:
        """Per-pass max relative change (empty if untracked)."""
        return np.array([p.max_rel_change for p in self.history], dtype=np.float64)

    def bytes_by_pass(self, *, message_size_bytes: int = 24) -> np.ndarray:
        """Per-pass network bytes under the paper's 24-byte message
        accounting (empty if untracked) — the bandwidth-over-time
        series the §4.6.1 transfer model consumes."""
        return self.messages_by_pass() * int(message_size_bytes)


class PassInstruments:
    """The registry handles :class:`ConvergenceTracker` updates per pass.

    Each pass engine subclasses this, registers its own ``<engine>.*``
    names as string literals (the metrics catalogue lint reads them)
    and names its per-pass trace event in :attr:`event`.  A handle the
    engine does not register stays the registry's shared no-op, and an
    ``event`` of ``None`` emits no trace event.
    """

    __slots__ = (
        "passes",
        "messages",
        "resent",
        "residual",
        "active",
        "live_peers",
        "store_depth",
        "dead_passes",
    )

    #: Name of the per-pass trace event, e.g. ``"core.pass"``.
    event: Optional[str] = None

    def __init__(self) -> None:
        null = NULL_REGISTRY
        self.passes = null.counter("passes")
        self.messages = null.counter("messages")
        self.resent = null.counter("resent")
        self.residual = null.gauge("residual")
        self.active = null.gauge("active")
        self.live_peers = null.gauge("live_peers")
        self.store_depth = null.histogram("store_depth")
        self.dead_passes = null.counter("dead_passes")


class ConvergenceTracker:
    """The one per-pass record of a pass engine; converts to the
    immutable :class:`RunReport` at the end.

    The engine calls :meth:`record` once per executed pass and
    :meth:`dead_pass` once per pass with zero live peers.  Both keep
    the totals and the history, update the engine's
    :class:`PassInstruments` and, when a trace sink is attached, emit
    one ``instruments.event`` whose fields are the :class:`PassStats`
    fields — so the event count always equals ``report.passes``.

    Parameters
    ----------
    epsilon:
        Convergence threshold, recorded in the report.
    keep_history:
        When false, only totals are kept (saves memory on
        multi-thousand-pass full-scale runs).
    instruments:
        The engine's per-pass registry handles (all no-ops by default).
    max_dead_passes:
        Consecutive zero-live passes after which :meth:`dead_pass`
        raises ``RuntimeError`` instead of letting the run stall.
    """

    def __init__(
        self,
        epsilon: float,
        *,
        keep_history: bool = True,
        instruments: Optional[PassInstruments] = None,
        max_dead_passes: int = 50,
    ) -> None:
        if max_dead_passes < 1:
            raise ValueError(
                f"max_dead_passes must be >= 1, got {max_dead_passes}"
            )
        self.epsilon = float(epsilon)
        self.keep_history = keep_history
        self.max_dead_passes = int(max_dead_passes)
        self.total_messages = 0
        self.passes = 0
        self._history: List[PassStats] = []
        self._obs = instruments if instruments is not None else PassInstruments()
        self._sink = get_trace_sink()
        self._dead_streak = 0

    def record(self, stats: PassStats) -> None:
        """Add one executed pass's statistics."""
        self._dead_streak = 0
        obs = self._obs
        obs.messages.inc(stats.messages)
        obs.resent.inc(stats.resent_messages)
        obs.residual.set(stats.max_rel_change)
        obs.active.set(stats.active_documents)
        obs.store_depth.observe(stats.deferred_messages)
        self._add(stats)

    def dead_pass(self, pass_index: int, deferred: int) -> None:
        """Record a pass skipped because zero peers were live.

        Nothing computes or exchanges, so the pass is never evaluated
        for convergence (an empty network is vacuously quiescent);
        ``deferred`` is the stored-update backlog it carries over.
        Raises ``RuntimeError`` on the ``max_dead_passes``-th
        consecutive dead pass.
        """
        self._dead_streak += 1
        self._obs.dead_passes.inc()
        self._add(PassStats(pass_index, 0.0, 0, 0, deferred, 0, 0))
        if self._dead_streak >= self.max_dead_passes:
            raise RuntimeError(
                f"no live peers for {self._dead_streak} consecutive "
                f"passes (pass {pass_index}); the availability model "
                "starves the computation — raise availability or "
                "max_dead_passes"
            )

    def _add(self, stats: PassStats) -> None:
        self.passes += 1
        self.total_messages += stats.messages
        if self.keep_history:
            self._history.append(stats)
        obs = self._obs
        obs.passes.inc()
        obs.live_peers.set(stats.live_peers)
        if obs.event is not None and self._sink.enabled:
            self._sink.event(
                obs.event,
                pass_index=stats.pass_index,
                residual=stats.max_rel_change,
                active_documents=stats.active_documents,
                messages=stats.messages,
                deferred=stats.deferred_messages,
                resent=stats.resent_messages,
                live_peers=stats.live_peers,
                computed_documents=stats.computed_documents,
            )

    def finish(
        self, ranks: np.ndarray, converged: bool, diagnostics: object = None
    ) -> RunReport:
        """Freeze into a :class:`RunReport`."""
        return RunReport(
            ranks=ranks,
            passes=self.passes,
            converged=converged,
            total_messages=self.total_messages,
            history=tuple(self._history),
            epsilon=self.epsilon,
            diagnostics=diagnostics,
        )


def sample_live(
    availability: Optional[AvailabilityModel], pass_index: int, num_peers: int
) -> np.ndarray:
    """Peers present during ``pass_index`` as a boolean mask of shape
    ``(num_peers,)``; ``None`` means every peer is always present."""
    if availability is None:
        return np.ones(num_peers, dtype=bool)
    live = np.asarray(availability.sample(pass_index), dtype=bool)
    if live.shape != (num_peers,):
        raise ValueError(
            f"availability.sample must return shape ({num_peers},), "
            f"got {live.shape}"
        )
    return live
