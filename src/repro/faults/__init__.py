"""Deterministic fault injection and reliable delivery.

The paper argues the chaotic pagerank protocol tolerates the messy
realities of a P2P deployment (§3.1 store-and-resend, the §4.3
availability sweeps); this package makes that claim testable.
A seeded :class:`FaultPlan` is the single oracle for everything that can
go wrong on the wire — message drops, duplication, delay/reordering,
peer crashes with volatile-state loss, and transient link partitions —
while :class:`ReliableTransport` layers per-batch acknowledgements,
timeout/backoff retransmission, and a retry budget on top of the
protocol's update messages so the computation converges anyway.

Determinism is the design center: a plan draws every coin from one
seeded generator in engine call order, so the same seed replays the
same run, failure and all.  When delivery is genuinely impossible
(black-holed peers or links), :class:`StagnationDetector` aborts the
run with a :class:`FaultDiagnostics` report instead of burning the pass
budget in silence.

Entry points:

* :class:`FaultSpec` / :class:`Partition` — declarative fault mix.
* :class:`FaultPlan` — the seeded oracle engines consult.
* :class:`ReliabilityConfig` / :class:`ReliableTransport` — ack/retry
  delivery used by :class:`repro.simulation.engine.P2PPagerankSimulation`.
* :class:`FlightTable` / :class:`Flight` — the ack/retry/abandon state
  machine and abandonment ledger both engines drive.
* :func:`run_fault_experiment` — the `repro faults` Table-1-style
  convergence-under-loss sweep.
"""

from repro.faults.experiment import (
    FaultExperimentConfig,
    FaultExperimentResult,
    FaultTrial,
    run_fault_experiment,
)
from repro.faults.plan import FaultPlan, FaultSpec, Partition, SendFate
from repro.faults.transport import (
    FaultDiagnostics,
    FaultStats,
    Flight,
    FlightTable,
    ReliabilityConfig,
    ReliableTransport,
    StagnationDetector,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "Partition",
    "SendFate",
    "ReliabilityConfig",
    "Flight",
    "FlightTable",
    "ReliableTransport",
    "FaultStats",
    "StagnationDetector",
    "FaultDiagnostics",
    "FaultExperimentConfig",
    "FaultExperimentResult",
    "FaultTrial",
    "run_fault_experiment",
]
