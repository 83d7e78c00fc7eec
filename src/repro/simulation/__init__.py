"""Simulation engines and cost models (paper §4.2, §4.6).

* :class:`~repro.simulation.engine.P2PPagerankSimulation` — the
  protocol-level pass simulator on explicit peer state machines;
* :mod:`~repro.simulation.timing` — Eq. 4 execution-time estimation
  and the §4.6.2 Internet-scale extrapolation.
"""

from repro.simulation.engine import P2PPagerankSimulation, TrafficSummary
from repro.simulation.timing import (
    RATE_32KBPS,
    RATE_200KBPS,
    RATE_T3,
    TransferModel,
    internet_scale_estimate,
    pass_time_parallel,
    total_time_serialized,
)

__all__ = [
    "P2PPagerankSimulation",
    "TrafficSummary",
    "TransferModel",
    "RATE_32KBPS",
    "RATE_200KBPS",
    "RATE_T3",
    "total_time_serialized",
    "pass_time_parallel",
    "internet_scale_estimate",
]
