"""Golden regression: both reliable-delivery paths must reproduce their
recorded runs exactly.

1. The protocol simulator over :class:`~repro.faults.ReliableTransport`
   with drop, duplication, delay, two healing partitions (one link,
   one black hole) and 75 % fixed-fraction churn.  The retry budget is
   small enough that flights are abandoned, parked and relaunched once
   their blockage clears; no peer crashes.
2. The asyncio peer runtime with the same fault mix, an on/off churn
   schedule and one supervised crash/restart of a peer that never
   abandons a flight.

Every engine on both paths is deterministic, so the fault tallies,
traffic counters and a hash of the final ranks are fixed numbers.  A
change to the ack/retry/abandon machinery, the fault-plan draw order or
the parking rule that moves any of them fails here.

When a change is *intentional*, rerun ``_simulate`` / ``_run_runtime``
and commit the new values together with the reason for the change.
"""

import asyncio
import dataclasses
import hashlib

import numpy as np

from repro.faults import FaultPlan, FaultSpec, Partition, ReliabilityConfig
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.p2p.churn import FixedFractionChurn
from repro.recovery import RecoveryConfig
from repro.runtime import AsyncPeerRuntime, OnOffSchedule
from repro.simulation.engine import P2PPagerankSimulation

SIM_FAULT_STATS = {
    "dropped_updates": 405,
    "duplicated_updates": 139,
    "delayed_updates": 374,
    "acks_sent": 962,
    "acks_dropped": 84,
    "retries": 690,
    "redeliveries_suppressed": 304,
    "partition_blocked_sends": 140,
    "abandoned_updates": 318,
    "parked_updates": 318,
    "parked_resent": 318,
    "crashes": 0,
    "crash_state_loss": 0,
    "reboot_republished": 0,
    "stagnation_aborts": 0,
}
#: converged, passes, total_messages, network_batches
SIM_COUNTERS = (True, 69, 2433, 1030)
SIM_RANK_DIGEST = "8dc73596bf36c50158f451fb0ffcaca2d3f8d2b1847b6e1d967e225904c07b67"

RUNTIME_COUNTERS = {
    "converged": True,
    "quiesced": True,
    "clock_time": 79.72129433805225,
    "rounds": 194,
    "messages": 1905,
    "batches": 824,
    "acks": 1227,
    "retries": 474,
    "recomputes": 1903,
    "redeliveries_suppressed": 1324,
    "abandoned_updates": 0,
    "deferred_deliveries": 346,
    "max_staleness": 0.0,
    "epsilon": 0.001,
    "mailbox_overflow": 0,
    "crashes": 1,
    "restarts": 1,
}
RUNTIME_RANK_DIGEST = (
    "bd1289e5bd886abf3a98f6ba1e08f62e542a4419b63d36440a6784707517d67f"
)


def _digest(ranks: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(ranks).tobytes()).hexdigest()


def _simulate():
    graph = broder_graph(200, seed=5)
    net = P2PNetwork(8, DocumentPlacement.random(200, 8, seed=6), build_ring=False)
    spec = FaultSpec(
        drop_rate=0.1,
        duplicate_rate=0.05,
        delay_rate=0.1,
        partitions=(Partition(1, 2, 2, 14), Partition(5, None, 4, 10)),
    )
    sim = P2PPagerankSimulation(
        graph,
        net,
        epsilon=1e-3,
        faults=FaultPlan(spec, seed=11),
        reliability=ReliabilityConfig(1, 2.0, 2, 2),
    )
    report = sim.run(availability=FixedFractionChurn(8, 0.75, seed=12))
    return sim, report


def _run_runtime():
    spec = FaultSpec(
        drop_rate=0.1,
        duplicate_rate=0.05,
        delay_rate=0.1,
        partitions=(Partition(0, 3, 1, 6),),
        crashes=((5, 2, 3),),
    )
    runtime = AsyncPeerRuntime(
        broder_graph(150, seed=8),
        P2PNetwork(6, DocumentPlacement.random(150, 6, seed=9), build_ring=False),
        epsilon=1e-3,
        faults=FaultPlan(spec, seed=13),
        availability=OnOffSchedule(6, mean_up=20.0, mean_down=3.0, seed=14),
        recovery=RecoveryConfig(),
        seed=15,
    )
    return runtime, asyncio.run(runtime.run())


def test_simulator_reliable_transport_golden():
    sim, report = _simulate()
    assert dataclasses.asdict(sim.transport.stats) == SIM_FAULT_STATS
    assert (
        report.converged,
        report.passes,
        report.total_messages,
        sim.traffic.network_batches,
    ) == SIM_COUNTERS
    assert report.diagnostics is None
    assert _digest(report.ranks) == SIM_RANK_DIGEST


def test_runtime_flight_tracker_golden():
    runtime, report = _run_runtime()
    counters = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name != "ranks"
    }
    assert counters == RUNTIME_COUNTERS
    assert _digest(report.ranks) == RUNTIME_RANK_DIGEST
    # The crashed peer abandoned nothing, so restart forgiveness of
    # its own ledger cannot have moved this run.
    assert all(node.tracker.abandoned_updates == 0 for node in runtime.nodes)
