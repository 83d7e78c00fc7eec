"""A restarted peer's re-announcement clears its own abandonment ledger.

Peer 0's flights to peer 1 exhaust a small retry budget behind a
partition; peer 0 later crashes and is restarted by the supervisor.
Neighbours forgive what they abandoned toward the restarted peer
(docs/PROTOCOL.md §15.4), and the restarted peer's own re-announcement
supersedes what *it* abandoned — otherwise the run reports
non-convergence with zero staleness.
"""

import asyncio

from repro.faults import FaultPlan, FaultSpec, Partition, ReliabilityConfig
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.recovery import RecoveryConfig
from repro.runtime import AsyncPeerRuntime

DOCS = 300
PEERS = 4


def test_restart_forgives_the_restarted_peers_own_ledger():
    plan = FaultPlan(
        FaultSpec(partitions=(Partition(0, 1, 0, 20),), crashes=((40, 0, 3),)),
        seed=3,
    )
    runtime = AsyncPeerRuntime(
        broder_graph(DOCS, seed=1),
        P2PNetwork(
            PEERS, DocumentPlacement.random(DOCS, PEERS, seed=2), build_ring=False
        ),
        epsilon=1e-4,
        faults=plan,
        reliability=ReliabilityConfig(1, 2.0, 2, 1),
        recovery=RecoveryConfig(),
    )
    report = asyncio.run(runtime.run())
    assert report.crashes == 1 and report.restarts == 1
    assert report.abandoned_updates == 0
    assert report.max_staleness <= report.epsilon
    assert report.converged
