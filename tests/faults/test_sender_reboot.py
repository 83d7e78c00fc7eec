"""A rebooted sender's re-announcement clears its own abandonment ledger.

Peer 0's 0→1 flights exhaust a small retry budget behind a partition
and are parked (§3.1); peer 0 then crashes, which wipes the parked
batches with the rest of its volatile state.  On reboot it
re-announces every published value, superseding what was abandoned —
so the ledger must let go of those links, or the run aborts on
stagnation with every consumer already up to date.
"""

from repro.faults import FaultPlan, FaultSpec, Partition, ReliabilityConfig
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.simulation.engine import P2PPagerankSimulation

DOCS = 300
PEERS = 4


def _run(crashes):
    plan = FaultPlan(
        FaultSpec(partitions=(Partition(0, 1, 0, 20),), crashes=crashes), seed=3
    )
    sim = P2PPagerankSimulation(
        broder_graph(DOCS, seed=1),
        P2PNetwork(
            PEERS, DocumentPlacement.random(DOCS, PEERS, seed=2), build_ring=False
        ),
        epsilon=1e-4,
        faults=plan,
        reliability=ReliabilityConfig(1, 2.0, 2, 1),
    )
    return sim, sim.run()


def test_reboot_republish_forgives_the_senders_abandoned_links():
    sim, report = _run(((10, 0, 1),))
    stats = sim.transport.stats
    assert stats.crashes == 1 and stats.abandoned_updates > 0
    assert report.converged
    assert report.diagnostics is None
    assert sim.transport.black_holed_links() == {}
    assert sim.transport.undeliverable_updates == 0


def test_crash_of_a_bystander_does_not_change_the_run():
    _, clean = _run(())
    _, bystander = _run(((10, 2, 1),))
    assert clean.converged and bystander.converged
    assert clean.passes == bystander.passes
