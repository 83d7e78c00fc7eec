"""Differential lockdown of the columnar update plane.

Under the ``csr`` kernel backend a peer stages its whole pass as one
:class:`~repro.p2p.messages.UpdateBlock` and receives a delivered block
with one vectorized pass; the ``naive`` backend keeps the per-update
:class:`~repro.p2p.messages.PagerankUpdate` path.  These tests hold the
two to the same observable behaviour: receiver state and applied counts,
the batches an outbox yields, and the simulator's traffic accounting.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.kernels import _KERNEL_ENV
from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import broder_graph
from repro.p2p import (
    CachedDirectDelivery,
    DocumentPlacement,
    FixedFractionChurn,
    Outbox,
    P2PNetwork,
    PagerankUpdate,
    Peer,
    RoutedDelivery,
    UpdateBlock,
)
from repro.simulation import P2PPagerankSimulation

GRAPH = broder_graph(40, seed=5)
LOCAL_DOCS = range(0, 40, 3)

# Sources are drawn from a small pool so that one delivery repeats
# them often; the pool holds local documents, in-link sources the
# receiver's shard tracks, and documents it never reads.
_SOURCES = st.integers(0, 11)
_VERSIONS = st.integers(0, 3)
_rows = st.lists(
    st.tuples(
        _SOURCES,
        _VERSIONS,
        st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=30,
)


def _updates(rows):
    return [
        PagerankUpdate(target_doc=0, source_doc=s, value=x, version=v)
        for s, v, x in rows
    ]


def _receiver(honor, preload, orphans):
    peer = Peer(1, LOCAL_DOCS, GRAPH, honor_versions=honor)
    peer._ensure_shard()
    peer.receive_batch(_updates(preload))
    # Versions held without a value: an equal-version update still
    # counts as news for these sources.
    for source, version in orphans:
        peer._remote_versions.setdefault(source, version)
    return peer


@given(
    rows=_rows,
    preload=_rows,
    orphans=st.lists(st.tuples(_SOURCES, _VERSIONS), max_size=5),
    honor=st.booleans(),
)
# An equal-version update for a source whose version is held without a
# value still applies.
@example(rows=[(1, 2, 1.5), (1, 2, 2.5)], preload=[], orphans=[(1, 2)], honor=True)
def test_vectorized_receive_matches_sequential(rows, preload, orphans, honor):
    """Duplicate sources in one delivery, reordered versions,
    equal-version replays, versioned and unversioned receivers."""
    sequential = _receiver(honor, preload, orphans)
    vectorized = _receiver(honor, preload, orphans)
    updates = _updates(rows)
    block = UpdateBlock.from_records([(1, u) for u in updates])

    applied_seq = sequential.receive_batch(updates)
    applied_vec = vectorized.receive_batch(block)

    assert applied_vec == applied_seq
    assert vectorized.remote_values == sequential.remote_values
    assert vectorized._remote_versions == sequential._remote_versions
    assert np.array_equal(vectorized._visible, sequential._visible)


def test_block_records_round_trip():
    updates = [PagerankUpdate(5, 2, 0.5, 3), PagerankUpdate(7, 2, 0.5, 3)]
    block = UpdateBlock.from_records([(4, updates[0]), (9, updates[1])])
    assert len(block) == 2 and block.size_bytes == 48
    assert block.records() == updates
    assert block.dest_peer.tolist() == [4, 9]
    assert UpdateBlock.concat([block, block.take(slice(1, 2))]).records() == (
        updates + updates[1:]
    )
    assert len(UpdateBlock.concat([])) == 0


def _staged_pass(monkeypatch, backend):
    """One peer's outbox after a crash reboot re-announces its values
    (records) and the next pass publishes again (a block under csr)."""
    monkeypatch.setenv(_KERNEL_ENV, backend)
    graph = broder_graph(120, seed=2)
    peer_of = DocumentPlacement.random(120, 6, seed=3).assignment
    peer = Peer(0, np.flatnonzero(peer_of == 0), graph)
    peer.compute_pass(0.85, 1e-4, peer_of)
    peer.crash_volatile()
    republished = peer.reboot_republish(peer_of)
    for src in range(120):
        if peer_of[src] != 0:
            peer.receive(PagerankUpdate(0, src, 1.5, version=1))
    outcome = peer.compute_pass(0.85, 1e-4, peer_of)
    assert republished and outcome.staged_updates
    return peer.outbox


def test_republish_then_block_yields_per_update_batches(monkeypatch):
    """Records staged before a pass block, for the same destinations,
    come out in the batches and order per-update staging produces."""
    columnar = _staged_pass(monkeypatch, "csr")
    assert columnar._blocks, "the csr pass should stage a block"
    reference = _staged_pass(monkeypatch, "naive")
    assert columnar.destinations == reference.destinations
    assert len(columnar) == len(reference)
    got = [(b.sender_peer, b.receiver_peer, b.updates) for b in columnar.batches()]
    want = [(b.sender_peer, b.receiver_peer, b.updates) for b in reference.batches()]
    assert got == want


def test_outbox_interleaving_keeps_staging_order():
    """Records after a block fold it first, so every destination sees
    its updates in staging order through either drain."""
    first = [(2, PagerankUpdate(1, 9, 0.1, 1)), (3, PagerankUpdate(2, 9, 0.1, 1))]
    block_rows = [(3, PagerankUpdate(4, 8, 0.2, 2)), (5, PagerankUpdate(6, 8, 0.2, 2))]
    last = [(5, PagerankUpdate(7, 9, 0.3, 2)), (2, PagerankUpdate(8, 9, 0.3, 2))]

    def mixed():
        ob = Outbox(0)
        for dest, u in first:
            ob.stage(dest, u)
        ob.stage_block(UpdateBlock.from_records(block_rows))
        for dest, u in last:
            ob.stage(dest, u)
        return ob

    # Destinations in first-staging order, updates in staging order.
    (a, b), (c, d), (e, f) = first, block_rows, last
    want = [(2, [a[1], f[1]]), (3, [b[1], c[1]]), (5, [d[1], e[1]])]
    assert [(b.receiver_peer, b.updates) for b in mixed().batches()] == want
    assert mixed().destinations == (2, 3, 5)

    block = mixed().take_block()
    per_dest = {}
    for dest, u in zip(block.dest_peer.tolist(), block.records()):
        per_dest.setdefault(dest, []).append(u)
    assert sorted(per_dest.items()) == sorted(want)

    ob = mixed()
    assert ob.wipe() == 6 and len(ob) == 0 and ob.batches() == []


def _traffic(monkeypatch, backend, policy_cls, churn_seed, seed):
    monkeypatch.setenv(_KERNEL_ENV, backend)
    graph = broder_graph(300, seed=seed)
    placement = DocumentPlacement.random(300, 10, seed=seed + 1)
    network = P2PNetwork(10, placement, build_ring=True)
    sim = P2PPagerankSimulation(
        graph, network, epsilon=1e-4, delivery_policy=policy_cls(network.ring)
    )
    availability = (
        FixedFractionChurn(10, 0.6, seed=churn_seed) if churn_seed is not None else None
    )
    report = sim.run(availability=availability, keep_history=False, max_passes=5_000)
    return report, sim.traffic


@pytest.mark.parametrize("policy_cls", [CachedDirectDelivery, RoutedDelivery])
@pytest.mark.parametrize("churn_seed", [None, 4, 11])
@pytest.mark.parametrize("seed", [0, 1])
def test_simulator_backends_same_traffic(monkeypatch, policy_cls, churn_seed, seed):
    """Messages, batch transfers, hop charges and resends agree between
    the columnar plane and the per-update path, with a delivery policy
    attached and with churn deferring rows into store-and-resend."""
    naive, naive_traffic = _traffic(monkeypatch, "naive", policy_cls, churn_seed, seed)
    csr, csr_traffic = _traffic(monkeypatch, "csr", policy_cls, churn_seed, seed)
    assert np.array_equal(naive.ranks, csr.ranks)
    assert naive.passes == csr.passes
    assert csr_traffic == naive_traffic
    assert csr_traffic.routing_hops > 0
    if churn_seed is not None:
        assert csr_traffic.resent_messages > 0


def test_faulted_backends_same_traffic(monkeypatch):
    """The reliable transport sees the same batches in the same order,
    so the fault plan's draws and every counter agree."""
    results = []
    for backend in ("naive", "csr"):
        monkeypatch.setenv(_KERNEL_ENV, backend)
        graph = broder_graph(300, seed=6)
        placement = DocumentPlacement.random(300, 10, seed=7)
        sim = P2PPagerankSimulation(
            graph,
            P2PNetwork(10, placement, build_ring=False),
            epsilon=1e-4,
            faults=FaultPlan(FaultSpec(drop_rate=0.2, crashes=((3, 2),)), seed=8),
        )
        report = sim.run(
            availability=FixedFractionChurn(10, 0.75, seed=9), keep_history=False
        )
        results.append((report, sim.traffic, sim.transport.stats))
    (naive, naive_traffic, naive_stats), (csr, csr_traffic, csr_stats) = results
    assert np.array_equal(naive.ranks, csr.ranks)
    assert naive.passes == csr.passes
    assert csr_traffic == naive_traffic
    assert csr_stats == naive_stats
    assert csr_stats.reboot_republished > 0
