"""Event-driven asynchronous runs of :class:`repro.runtime.AsyncPeerRuntime`.

The deterministic (virtual-clock) mode is a seeded discrete-event
simulation of the Figure 1 peers: these tests pin its quiescence,
interleaving independence, budget, churn and validation behaviour on
small Broder graphs against the centralised reference.
"""

import asyncio

import numpy as np
import pytest

from repro.core import pagerank_reference
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import (
    AsyncPeerRuntime,
    ExponentialLatency,
    FixedLatency,
    OnOffSchedule,
)


def build(num_docs=80, num_peers=5, seed=0):
    g = broder_graph(num_docs, seed=seed)
    pl = DocumentPlacement.random(num_docs, num_peers, seed=seed + 1)
    return g, P2PNetwork(num_peers, pl, build_ring=False)


def run(g, net, **kwargs):
    max_rounds = kwargs.pop("max_rounds", 1_000_000)
    runtime = AsyncPeerRuntime(g, net, **kwargs)
    return asyncio.run(runtime.run(max_rounds=max_rounds))


class TestQuiescence:
    def test_quiesces_and_approximates_reference(self):
        g, net = build()
        report = run(g, net, epsilon=1e-3, seed=1)
        assert report.quiesced
        ref = pagerank_reference(g).ranks
        rel = np.abs(report.ranks - ref) / ref
        # chaotic iteration with eps-gated sends: bounded residual
        assert np.percentile(rel, 95) < 0.05

    def test_interleaving_independence(self):
        """Chazan–Miranker: any delivery order converges to (nearly)
        the same point.  Different latency seeds must agree closely."""
        g, net = build(seed=4)
        ranks = []
        for seed in (1, 2, 3):
            report = run(
                g, net, epsilon=1e-4, seed=seed, latency=ExponentialLatency(1.0)
            )
            assert report.quiesced
            ranks.append(report.ranks)
        for other in ranks[1:]:
            rel = np.abs(ranks[0] - other) / ranks[0]
            assert np.percentile(rel, 95) < 0.02

    def test_deterministic_given_seed(self):
        g, net = build(seed=5)
        a = run(g, net, epsilon=1e-3, seed=42)
        g2, net2 = build(seed=5)
        b = run(g2, net2, epsilon=1e-3, seed=42)
        assert np.array_equal(a.ranks, b.ranks)
        assert (a.rounds, a.recomputes) == (b.rounds, b.recomputes)

    def test_event_budget_respected(self):
        g, net = build()
        full = run(g, net, epsilon=1e-6, seed=0)
        assert full.quiesced
        # A budget of half the natural run length must cut it short.
        budget = full.rounds // 2
        assert budget > 0
        report = run(g, net, epsilon=1e-6, seed=0, max_rounds=budget)
        assert not report.quiesced
        assert report.rounds == budget

    def test_sim_time_advances(self):
        g, net = build(seed=6)
        report = run(g, net, epsilon=1e-3, seed=0, latency=FixedLatency(2.0))
        assert report.quiesced
        assert report.clock_time > 0


class TestValidation:
    def test_requires_placement(self):
        g = broder_graph(30, seed=0)
        net = P2PNetwork(3, build_ring=False)
        with pytest.raises(ValueError, match="placement"):
            AsyncPeerRuntime(g, net)


class TestContinuousChurn:
    def test_async_with_churn_converges(self):
        g, net = build(num_docs=120, num_peers=6, seed=9)
        sched = OnOffSchedule(6, mean_up=10.0, mean_down=5.0, seed=10)
        report = run(g, net, epsilon=1e-4, availability=sched, seed=11)
        assert report.quiesced
        assert report.deferred_deliveries > 0
        ref = pagerank_reference(g).ranks
        rel = np.abs(report.ranks - ref) / ref
        assert np.percentile(rel, 99) < 5e-3

    def test_churn_extends_sim_time_not_traffic(self):
        g, net = build(num_docs=100, num_peers=5, seed=12)
        plain = run(g, net, epsilon=1e-3, seed=13)
        g2, net2 = build(num_docs=100, num_peers=5, seed=12)
        churned = run(
            g2, net2, epsilon=1e-3, seed=13,
            availability=OnOffSchedule(5, mean_up=5.0, mean_down=10.0, seed=14),
        )
        assert churned.quiesced
        # downtime delays delivery but does not multiply messages
        assert churned.messages < 2 * plain.messages
        assert churned.clock_time > plain.clock_time

    def test_peer_count_mismatch_rejected(self):
        g, net = build(num_docs=50, num_peers=5, seed=15)
        with pytest.raises(ValueError, match="mismatch"):
            AsyncPeerRuntime(g, net, availability=OnOffSchedule(3, seed=0))
