"""Integration tests for :class:`repro.runtime.AsyncPeerRuntime`."""

import asyncio

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.transport import ReliabilityConfig
from repro.graphs import broder_graph, cycle_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import (
    AsyncPeerRuntime,
    FixedLatency,
    InMemoryTransport,
    OnOffSchedule,
    TcpTransport,
)


def make_runtime(docs=200, peers=8, seed=5, transport_seed=None, **kwargs):
    graph = broder_graph(docs, seed=seed)
    placement = DocumentPlacement.random(docs, peers, seed=seed + 1)
    network = P2PNetwork(peers, placement, build_ring=False)
    kwargs.setdefault("epsilon", 1e-4)
    if "transport" not in kwargs:
        kwargs["seed"] = transport_seed if transport_seed is not None else seed + 2
    return AsyncPeerRuntime(graph, network, **kwargs)


class TestDeterministicMode:
    def test_converges_and_quiesces(self):
        runtime = make_runtime(seed=3)
        report = asyncio.run(runtime.run())
        assert report.quiesced and report.converged
        assert report.max_staleness <= report.epsilon
        assert report.abandoned_updates == 0
        assert report.messages > 0 and report.acks == report.batches
        # Total rank mass stays near N (exact conservation is only
        # approached as ε → 0; the gate leaves sub-ε residuals).
        assert report.ranks.sum() == pytest.approx(200.0, rel=1e-3)

    def test_same_seed_bitwise_reproducible(self):
        first = asyncio.run(make_runtime(seed=4).run())
        second = asyncio.run(make_runtime(seed=4).run())
        assert np.array_equal(first.ranks, second.ranks)
        assert (first.messages, first.batches, first.rounds) == (
            second.messages, second.batches, second.rounds
        )

    def test_different_transport_seed_same_fixed_point_region(self):
        a = asyncio.run(make_runtime(seed=4, transport_seed=1).run())
        b = asyncio.run(make_runtime(seed=4, transport_seed=2).run())
        assert a.converged and b.converged
        rel = np.abs(a.ranks - b.ranks) / np.abs(b.ranks)
        assert float(rel.max()) < 5e-3

    def test_single_shot(self):
        runtime = make_runtime()
        asyncio.run(runtime.run())
        with pytest.raises(RuntimeError, match="single-shot"):
            asyncio.run(runtime.run())

    def test_max_rounds_budget_reports_not_quiesced(self):
        runtime = make_runtime(seed=3)
        report = asyncio.run(runtime.run(max_rounds=3))
        assert not report.quiesced
        assert not report.converged
        assert report.rounds == 3

    def test_survives_message_loss_via_retries(self):
        runtime = make_runtime(
            seed=3, faults=FaultPlan(FaultSpec(drop_rate=0.25), seed=7)
        )
        report = asyncio.run(runtime.run())
        assert report.converged
        assert report.retries > 0
        assert report.abandoned_updates == 0

    def test_exhausted_retry_budget_degrades_gracefully(self):
        # Total loss: every flight is abandoned once the budget runs
        # out; the run must terminate and report non-convergence.
        runtime = make_runtime(
            docs=60, peers=4, seed=3,
            faults=FaultPlan(FaultSpec(drop_rate=1.0), seed=7),
            reliability=ReliabilityConfig(max_retries=2),
        )
        report = asyncio.run(runtime.run())
        assert report.quiesced
        assert not report.converged
        assert report.abandoned_updates > 0

    def test_churn_defers_deliveries_but_converges(self):
        runtime = make_runtime(
            seed=3,
            availability=OnOffSchedule(8, mean_up=30.0, mean_down=5.0, seed=11),
        )
        report = asyncio.run(runtime.run())
        assert report.converged
        assert report.deferred_deliveries > 0

    def test_cycle_from_uniform_is_silent(self):
        # Uniform init is the cycle's fixed point: the first computes
        # change nothing, so nothing is ever sent.
        graph = cycle_graph(6)
        placement = DocumentPlacement.random(6, 2, seed=0)
        runtime = AsyncPeerRuntime(
            graph, P2PNetwork(2, placement, build_ring=False), epsilon=1e-6, seed=0
        )
        report = asyncio.run(runtime.run())
        assert report.quiesced and report.converged
        assert report.messages == 0

    def test_crashed_peer_task_raises_instead_of_hanging(self):
        # A zero latency fails inside a peer task; step() must surface
        # the error rather than wait forever for the drain signal.
        runtime = make_runtime(docs=60, peers=4, latency=lambda rng, s, d: 0.0)
        with pytest.raises(ValueError, match="strictly positive"):
            asyncio.run(asyncio.wait_for(runtime.run(), 10))

    def test_requires_in_memory_transport(self):
        runtime = make_runtime(transport=TcpTransport())
        with pytest.raises(TypeError, match="in-memory"):
            asyncio.run(runtime.run())


class TestValidation:
    def test_placement_required(self):
        graph = broder_graph(50, seed=1)
        with pytest.raises(ValueError, match="placement"):
            AsyncPeerRuntime(graph, P2PNetwork(4, build_ring=False))

    def test_placement_graph_mismatch(self):
        graph = broder_graph(50, seed=1)
        placement = DocumentPlacement.random(60, 4, seed=2)
        with pytest.raises(ValueError, match="disagree"):
            AsyncPeerRuntime(
                graph, P2PNetwork(4, placement, build_ring=False)
            )

    def test_explicit_transport_excludes_transport_kwargs(self):
        with pytest.raises(ValueError, match="explicit transport"):
            make_runtime(
                transport=InMemoryTransport(),
                faults=FaultPlan(FaultSpec(drop_rate=0.1), seed=1),
            )

    def test_availability_peer_count_checked(self):
        with pytest.raises(ValueError, match="peer count"):
            make_runtime(peers=8, availability=OnOffSchedule(4, seed=1))

    def test_bad_gate_rejected(self):
        with pytest.raises(ValueError, match="gate"):
            make_runtime(gate="latest")

    def test_bad_max_rounds_rejected(self):
        with pytest.raises(ValueError, match="max_rounds"):
            asyncio.run(make_runtime().run(max_rounds=0))


class TestRealtimeMode:
    def test_in_memory_realtime_converges(self):
        runtime = make_runtime(
            seed=3, latency=FixedLatency(0.002), pass_time=0.005
        )
        report = asyncio.run(
            runtime.run_realtime(timeout=30.0, tick=0.002)
        )
        assert report.quiesced and report.converged
        assert report.max_staleness <= report.epsilon
        assert report.rounds == 0

    def test_timeout_reports_not_quiesced(self):
        # One-second latency per hop cannot finish inside the budget.
        runtime = make_runtime(seed=3)
        report = asyncio.run(
            runtime.run_realtime(timeout=0.05, tick=0.01)
        )
        assert not report.quiesced
        assert not report.converged


class TestTcpTransport:
    def test_tcp_realtime_converges(self):
        runtime = make_runtime(docs=120, peers=5, seed=3, transport=TcpTransport())
        report = asyncio.run(runtime.run_realtime(timeout=30.0))
        assert report.quiesced and report.converged
        assert report.max_staleness <= report.epsilon

    def test_tcp_matches_deterministic_fixed_point_region(self):
        tcp_report = asyncio.run(
            make_runtime(docs=120, peers=5, seed=3, transport=TcpTransport())
            .run_realtime(timeout=30.0)
        )
        det_report = asyncio.run(make_runtime(docs=120, peers=5, seed=3).run())
        rel = np.abs(tcp_report.ranks - det_report.ranks) / np.abs(det_report.ranks)
        assert float(rel.max()) < 5e-3

    def test_connect_after_start_rejected(self):
        async def body():
            transport = TcpTransport()
            from repro.runtime.mailbox import Mailbox

            transport.connect(0, Mailbox(0))
            await transport.start()
            try:
                with pytest.raises(RuntimeError, match="before start"):
                    transport.connect(1, Mailbox(1))
            finally:
                await transport.stop()

        asyncio.run(body())
