"""Async runtime vs pass-based simulator (the tentpole differential).

The concurrent runtime executes the protocol with per-peer asyncio
tasks, latency-ordered delivery, and event-driven recomputation — a
completely different schedule from the simulator's synchronised
passes.  The paper's claim (§2.1, citing chaotic iteration theory) is
that update *order* does not matter: any fair asynchronous schedule
reaches the same ε-gated fixed-point region.  These tests hold the
deterministic runtime to that claim across seeds, sizes, and fault
variants, and pin its own reproducibility (same seed → identical
ranks and message counts).
"""

import asyncio

import numpy as np
import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import AsyncPeerRuntime, OnOffSchedule
from repro.simulation import P2PPagerankSimulation

SEEDS = (0, 1, 2)
SIZES = (120, 300)
EPSILON = 1e-4
#: Both schedules stop inside the ε-gated fixed-point region; their
#: mutual distance is bounded by the per-document publish gates on
#: either side.
AGREEMENT_TOLERANCE = 5e-3


def build(seed, size):
    graph = broder_graph(size, seed=seed)
    peers = max(4, size // 30)
    placement = DocumentPlacement.random(size, peers, seed=seed + 1)
    return graph, peers, placement


def run_runtime(graph, peers, placement, **kwargs):
    network = P2PNetwork(peers, placement, build_ring=False)
    runtime = AsyncPeerRuntime(
        graph, network, epsilon=EPSILON, seed=77, **kwargs
    )
    return asyncio.run(runtime.run())


def run_simulator(graph, peers, placement):
    network = P2PNetwork(peers, placement, build_ring=False)
    sim = P2PPagerankSimulation(graph, network, epsilon=EPSILON)
    return sim.run(keep_history=False)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_runtime_agrees_with_pass_simulator(seed, size):
    graph, peers, placement = build(seed, size)
    async_report = run_runtime(graph, peers, placement)
    sim_report = run_simulator(graph, peers, placement)

    assert async_report.converged and sim_report.converged
    rel = np.abs(async_report.ranks - sim_report.ranks) / np.abs(sim_report.ranks)
    assert float(np.percentile(rel, 99)) < AGREEMENT_TOLERANCE
    assert float(rel.max()) < 10 * AGREEMENT_TOLERANCE
    # Rank mass stays near N under either schedule (ε-gated residuals
    # keep either sum within a gate-width of the other).
    assert async_report.ranks.sum() == pytest.approx(
        sim_report.ranks.sum(), rel=1e-3
    )


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_runtime_same_seed_is_bitwise_reproducible(seed, size):
    graph, peers, placement = build(seed, size)
    first = run_runtime(graph, peers, placement)
    second = run_runtime(graph, peers, placement)
    assert np.array_equal(first.ranks, second.ranks)
    assert first.messages == second.messages
    assert first.rounds == second.rounds


@pytest.mark.parametrize("seed", SEEDS)
def test_runtime_under_loss_still_matches(seed):
    graph, peers, placement = build(seed, 120)
    async_report = run_runtime(
        graph, peers, placement,
        faults=FaultPlan(FaultSpec(drop_rate=0.2), seed=seed + 9),
    )
    sim_report = run_simulator(graph, peers, placement)

    assert async_report.converged, "reliable delivery must mask 20% loss"
    assert async_report.retries > 0
    rel = np.abs(async_report.ranks - sim_report.ranks) / np.abs(sim_report.ranks)
    assert float(rel.max()) < 10 * AGREEMENT_TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
def test_runtime_under_churn_still_matches(seed):
    graph, peers, placement = build(seed, 120)
    async_report = run_runtime(
        graph, peers, placement,
        availability=OnOffSchedule(
            peers, mean_up=30.0, mean_down=5.0, seed=seed + 13
        ),
    )
    sim_report = run_simulator(graph, peers, placement)

    assert async_report.converged, "held deliveries must complete on return"
    rel = np.abs(async_report.ranks - sim_report.ranks) / np.abs(sim_report.ranks)
    assert float(rel.max()) < 10 * AGREEMENT_TOLERANCE
