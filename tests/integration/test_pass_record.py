"""One per-pass record: every pass engine emits one ``<engine>.pass``
trace event per recorded pass, dead passes included, carrying the
fields of the run's ``PassStats`` history."""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.core.distributed import ChaoticPagerank
from repro.graphs import gnp_random_graph
from repro.p2p import DocumentPlacement, FixedFractionChurn, P2PNetwork
from repro.parallel import ParallelPagerank
from repro.simulation.engine import P2PPagerankSimulation

DOCS = 80
PEERS = 6
EPSILON = 1e-4


class _DarkEvery:
    """Churn with every third pass forced dark."""

    def __init__(self):
        self._churn = FixedFractionChurn(PEERS, 0.7, seed=4)

    def sample(self, pass_index):
        mask = self._churn.sample(pass_index)
        return np.zeros_like(mask) if pass_index % 3 == 2 else mask


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(DOCS, 0.08, seed=2)


@pytest.fixture(scope="module")
def placement():
    return DocumentPlacement.random(DOCS, PEERS, seed=1)


def _vectorized(graph, placement):
    return ChaoticPagerank(graph, placement.assignment, epsilon=EPSILON).run(
        availability=_DarkEvery()
    )


def _simulator(graph, placement):
    network = P2PNetwork(PEERS, placement, build_ring=False)
    return P2PPagerankSimulation(graph, network, epsilon=EPSILON).run(
        availability=_DarkEvery()
    )


def _parallel(graph, placement):
    engine = ParallelPagerank(
        graph, placement.assignment, shards=2, epsilon=EPSILON,
        backend="in-process",
    )
    return engine.run(availability=_DarkEvery())


@pytest.mark.parametrize(
    "prefix, run",
    [("core", _vectorized), ("sim", _simulator), ("parallel", _parallel)],
)
def test_one_event_per_recorded_pass(graph, placement, prefix, run):
    buf = io.StringIO()
    with obs.use_registry(), obs.use_trace_sink(obs.TraceSink(buf)):
        report = run(graph, placement)
    events = [
        json.loads(line)["fields"]
        for line in buf.getvalue().splitlines()
        if json.loads(line)["name"] == f"{prefix}.pass"
    ]
    assert report.converged
    assert len(events) == report.passes == len(report.history)
    assert any(s.live_peers == 0 for s in report.history)
    for fields, stats in zip(events, report.history):
        assert fields == {
            "pass_index": stats.pass_index,
            "residual": stats.max_rel_change,
            "active_documents": stats.active_documents,
            "messages": stats.messages,
            "deferred": stats.deferred_messages,
            "resent": stats.resent_messages,
            "live_peers": stats.live_peers,
            "computed_documents": stats.computed_documents,
        }


def test_engines_record_equal_histories(graph, placement):
    vectorized = _vectorized(graph, placement)
    assert vectorized.history == _simulator(graph, placement).history
    assert vectorized.history == _parallel(graph, placement).history
    assert any(s.resent_messages > 0 for s in vectorized.history)


def test_simulator_traffic_counters_mirror_summary(graph, placement):
    network = P2PNetwork(PEERS, placement, build_ring=False)
    sim = P2PPagerankSimulation(graph, network, epsilon=EPSILON)
    with obs.use_registry() as reg:
        report = sim.run(availability=_DarkEvery())
        snap = reg.snapshot()
    traffic = sim.traffic
    assert snap["sim.messages_delivered"]["value"] == traffic.update_messages
    assert snap["sim.messages_delivered"]["value"] == report.total_messages
    assert snap["sim.messages_resent"]["value"] == traffic.resent_messages
    assert snap["sim.bytes_transferred"]["value"] == traffic.bytes_transferred
    assert snap["sim.network_batches"]["value"] == traffic.network_batches
    assert snap["sim.passes"]["value"] == report.passes


class _PermanentBlackout:
    def sample(self, pass_index):
        return np.zeros(PEERS, dtype=bool)


@pytest.mark.parametrize("backend", ["in-process", "process"])
def test_parallel_dead_pass_rule(graph, placement, backend):
    # The parent alone applies the rule; under the process backend the
    # workers stand down when it aborts the pass barriers.
    engine = ParallelPagerank(
        graph, placement.assignment, workers=2, shards=2, epsilon=EPSILON,
        backend=backend,
    )
    with pytest.raises(RuntimeError, match="no live peers for 4 consecutive"):
        engine.run(availability=_PermanentBlackout(), max_dead_passes=4)
    with pytest.raises(ValueError, match="max_dead_passes"):
        engine.run(availability=_DarkEvery(), max_dead_passes=0)
    report = engine.run(availability=_DarkEvery())
    assert report.history == _parallel(graph, placement).history
