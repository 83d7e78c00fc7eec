"""Ablation: asynchronous deployment hazards (extends paper §6).

The paper simulates batched synchronous passes; its future work is a
real asynchronous deployment.  Running the protocol at message
granularity on :class:`repro.runtime.AsyncPeerRuntime` (deterministic
virtual-clock mode) surfaces three design choices the paper's
simulation could not evaluate, each quantified here on the same
workload:

1. **Update versioning** (the load-bearing one).  The paper's 24-byte
   message carries no ordering; under latency jitter an old update can
   arrive after — and permanently overwrite — a newer one.  With
   versions off (``Peer.honor_versions = False`` on every node) the
   result is corrupted, and the run never quiesces: the reliability
   layer's retransmitted stale copies keep overwriting fresher values,
   so receivers keep re-publishing.
2. **Receiver batching.**  The runtime coalesces every arrival of one
   wake-up before recomputing, so how much it batches depends on how
   many arrivals share a delivery time.  Rounding latencies up to a
   grid of ``window`` time units lands arrivals together and saves a
   further constant factor over continuous latencies, where nearly
   every arrival wakes its receiver alone.
3. **Publish gating.**  Gating sends on the last *published* value
   bounds consumer staleness by ε; the Figure-1-literal gate on the
   last computed rank admits unbounded sub-ε drift.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core import pagerank_reference
from repro.graphs import broder_graph
from repro.p2p import DocumentPlacement, P2PNetwork
from repro.runtime import AsyncPeerRuntime, ExponentialLatency

#: Scheduler-round budget; unversioned runs exhaust it.
MAX_ROUNDS = 20_000


class GridExponentialLatency:
    """Exponential latency rounded up to a multiple of ``window``, so
    arrivals share delivery times and coalesce at the receiver."""

    def __init__(self, mean: float, window: float) -> None:
        self.inner = ExponentialLatency(mean)
        self.window = float(window)

    def __call__(self, rng, src_peer, dst_peer):
        delay = self.inner(rng, src_peer, dst_peer)
        return self.window * max(1, math.ceil(delay / self.window))


@pytest.fixture(scope="module")
def setting():
    g = broder_graph(400, seed=0)
    pl = DocumentPlacement.random(g.num_nodes, 10, seed=1)
    ref = pagerank_reference(g).ranks
    return g, pl, ref


def run_async(g, pl, *, versioned=True, **kwargs):
    net = P2PNetwork(pl.num_peers, pl, build_ring=False)
    kwargs.setdefault("latency", ExponentialLatency(1.0))
    runtime = AsyncPeerRuntime(g, net, **kwargs)
    for node in runtime.nodes:
        node.peer.honor_versions = versioned
    return asyncio.run(runtime.run(max_rounds=MAX_ROUNDS))


def max_err(report, ref):
    return float((np.abs(report.ranks - ref) / ref).max())


def quiesced(report):
    return "yes" if report.quiesced else "budget hit"


def test_ablation_versioning(benchmark, setting, record_table):
    g, pl, ref = setting
    eps = 1e-3

    def run_all():
        return {
            "versioned (library default)": run_async(
                g, pl, epsilon=eps, seed=2
            ),
            "unversioned, batched": run_async(
                g, pl, epsilon=eps, versioned=False,
                latency=GridExponentialLatency(1.0, 0.5), seed=2,
            ),
            "unversioned, fully literal": run_async(
                g, pl, epsilon=eps, versioned=False, gate="rank", seed=2,
            ),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (label, r.messages, f"{max_err(r, ref):.3f}", quiesced(r))
        for label, r in results.items()
    ]
    record_table(
        "Ablation versioning",
        format_table(
            ["protocol", "messages", "max rel err", "quiesced"],
            rows,
            title=f"Unordered updates under latency jitter (eps={eps:g}, 400 docs)",
        ),
    )

    good = results["versioned (library default)"]
    stale = results["unversioned, batched"]
    blowup = results["unversioned, fully literal"]
    # Versioned runs are accurate.
    assert max_err(good, ref) < 0.05
    # Dropping versions corrupts the result even with batching...
    assert max_err(stale, ref) > 0.1
    # ...and in the literal mode also multiplies the traffic.
    assert (not blowup.quiesced) or blowup.messages > 5 * good.messages


def test_ablation_receiver_batching(benchmark, setting, record_table):
    g, pl, ref = setting
    eps = 1e-3

    def run_both():
        batched = run_async(
            g, pl, epsilon=eps, latency=GridExponentialLatency(1.0, 0.5), seed=2
        )
        per_msg = run_async(g, pl, epsilon=eps, seed=2)
        return batched, per_msg

    batched, per_msg = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = [
        ("batched (grid=0.5)", batched.messages, batched.recomputes,
         quiesced(batched)),
        ("continuous latency", per_msg.messages, per_msg.recomputes,
         quiesced(per_msg)),
    ]
    record_table(
        "Ablation async batching",
        format_table(
            ["mode", "messages", "recomputes", "quiesced"],
            rows,
            title=f"Receiver-side coalescing (eps={eps:g}, 400 docs, versioned)",
        ),
    )
    assert batched.quiesced and per_msg.quiesced
    # Batching strictly reduces both recomputes and messages.
    assert per_msg.recomputes > batched.recomputes
    assert per_msg.messages > batched.messages
    # Both are accurate — batching is a pure traffic optimisation.
    assert max_err(batched, ref) < 0.05
    assert max_err(per_msg, ref) < 0.05


def test_ablation_publish_gate(benchmark, setting, record_table):
    g, pl, ref = setting
    eps = 1e-4

    def run_both():
        robust = run_async(g, pl, epsilon=eps, gate="published", seed=3)
        literal = run_async(g, pl, epsilon=eps, gate="rank", seed=3)
        return robust, literal

    robust, literal = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = [
        ("gate on published value", f"{max_err(robust, ref):.2e}", robust.messages),
        ("gate on computed rank (Fig. 1)", f"{max_err(literal, ref):.2e}", literal.messages),
    ]
    record_table(
        "Ablation publish gate",
        format_table(
            ["gating rule", "max rel. error vs R_c", "messages"],
            rows,
            title=f"Send-gating rule under async interleaving (eps={eps:g})",
        ),
    )
    # The robust gate bounds the worst-case error near eps; the literal
    # gate's drift is unbounded in principle (usually mild in practice).
    assert max_err(robust, ref) < 50 * eps
