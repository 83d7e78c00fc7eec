"""The four benchmark workloads: inputs, one timed repetition, checks.

The document graph, or the corpus of the serving workload, is drawn
from :data:`DATASET_SEED`; it is part of the workload's definition, like
a dataset.  The run seed draws everything else with the sub-seeds
``repro.bench`` uses: placement ``seed + 1``, churn ``seed + 2``, the
fault plan ``seed + 3`` and, for serving, the query stream ``seed + 3``.
At run seed 7 the inputs are exactly those of ``repro.bench`` at its
default seed.  ``lossy_churn_30k`` is the exception: its three
fault/churn realizations are part of its dataset too
(``Params.realization_seeds``), because a fresh realization moves its
pass count and error by 10-15 % between quartiles.

The graph is held fixed because the stop rule (every document's change
below ε) ends the iteration at a point that differs from graph to graph:
across graphs of one size, pass counts, traffic, rank error and run time
spread by 15-45 % between quartiles, while on one graph they barely move
with placement.  See perfbench/README.md.

A repetition builds everything from the inputs (timed as set-up) and
runs the engine to its stop condition (timed as the run).  All runs use
ε = 1e-4 and d = 0.85.  The program is only called through its public
API, and always through module attributes (``graphs.broder_graph``, not
a name bound here), so the tracer in :mod:`tracing` sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.analysis.error_stats as error_stats
import repro.core as core
import repro.faults.plan as fault_plan
import repro.graphs as graphs
import repro.p2p as p2p
import repro.serve as serve
import repro.simulation as simulation
from repro.obs import use_registry
from repro.obs.registry import MetricsRegistry, TimerMetric
from repro.p2p.messages import MESSAGE_SIZE_BYTES

EPSILON = 1e-4
DAMPING = 0.85
MAX_PASSES = 5_000
#: The quality envelope of the lossy-and-churning workload (p99 of the
#: per-document relative error against the centralized ranks).
LOSSY_P99_ENVELOPE = 5e-3
#: Latency limit (virtual seconds) a ladder rate must meet at p99, with
#: zero dropped queries, to count towards ``serve.capacity_qps``.
SERVE_P99_LIMIT = 0.1
#: Seed of every workload's graph or corpus.
DATASET_SEED = 7


@dataclass(frozen=True)
class Params:
    """Sizes of one workload; :data:`FULL` holds the benchmark's own."""

    docs: int
    peers: int
    drop_rate: float = 0.0
    availability: Optional[float] = None
    num_distinct: int = 0
    duration: float = 0.0
    rates: Tuple[float, ...] = ()
    #: Fixed run seeds of the fault/churn realizations, which are then
    #: part of the workload's dataset and not drawn from the run seed;
    #: outputs are medians over them.  Empty: one realization, drawn
    #: from the run seed.
    realization_seeds: Tuple[int, ...] = ()
    #: Messages the lossless simulator must send at run seed 7
    #: (0 = unchecked).
    pinned_messages: int = 0


FULL: Dict[str, Params] = {
    "static_1m": Params(docs=1_000_000, peers=1_000),
    "sim_100k": Params(docs=100_000, peers=500, pinned_messages=629_301),
    "lossy_churn_30k": Params(
        docs=30_000, peers=200, drop_rate=0.2, availability=0.75,
        realization_seeds=(DATASET_SEED, DATASET_SEED + 1_000, DATASET_SEED + 2_000),
    ),
    "serve_zipf": Params(
        docs=5_000,
        peers=100,
        num_distinct=2_000,
        duration=20.0,
        rates=(250.0, 500.0, 1_000.0, 4_000.0),
    ),
}

#: Sizes the self-test runs every workload at (seconds, not minutes).
TINY: Dict[str, Params] = {
    "static_1m": Params(docs=3_000, peers=30),
    "sim_100k": Params(docs=2_000, peers=20),
    "lossy_churn_30k": Params(
        docs=1_000, peers=10, drop_rate=0.2, availability=0.75,
        realization_seeds=(DATASET_SEED, DATASET_SEED + 1_000),
    ),
    "serve_zipf": Params(
        docs=300, peers=10, num_distinct=100, duration=2.0,
        rates=(25.0, 50.0, 100.0, 400.0),
    ),
}


@dataclass
class Rep:
    """One repetition's measurements and outputs."""

    setup_s: List[float]
    run_s: float
    passes: int
    messages: int
    bytes_on_wire: int
    stop_reasons: List[str]
    digest: str
    #: (graph, final ranks) pairs the output checks verify.
    outputs: List[Tuple[object, np.ndarray]] = field(repr=False, default_factory=list)
    #: Workload-specific measurements (fault stats, per-rate serving).
    extra: Dict[str, object] = field(default_factory=dict)
    #: Per-pass wall seconds (only when observed).
    pass_s: List[float] = field(default_factory=list)
    #: Index of the realization (run-seed offset) the inputs came from.
    realization: int = 0

    def drop_outputs(self) -> "Rep":
        """Release the graphs and ranks once the digest is all that is
        needed, so memory does not grow with the repetition count."""
        self.outputs = []
        self.extra.pop("assignment", None)
        return self


def stop_reason(report, max_passes: int) -> str:
    """Why a pass engine stopped."""
    if report.converged:
        return "converged"
    if report.diagnostics is not None:
        return "stagnation"
    if report.passes >= max_passes:
        return "pass_budget"
    return "stopped"


def rank_digest(ranks: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(ranks, dtype=np.float64).tobytes()).hexdigest()


# -- static_1m ---------------------------------------------------------------
def static_rep(p: Params, seed: int, observe: bool = False) -> Rep:
    t0 = time.perf_counter()
    graph = graphs.broder_graph(p.docs, seed=DATASET_SEED)
    placement = p2p.DocumentPlacement.random(p.docs, p.peers, seed=seed + 1)
    engine = core.ChaoticPagerank(
        graph, placement.assignment, num_peers=p.peers,
        damping=DAMPING, epsilon=EPSILON,
    )
    t1 = time.perf_counter()
    stamps: List[float] = []
    on_pass = (lambda t, ranks: stamps.append(time.perf_counter())) if observe else None
    report = engine.run(keep_history=False, max_passes=MAX_PASSES, on_pass=on_pass)
    t2 = time.perf_counter()
    return Rep(
        setup_s=[t1 - t0],
        run_s=t2 - t1,
        passes=report.passes,
        messages=report.total_messages,
        bytes_on_wire=report.total_messages * MESSAGE_SIZE_BYTES,
        stop_reasons=[stop_reason(report, MAX_PASSES)],
        digest=rank_digest(report.ranks),
        outputs=[(graph, report.ranks)],
        extra={"assignment": placement.assignment},
        pass_s=list(np.diff([t1] + stamps)),
    )


# -- sim_100k and lossy_churn_30k --------------------------------------------
class PassTimeRegistry(MetricsRegistry):
    """An enabled registry whose timers keep every sample, so per-pass
    percentiles of ``sim.pass_seconds`` can be read after a run."""

    def __init__(self) -> None:
        super().__init__()
        self.timers: Dict[str, "_SampledTimer"] = {}

    def timer(self, name: str, *, description: str = "") -> TimerMetric:
        if name not in self.timers:
            self.timers[name] = _SampledTimer(name=name, description=description)
        return self.timers[name]


@dataclass
class _SampledTimer(TimerMetric):
    samples: List[float] = field(default_factory=list)

    def __exit__(self, exc_type, exc, tb) -> None:
        super().__exit__(exc_type, exc, tb)
        self.samples.append(self.last)


def sim_rep(p: Params, seed: int, observe: bool = False) -> Rep:
    t0 = time.perf_counter()
    graph = graphs.broder_graph(p.docs, seed=DATASET_SEED)
    placement = p2p.DocumentPlacement.random(p.docs, p.peers, seed=seed + 1)
    network = p2p.P2PNetwork(p.peers, placement, build_ring=False)
    faults = (
        fault_plan.FaultPlan(fault_plan.FaultSpec(drop_rate=p.drop_rate), seed=seed + 3)
        if p.drop_rate
        else None
    )
    sim = simulation.P2PPagerankSimulation(
        graph, network, damping=DAMPING, epsilon=EPSILON, faults=faults
    )
    availability = (
        p2p.FixedFractionChurn(p.peers, p.availability, seed=seed + 2)
        if p.availability is not None
        else None
    )
    t1 = time.perf_counter()
    registry = PassTimeRegistry() if observe else None
    with use_registry(registry) if registry is not None else contextlib.nullcontext():
        report = sim.run(
            availability=availability, keep_history=False, max_passes=MAX_PASSES
        )
    t2 = time.perf_counter()
    extra: Dict[str, object] = {"assignment": placement.assignment}
    if sim.transport is not None:
        extra["fault_stats"] = sim.transport.stats
    pass_s: List[float] = []
    if registry is not None and "sim.pass_seconds" in registry.timers:
        pass_s = list(registry.timers["sim.pass_seconds"].samples)
    return Rep(
        setup_s=[t1 - t0],
        run_s=t2 - t1,
        passes=report.passes,
        messages=sim.traffic.update_messages,
        bytes_on_wire=sim.traffic.bytes_transferred,
        stop_reasons=[stop_reason(report, MAX_PASSES)],
        digest=rank_digest(report.ranks),
        outputs=[(graph, report.ranks)],
        extra=extra,
        pass_s=pass_s,
    )


# -- serve_zipf --------------------------------------------------------------
def serve_session(p: Params, seed: int, qps: float) -> serve.ServeSession:
    """A session on the dataset's corpus whose query stream is drawn
    from the run seed (the session's own generator when they agree)."""
    config = serve.ServeConfig(
        docs=p.docs, peers=p.peers, seed=DATASET_SEED, qps=qps,
        duration=p.duration, loop="open", num_distinct=p.num_distinct,
        epsilon=EPSILON,
    )
    session = serve.ServeSession(config)
    if seed != DATASET_SEED:
        session.loadgen = serve.LoadGenerator(
            session.corpus,
            config.peers,
            seed=seed + 3,
            num_distinct=config.num_distinct,
            terms_per_query=config.terms_per_query,
            term_pool_size=config.term_pool_size,
            zipf_exponent=config.zipf_exponent,
        )
    return session


def serve_rep(p: Params, seed: int, observe: bool = False) -> Rep:
    """The rate ladder: one fresh session per offered rate."""
    setups: List[float] = []
    run_s = 0.0
    rounds = messages = 0
    reasons: List[str] = []
    rate_digests: List[str] = []
    outputs = []
    per_rate: Dict[float, Dict[str, float]] = {}
    violations: List[str] = []
    for qps in p.rates:
        t0 = time.perf_counter()
        session = serve_session(p, seed, qps)
        t1 = time.perf_counter()
        report = session.run()
        t2 = time.perf_counter()
        setups.append(t1 - t0)
        run_s += t2 - t1
        rt = report.runtime
        rounds += rt.rounds
        messages += rt.messages
        reasons.append("converged" if rt.converged else (
            "quiesced_unconverged" if rt.quiesced else "budget"))
        rate_digests.append(hashlib.sha256(
            f"{qps}|{report.digest}|{rank_digest(rt.ranks)}".encode()).hexdigest())
        outputs.append((session.corpus.link_graph, rt.ranks))
        violations += [
            f"{qps:g} qps: {v}" for v in report.verify_invariants(session.config)
        ]
        per_rate[qps] = serve_rate_metrics(report, session)
    return Rep(
        setup_s=setups,
        run_s=run_s,
        passes=rounds,
        messages=messages,
        bytes_on_wire=messages * MESSAGE_SIZE_BYTES,
        stop_reasons=reasons,
        digest=hashlib.sha256("|".join(rate_digests).encode()).hexdigest(),
        outputs=outputs,
        extra={"per_rate": per_rate, "violations": violations, "rate_digests": rate_digests},
    )


def serve_rate_metrics(report, session) -> Dict[str, float]:
    """Latency and load figures of one ladder rate.

    Latency percentiles are over every offered query; a dropped query
    enters with its time-to-refusal, and a rate with any drop cannot
    count as meeting the limit.
    """
    latencies = np.array([r.latency for r in report.records], dtype=np.float64)
    loc_hits, loc_misses, _ = session.router.location_cache_stats()
    return {
        "p50": float(np.percentile(latencies, 50)),
        "p99": float(np.percentile(latencies, 99)),
        "offered": report.offered,
        "dropped": report.dropped,
        "shed": report.shed,
        "shed_rate": report.shed_rate,
        "retries": report.retries,
        "cache_hit_rate": report.cache_hit_rate,
        "location_hits": loc_hits,
        "location_lookups": loc_hits + loc_misses,
        "dht_hops": report.dht_hops,
        "peak_queue_depth": report.peak_queue_depth,
        "rounds": report.runtime.rounds,
        "runtime_messages": report.runtime.messages,
        "runtime_acks": report.runtime.acks,
    }


REPS: Dict[str, Callable[..., Rep]] = {
    "static_1m": static_rep,
    "sim_100k": sim_rep,
    "lossy_churn_30k": sim_rep,
    "serve_zipf": serve_rep,
}

#: The span that covers each workload's run (its traced ``run_s``).
ROOT_SPAN = {
    "static_1m": "core.run",
    "sim_100k": "sim.run",
    "lossy_churn_30k": "sim.run",
    "serve_zipf": "serve.run",
}


# -- output checks -----------------------------------------------------------
@dataclass
class Quality:
    rank_err_p99: float
    error_bound: float
    l1_error: float
    #: The same bound for the reference itself: the measured L1 error
    #: can exceed the true one by at most this much.
    reference_bound: float


class Reference:
    """Centralized ranks ``R_c`` of a graph, solved once per graph."""

    def __init__(self, graph) -> None:
        self.workspace = core.make_workspace(graph)
        self.ranks = core.pagerank_reference(
            graph, damping=DAMPING, workspace=self.workspace
        ).ranks
        self.bound = self.error_bound(self.ranks)

    def error_bound(self, x: np.ndarray) -> float:
        """‖x − x*‖₁ ≤ ‖x − F(x)‖₁ / (1 − d): F(x) = (1-d) + d·A·x is a
        d-contraction in L1, so one pull bounds the distance to the
        fixed point."""
        return float(np.abs(x - self.workspace.pull(x, DAMPING)).sum() / (1.0 - DAMPING))

    def quality(self, ranks: np.ndarray) -> Quality:
        err = error_stats.relative_error(ranks, self.ranks)
        return Quality(
            rank_err_p99=float(np.percentile(err, 99)),
            error_bound=self.error_bound(ranks),
            l1_error=float(np.abs(ranks - self.ranks).sum()),
            reference_bound=self.bound,
        )


def check(
    workload: str, p: Params, seeds: List[int], firsts: List[Rep]
) -> Tuple[List[str], List[Quality]]:
    """Verify the outputs of each realization's first repetition.

    Returns (problems, one quality per realization); an empty problem
    list means every check passed.
    """
    problems: List[str] = []
    references: Dict[int, Reference] = {}
    qualities: List[Quality] = []
    for seed, rep in zip(seeds, firsts):
        per_output = []
        for graph, ranks in rep.outputs:
            ref = references.get(id(graph))
            if ref is None:
                ref = references[id(graph)] = Reference(graph)
            q = ref.quality(ranks)
            # The bound is tight when the error is one-signed and leaks
            # no mass; allow for the reference's own error and rounding.
            if not q.l1_error <= (q.error_bound + q.reference_bound) * (1 + 1e-9):
                problems.append(
                    f"L1 error {q.l1_error:.6g} exceeds the certified bound "
                    f"{q.error_bound:.6g}"
                )
            per_output.append(q)
        qualities.append(max(per_output, key=lambda q: q.rank_err_p99))
        if workload == "sim_100k":
            problems += _check_sim_vs_engine(p, seed, rep)
        if workload == "lossy_churn_30k":
            p99 = qualities[-1].rank_err_p99
            if not p99 < LOSSY_P99_ENVELOPE:
                problems.append(
                    f"p99 relative error {p99:.3g} outside the {LOSSY_P99_ENVELOPE} envelope"
                )
        if workload == "serve_zipf":
            problems += list(rep.extra["violations"])
            problems += _check_serve_repeat(p, seed, rep)
    return problems, qualities


def _check_sim_vs_engine(p: Params, seed: int, rep: Rep) -> List[str]:
    """The lossless simulator is bitwise equal to the vectorized engine."""
    graph, ranks = rep.outputs[0]
    engine = core.ChaoticPagerank(
        graph, rep.extra["assignment"], num_peers=p.peers,
        damping=DAMPING, epsilon=EPSILON,
    )
    report = engine.run(keep_history=False, max_passes=MAX_PASSES)
    problems = []
    if not np.array_equal(report.ranks, ranks):
        problems.append("simulator ranks differ from the vectorized engine's")
    if report.total_messages != rep.messages:
        problems.append(
            f"simulator sent {rep.messages} messages, vectorized engine {report.total_messages}"
        )
    if seed == 7 and p.pinned_messages and rep.messages != p.pinned_messages:
        problems.append(
            f"seed 7 must send exactly {p.pinned_messages} messages, got {rep.messages}"
        )
    return problems


def _check_serve_repeat(p: Params, seed: int, rep: Rep) -> List[str]:
    """Re-run the lowest ladder rate; its serve digest must repeat."""
    again = serve_rep(replace(p, rates=p.rates[:1]), seed)
    if again.extra["rate_digests"][0] != rep.extra["rate_digests"][0]:
        return ["serve digest differs between repeats of the same session"]
    return []
