"""Performance benchmark harness (``repro bench``).

Runs a pinned scenario matrix over the engines this reproduction
ships — the vectorized pass engine (:class:`repro.core.ChaoticPagerank`),
the sharded protocol simulator
(:class:`repro.simulation.P2PPagerankSimulation`), and the concurrent
asyncio runtime (:class:`repro.runtime.AsyncPeerRuntime`, deterministic
scheduler mode over the in-memory transport) — and records wall-time,
pass counts, and bytes-on-wire into a JSON file
(``BENCH_pagerank.json`` at the repo root by convention).

The matrix is pinned: N ∈ {1k, 10k, 100k} documents, message loss
∈ {0, 0.2} (protocol simulator only — the vectorized engine models a
lossless network), churn on/off (75 % availability when on), plus one
1k-document async-runtime row (``async_runtime_1k``; for runtime rows
the ``passes`` column records scheduler rounds).  On top of the
matrix, a dedicated 10k convergence scenario measures the sharded
(``csr``) simulator against the per-edge Python (``naive``) path — the
speedup sharding buys — the payload's ``async_vs_pass`` entry pairs
the async runtime's wall-time with the pass simulator's on the
matching 1k scenario, and ``parallel_vs_serial`` pairs the
multi-process sharded engine (:mod:`repro.parallel`) with the serial
vectorized engine at the largest common size, recording ``cpu_count``
because the ratio is hardware-dependent (a single-core host pays the
process/barrier overhead with no parallel compute to buy it back).

Pass counts, message counts, and bytes are **deterministic** (same
seeds → same values); :func:`compare_results` checks them for exact
equality against a previously committed file.  Wall-times are not
portable across machines, so every run also times a fixed calibration
workload and comparisons scale the committed wall-times by the ratio
of calibration times before applying the regression threshold.

Run it::

    python -m repro bench                  # full matrix, writes JSON
    python -m repro bench --smoke          # 1k rows only
    python -m repro bench --smoke --compare  # regression-check, no write

See docs/PERFORMANCE.md for how to read the output.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "BenchScenario",
    "BenchResult",
    "BenchComparison",
    "default_matrix",
    "speedup_scenarios",
    "calibrate",
    "run_scenario",
    "run_bench",
    "compare_results",
    "render_results",
    "configure_parser",
    "main",
]

#: Schema version of the JSON payload.
SCHEMA_VERSION = 1

#: Default wall-time regression threshold (fraction over committed).
DEFAULT_THRESHOLD = 0.25

#: Absolute wall-time slack added on top of the fractional threshold.
#: Millisecond-scale rows (the 1k smoke scenarios run in ~3 ms) sit at
#: the granularity of scheduler noise, where a pure ratio check flakes;
#: the additive floor makes the gate meaningful at every row size
#: without loosening the multi-second rows.
WALL_SLACK_S = 0.05

#: Peers used at each pinned graph size.
PEERS_AT = {1_000: 50, 10_000: 100, 100_000: 500}

#: Availability fraction of the churn-on rows (the paper's 75 % column).
CHURN_AVAILABILITY = 0.75


@dataclass(frozen=True)
class BenchScenario:
    """One pinned cell of the benchmark matrix.

    ``engine`` is ``"vectorized"`` (the pass engine), ``"simulator"``
    (the protocol-level simulator), ``"runtime"`` (the concurrent
    asyncio runtime in deterministic scheduler mode — its ``passes``
    measurement records scheduler rounds), ``"parallel"`` (the
    multi-process sharded engine of :mod:`repro.parallel`, with
    ``workers`` worker processes), or ``"serve"`` (the query-serving
    layer of :mod:`repro.serve` offering ``qps`` queries per clock
    unit for ``duration`` units — its ``passes`` measurement records
    completed queries and ``messages`` the document ids moved);
    ``kernel`` is the :func:`repro.core.kernel_backend` the run is
    pinned to.
    """

    name: str
    engine: str
    docs: int
    peers: int
    epsilon: float
    loss: float
    churn: bool
    kernel: str = "csr"
    seed: int = 7
    max_passes: int = 5_000
    repeats: int = 1
    workers: int = 1
    qps: float = 0.0
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.engine not in (
            "vectorized", "simulator", "runtime", "parallel", "serve"
        ):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.kernel not in ("csr", "naive"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.engine == "vectorized" and self.loss:
            raise ValueError("the vectorized engine models a lossless network")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.workers > 1 and self.engine != "parallel":
            raise ValueError(
                f"workers applies to the parallel engine only, got {self.engine!r}"
            )
        if self.engine == "serve":
            if self.qps <= 0 or self.duration <= 0:
                raise ValueError("serve scenarios need qps > 0 and duration > 0")
            if self.loss or self.churn:
                raise ValueError(
                    "serve scenarios run a lossless, churn-free runtime"
                )
        elif self.qps or self.duration:
            raise ValueError(
                f"qps/duration apply to the serve engine only, got {self.engine!r}"
            )


@dataclass(frozen=True)
class BenchResult:
    """Measured outcome of one scenario: the deterministic protocol
    numbers (passes/messages/bytes/converged) plus wall-time.

    ``extra`` carries engine-specific measurements flattened into the
    JSON row — the serve engine records achieved QPS, latency
    percentiles, and cache hit rate there (docs/PERFORMANCE.md,
    "Serve rows").
    """

    scenario: BenchScenario
    wall_s: float
    passes: int
    messages: int
    bytes_on_wire: int
    converged: bool
    extra: Optional[Dict[str, float]] = None

    def to_json(self) -> Dict[str, object]:
        d = dict(asdict(self.scenario))
        d.update(
            wall_s=self.wall_s,
            passes=self.passes,
            messages=self.messages,
            bytes_on_wire=self.bytes_on_wire,
            converged=self.converged,
        )
        if self.extra:
            d.update(self.extra)
        return d


@dataclass(frozen=True)
class BenchComparison:
    """Outcome of checking a fresh run against a committed file."""

    regressions: List[str]
    mismatches: List[str]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.mismatches


def default_matrix(*, smoke: bool = False) -> List[BenchScenario]:
    """The pinned scenario matrix.

    ``smoke`` restricts it to the 1k-document rows (the CI smoke job);
    the full matrix covers N ∈ {1k, 10k, 100k}.
    """
    sizes = [1_000] if smoke else [1_000, 10_000, 100_000]
    scenarios: List[BenchScenario] = []
    for docs in sizes:
        peers = PEERS_AT[docs]
        label = f"{docs // 1000}k"
        for churn in (False, True):
            suffix = "churn" if churn else "stable"
            scenarios.append(
                BenchScenario(
                    name=f"engine_{label}_{suffix}",
                    engine="vectorized",
                    docs=docs,
                    peers=peers,
                    epsilon=1e-4,
                    loss=0.0,
                    churn=churn,
                )
            )
            for loss in (0.0, 0.2):
                loss_tag = f"loss{int(loss * 100)}"
                scenarios.append(
                    BenchScenario(
                        name=f"sim_{label}_{loss_tag}_{suffix}",
                        engine="simulator",
                        docs=docs,
                        peers=peers,
                        epsilon=1e-4,
                        loss=loss,
                        churn=churn,
                    )
                )
    # One async-runtime row: the concurrent runtime is a per-document
    # Python path, so it is priced at 1k only (enough to track the
    # async-vs-pass ratio without dominating the matrix's wall-time).
    scenarios.append(
        BenchScenario(
            name="async_runtime_1k",
            engine="runtime",
            docs=1_000,
            peers=PEERS_AT[1_000],
            epsilon=1e-4,
            loss=0.0,
            churn=False,
        )
    )
    # Sharded multi-process engine rows.  The smoke matrix carries one
    # 2-worker 1k row (the CI parallel-smoke gate); the full matrix
    # scales workers at 10k and prices the 100k w∈{1,4}
    # parallel-vs-serial pair.  Protocol numbers of every parallel row
    # are worker-count-invariant, so they compare exactly like the
    # serial rows'.
    if smoke:
        parallel_rows = [("parallel_1k_w2", 1_000, 2)]
    else:
        parallel_rows = [
            ("parallel_1k_w2", 1_000, 2),
            ("parallel_10k_w1", 10_000, 1),
            ("parallel_10k_w2", 10_000, 2),
            ("parallel_10k_w4", 10_000, 4),
            ("parallel_100k_w1", 100_000, 1),
            ("parallel_100k_w4", 100_000, 4),
        ]
    for name, docs, workers in parallel_rows:
        scenarios.append(
            BenchScenario(
                name=name,
                engine="parallel",
                docs=docs,
                peers=PEERS_AT[docs],
                epsilon=1e-4,
                loss=0.0,
                churn=False,
                workers=workers,
            )
        )
    # Query-serving rows: the 1k-document corpus served at 1,000 QPS
    # (smoke) and 10,000 QPS (full matrix, the open-loop overload
    # regime).  Names key on offered QPS; the durations are short —
    # offered load, not wall-time, is what scales the row.
    serve_rows = [("serve_qps_1k", 1_000.0, 2.0)]
    if not smoke:
        serve_rows.append(("serve_qps_10k", 10_000.0, 1.0))
    for name, qps, duration in serve_rows:
        scenarios.append(
            BenchScenario(
                name=name,
                engine="serve",
                docs=1_000,
                peers=PEERS_AT[1_000],
                epsilon=1e-4,
                loss=0.0,
                churn=False,
                qps=qps,
                duration=duration,
            )
        )
    return scenarios


def speedup_scenarios(*, docs: int = 10_000) -> List[BenchScenario]:
    """The convergence speedup pair: the same simulator scenario on the
    per-edge ``naive`` path and the sharded ``csr`` path.

    Pinned at 50 peers (200 documents each at 10k) and best-of-two
    timing, so the recorded ratio reflects steady-state per-pass cost
    rather than scheduler noise.
    """
    label = f"{docs // 1000}k"
    return [
        BenchScenario(
            name=f"speedup_sim_{label}_{kernel}",
            engine="simulator",
            docs=docs,
            peers=50,
            epsilon=1e-4,
            loss=0.0,
            churn=False,
            kernel=kernel,
            repeats=2,
        )
        for kernel in ("naive", "csr")
    ]


def calibrate(*, docs: int = 50_000, repeats: int = 20) -> float:
    """Time a fixed kernel workload, for cross-machine scaling.

    The workload (``repeats`` full pull passes over a pinned synthetic
    graph) is deterministic; only its duration varies with the host.
    Comparisons divide current by committed calibration time to scale
    committed wall-times onto this machine before thresholding.
    """
    from repro.core import make_workspace
    from repro.graphs import broder_graph

    graph = broder_graph(docs, seed=0)
    ws = make_workspace(graph)
    values = np.ones(graph.num_nodes)
    out = np.empty_like(values)
    start = time.perf_counter()
    for _ in range(repeats):
        ws.pull(values, 0.85, out=out)
    return time.perf_counter() - start


def run_scenario(scenario: BenchScenario) -> BenchResult:
    """Execute one scenario and measure it.

    The kernel backend is pinned by temporarily setting the
    ``REPRO_KERNEL`` environment switch around engine construction
    (peers/workspaces read it when built).
    """
    from repro.core.kernels import _KERNEL_ENV

    previous = os.environ.get(_KERNEL_ENV)
    os.environ[_KERNEL_ENV] = scenario.kernel
    runner = {
        "vectorized": _run_vectorized,
        "simulator": _run_simulator,
        "runtime": _run_runtime,
        "parallel": _run_parallel,
        "serve": _run_serve,
    }[scenario.engine]
    try:
        result = runner(scenario)
        for _ in range(scenario.repeats - 1):
            again = runner(scenario)
            if (again.passes, again.messages, again.converged) != (
                result.passes, result.messages, result.converged
            ):
                raise AssertionError(
                    f"{scenario.name}: repeat diverged — same seeds must "
                    "give identical protocol numbers"
                )
            if again.wall_s < result.wall_s:
                result = again
        return result
    finally:
        if previous is None:
            os.environ.pop(_KERNEL_ENV, None)
        else:
            os.environ[_KERNEL_ENV] = previous


def _run_vectorized(scenario: BenchScenario) -> BenchResult:
    from repro.core import ChaoticPagerank
    from repro.graphs import broder_graph
    from repro.p2p import DocumentPlacement, FixedFractionChurn
    from repro.p2p.messages import MESSAGE_SIZE_BYTES

    graph = broder_graph(scenario.docs, seed=scenario.seed)
    placement = DocumentPlacement.random(
        scenario.docs, scenario.peers, seed=scenario.seed + 1
    )
    engine = ChaoticPagerank(
        graph,
        placement.assignment,
        num_peers=scenario.peers,
        epsilon=scenario.epsilon,
    )
    availability = (
        FixedFractionChurn(
            scenario.peers, CHURN_AVAILABILITY, seed=scenario.seed + 2
        )
        if scenario.churn
        else None
    )
    start = time.perf_counter()
    report = engine.run(
        availability=availability,
        keep_history=False,
        max_passes=scenario.max_passes,
    )
    wall = time.perf_counter() - start
    return BenchResult(
        scenario=scenario,
        wall_s=wall,
        passes=report.passes,
        messages=report.total_messages,
        bytes_on_wire=report.total_messages * MESSAGE_SIZE_BYTES,
        converged=report.converged,
    )


def _run_parallel(scenario: BenchScenario) -> BenchResult:
    from repro.faults.plan import FaultSpec
    from repro.graphs import broder_graph
    from repro.p2p import DocumentPlacement, FixedFractionChurn
    from repro.p2p.messages import MESSAGE_SIZE_BYTES
    from repro.parallel import ParallelPagerank

    graph = broder_graph(scenario.docs, seed=scenario.seed)
    placement = DocumentPlacement.random(
        scenario.docs, scenario.peers, seed=scenario.seed + 1
    )
    engine = ParallelPagerank(
        graph,
        placement.assignment,
        num_peers=scenario.peers,
        epsilon=scenario.epsilon,
        workers=scenario.workers,
    )
    availability = (
        FixedFractionChurn(
            scenario.peers, CHURN_AVAILABILITY, seed=scenario.seed + 2
        )
        if scenario.churn
        else None
    )
    fault_spec = FaultSpec(drop_rate=scenario.loss) if scenario.loss else None
    start = time.perf_counter()
    report = engine.run(
        availability=availability,
        fault_spec=fault_spec,
        fault_seed=scenario.seed + 3,
        keep_history=False,
        max_passes=scenario.max_passes,
    )
    wall = time.perf_counter() - start
    return BenchResult(
        scenario=scenario,
        wall_s=wall,
        passes=report.passes,
        messages=report.total_messages,
        bytes_on_wire=report.total_messages * MESSAGE_SIZE_BYTES,
        converged=report.converged,
    )


def _run_simulator(scenario: BenchScenario) -> BenchResult:
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.graphs import broder_graph
    from repro.p2p import DocumentPlacement, FixedFractionChurn, P2PNetwork
    from repro.simulation import P2PPagerankSimulation

    graph = broder_graph(scenario.docs, seed=scenario.seed)
    placement = DocumentPlacement.random(
        scenario.docs, scenario.peers, seed=scenario.seed + 1
    )
    network = P2PNetwork(scenario.peers, placement, build_ring=False)
    faults = (
        FaultPlan(FaultSpec(drop_rate=scenario.loss), seed=scenario.seed + 3)
        if scenario.loss
        else None
    )
    sim = P2PPagerankSimulation(
        graph, network, epsilon=scenario.epsilon, faults=faults
    )
    availability = (
        FixedFractionChurn(
            scenario.peers, CHURN_AVAILABILITY, seed=scenario.seed + 2
        )
        if scenario.churn
        else None
    )
    start = time.perf_counter()
    report = sim.run(
        availability=availability,
        keep_history=False,
        max_passes=scenario.max_passes,
    )
    wall = time.perf_counter() - start
    return BenchResult(
        scenario=scenario,
        wall_s=wall,
        passes=report.passes,
        messages=sim.traffic.update_messages,
        bytes_on_wire=sim.traffic.bytes_transferred,
        converged=report.converged,
    )


def _run_runtime(scenario: BenchScenario) -> BenchResult:
    import asyncio

    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.graphs import broder_graph
    from repro.p2p import DocumentPlacement, P2PNetwork
    from repro.p2p.messages import ACK_SIZE_BYTES, MESSAGE_SIZE_BYTES
    from repro.runtime import AsyncPeerRuntime, OnOffSchedule

    graph = broder_graph(scenario.docs, seed=scenario.seed)
    placement = DocumentPlacement.random(
        scenario.docs, scenario.peers, seed=scenario.seed + 1
    )
    network = P2PNetwork(scenario.peers, placement, build_ring=False)
    faults = (
        FaultPlan(FaultSpec(drop_rate=scenario.loss), seed=scenario.seed + 3)
        if scenario.loss
        else None
    )
    availability = (
        OnOffSchedule(scenario.peers, mean_up=30.0, mean_down=10.0,
                      seed=scenario.seed + 2)
        if scenario.churn
        else None
    )
    runtime = AsyncPeerRuntime(
        graph,
        network,
        epsilon=scenario.epsilon,
        faults=faults,
        availability=availability,
        seed=scenario.seed + 4,
    )
    start = time.perf_counter()
    report = asyncio.run(runtime.run())
    wall = time.perf_counter() - start
    return BenchResult(
        scenario=scenario,
        wall_s=wall,
        passes=report.rounds,
        messages=report.messages,
        bytes_on_wire=(
            report.messages * MESSAGE_SIZE_BYTES + report.acks * ACK_SIZE_BYTES
        ),
        converged=report.converged,
    )


def _run_serve(scenario: BenchScenario) -> BenchResult:
    from repro.serve.service import ServeConfig, ServeSession

    config = ServeConfig(
        docs=scenario.docs,
        peers=scenario.peers,
        seed=scenario.seed,
        qps=scenario.qps,
        duration=scenario.duration,
        epsilon=scenario.epsilon,
    )
    session = ServeSession(config)
    start = time.perf_counter()
    report = session.run()
    wall = time.perf_counter() - start
    return BenchResult(
        scenario=scenario,
        wall_s=wall,
        passes=report.completed,
        messages=report.traffic_doc_ids,
        bytes_on_wire=report.bytes_on_wire,
        converged=report.runtime.converged,
        extra={
            "qps_achieved": report.qps_achieved,
            "latency_p50_s": report.latency_p50,
            "latency_p99_s": report.latency_p99,
            "cache_hit_rate": report.cache_hit_rate,
            "shed_rate": report.shed_rate,
        },
    )


def run_bench(
    *,
    smoke: bool = False,
    with_speedup: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the pinned matrix (plus the speedup pair) and return the
    JSON-ready payload.

    ``progress`` is an optional callable invoked with a line of text
    per completed scenario (the CLI passes ``print``).
    """
    results: List[BenchResult] = []
    scenarios = default_matrix(smoke=smoke)
    if with_speedup and not smoke:
        scenarios = scenarios + speedup_scenarios()
    calibration = calibrate()
    if progress is not None:
        progress(f"calibration workload: {calibration:.3f}s")
    for scenario in scenarios:
        result = run_scenario(scenario)
        results.append(result)
        if progress is not None:
            progress(
                f"{scenario.name}: wall={result.wall_s:.3f}s "
                f"passes={result.passes} bytes={result.bytes_on_wire} "
                f"converged={result.converged}"
            )
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "calibration_s": calibration,
        "cpu_count": os.cpu_count(),
        "scenarios": [r.to_json() for r in results],
    }
    by_name = {r.scenario.name: r for r in results}
    naive = by_name.get("speedup_sim_10k_naive")
    csr = by_name.get("speedup_sim_10k_csr")
    if naive is not None and csr is not None:
        payload["speedup_10k"] = {
            "naive_wall_s": naive.wall_s,
            "csr_wall_s": csr.wall_s,
            "ratio": naive.wall_s / csr.wall_s if csr.wall_s else float("inf"),
        }
    # Parallel-vs-serial pair at the largest size both engines ran.
    # The ratio is hardware-dependent: on a single-core host the
    # multi-process run adds barrier/IPC overhead with no parallel
    # compute to buy it back, so the pair records ``cpu_count``
    # alongside the honest measurement instead of asserting a floor
    # (docs/PERFORMANCE.md "Sharded execution model").
    for label in ("100k", "10k", "1k"):
        serial_row = by_name.get(f"engine_{label}_stable")
        par_rows = {
            w: by_name.get(f"parallel_{label}_w{w}") for w in (1, 2, 4)
        }
        best = next(
            (par_rows[w] for w in (4, 2, 1) if par_rows[w] is not None), None
        )
        if serial_row is not None and best is not None:
            payload["parallel_vs_serial"] = {
                "docs": serial_row.scenario.docs,
                "cpu_count": os.cpu_count(),
                "serial_wall_s": serial_row.wall_s,
                "parallel_workers": best.scenario.workers,
                "parallel_wall_s": best.wall_s,
                "ratio": (
                    serial_row.wall_s / best.wall_s
                    if best.wall_s
                    else float("inf")
                ),
            }
            break
    async_row = by_name.get("async_runtime_1k")
    pass_row = by_name.get("sim_1k_loss0_stable")
    if async_row is not None and pass_row is not None:
        payload["async_vs_pass"] = {
            "async_wall_s": async_row.wall_s,
            "pass_wall_s": pass_row.wall_s,
            "ratio": (
                async_row.wall_s / pass_row.wall_s
                if pass_row.wall_s
                else float("inf")
            ),
        }
    return payload


def compare_results(
    current: Dict[str, object],
    committed: Dict[str, object],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchComparison:
    """Check a fresh payload against a committed one.

    Deterministic protocol numbers (passes, messages, bytes,
    convergence) must match exactly for every scenario present in both
    files with the same parameters.  Wall-times regress when the
    current time exceeds the committed time — scaled by the ratio of
    calibration workloads — by more than ``threshold``.
    """
    regressions: List[str] = []
    mismatches: List[str] = []
    cur_cal = float(current.get("calibration_s", 0.0))
    old_cal = float(committed.get("calibration_s", 0.0))
    scale = cur_cal / old_cal if cur_cal > 0 and old_cal > 0 else 1.0
    committed_rows = {
        row["name"]: row for row in committed.get("scenarios", [])
    }
    checked = 0
    param_keys = (
        "engine", "kernel", "docs", "peers", "epsilon", "loss", "churn",
        "seed", "max_passes", "workers", "qps", "duration",
    )
    for row in current.get("scenarios", []):
        old = committed_rows.get(row["name"])
        if old is None:
            continue
        if any(row.get(k) != old.get(k) for k in param_keys):
            # Parameters changed: the committed row is a different
            # experiment, not a baseline.
            continue
        checked += 1
        deterministic = ["passes", "messages", "bytes_on_wire", "converged"]
        if row.get("engine") == "serve":
            # Serving runs on the virtual clock, so even its latency
            # percentiles are seeded and exact (docs/SERVING.md).
            deterministic += [
                "qps_achieved", "latency_p50_s", "latency_p99_s",
                "cache_hit_rate", "shed_rate",
            ]
        for key in deterministic:
            if row.get(key) != old.get(key):
                mismatches.append(
                    f"{row['name']}: {key} changed "
                    f"{old.get(key)} -> {row.get(key)} (deterministic "
                    "protocol number; same seeds must give same values)"
                )
        allowed = float(old["wall_s"]) * scale * (1.0 + threshold) + WALL_SLACK_S
        if float(row["wall_s"]) > allowed:
            regressions.append(
                f"{row['name']}: wall {row['wall_s']:.3f}s exceeds "
                f"{allowed:.3f}s (committed {old['wall_s']:.3f}s x "
                f"calibration {scale:.2f} x {1 + threshold:.2f} "
                f"+ {WALL_SLACK_S:.2f}s slack)"
            )
    return BenchComparison(
        regressions=regressions, mismatches=mismatches, checked=checked
    )


def render_results(payload: Dict[str, object]) -> str:
    """Human-readable table of a payload (the CLI's stdout)."""
    lines = [
        f"{'scenario':34} {'engine':10} {'kernel':6} "
        f"{'wall_s':>8} {'passes':>6} {'bytes':>12} conv"
    ]
    for row in payload.get("scenarios", []):
        lines.append(
            f"{row['name']:34} {row['engine']:10} {row['kernel']:6} "
            f"{row['wall_s']:8.3f} {row['passes']:6d} "
            f"{row['bytes_on_wire']:12d} {str(row['converged'])}"
        )
    speedup = payload.get("speedup_10k")
    if speedup:
        lines.append(
            f"\n10k simulator speedup (per-edge naive vs sharded csr): "
            f"{speedup['ratio']:.2f}x "
            f"({speedup['naive_wall_s']:.3f}s -> {speedup['csr_wall_s']:.3f}s)"
        )
    pair = payload.get("parallel_vs_serial")
    if pair:
        lines.append(
            f"\n{pair['docs']} docs parallel (w={pair['parallel_workers']}) "
            f"vs serial wall-time: {pair['ratio']:.2f}x "
            f"(serial {pair['serial_wall_s']:.3f}s, parallel "
            f"{pair['parallel_wall_s']:.3f}s, {pair['cpu_count']} CPUs)"
        )
    async_vs_pass = payload.get("async_vs_pass")
    if async_vs_pass:
        lines.append(
            f"\n1k async runtime vs pass simulator wall-time: "
            f"{async_vs_pass['ratio']:.2f}x "
            f"(async {async_vs_pass['async_wall_s']:.3f}s, "
            f"pass {async_vs_pass['pass_wall_s']:.3f}s)"
        )
    serve_rows = [
        row for row in payload.get("scenarios", [])
        if row.get("engine") == "serve"
    ]
    for row in serve_rows:
        lines.append(
            f"\n{row['name']}: achieved {row['qps_achieved']:.0f} qps "
            f"(offered {row['qps']:.0f}), latency p50 "
            f"{row['latency_p50_s']:.4f}s / p99 {row['latency_p99_s']:.4f}s, "
            f"cache hit rate {row['cache_hit_rate']:.2f}, "
            f"shed rate {row['shed_rate']:.2f}"
        )
    return "\n".join(lines)


def main(args) -> int:
    """``repro bench`` command body (parsed-args entry point)."""
    payload = run_bench(
        smoke=args.smoke,
        with_speedup=not args.smoke,
        progress=print,
    )
    print()
    print(render_results(payload))
    out_path = args.out
    if args.compare:
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                committed = json.load(fh)
        except FileNotFoundError:
            print(f"\nno committed benchmark file at {out_path}; nothing to compare")
            return 1
        comparison = compare_results(
            payload, committed, threshold=args.threshold
        )
        print(
            f"\ncompared {comparison.checked} scenarios against {out_path} "
            f"(threshold {args.threshold:.0%})"
        )
        for line in comparison.mismatches:
            print(f"MISMATCH: {line}")
        for line in comparison.regressions:
            print(f"REGRESSION: {line}")
        if not comparison.ok:
            return 1
        print("no regressions")
        return 0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {out_path}")
    return 0


def configure_parser(parser) -> None:
    """Attach ``repro bench`` arguments (shared with tests)."""
    parser.add_argument(
        "--smoke", action="store_true",
        help="run only the 1k-document rows (CI smoke job)",
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_pagerank.json",
        help="benchmark JSON path (committed at the repo root)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="compare against the existing JSON instead of overwriting it; "
        "exit 1 on wall-time regression or protocol-number mismatch",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="allowed fractional wall-time regression (default 0.25)",
    )
