"""One benchmark run of one workload: repeat, time, check, summarise.

An end-to-end run (``trace=False``) repeats the workload until the time
budget is spent and reports medians; nothing is wrapped.  A traced run
(``trace=True``) alternates untraced and traced repetitions of the same
inputs, derives the per-layer metrics from the traced ones, and reports
the tracing overhead as the gap between the two.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import tracing
import workloads as wl

#: Repetitions every run makes at least, whatever the time budget.
MIN_REPS = {"static_1m": 3, "sim_100k": 2, "lossy_churn_30k": 2, "serve_zipf": 1}

#: Ladder labels, by position in the rate ladder.
RATE_LABELS = tuple(f"q{int(r)}" for r in wl.FULL["serve_zipf"].rates)
#: Ladder position of the rate the single-rate serving figures use.
REFERENCE_RATE = RATE_LABELS.index("q1000")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "passes": "count",
    "bytes_on_wire": "bytes",
    "rank_err_p99": "ratio",
    "error_bound": "L1",
}

#: Per-layer metrics: name -> unit.  Layers a workload does not use
#: report 0.
PER_LAYER = {
    "graphs.synth_s": "s",
    "graphs.edges": "count",
    "p2p.placement_s": "s",
    "p2p.network_build_s": "s",
    "kernels.workspace_build_s": "s",
    "kernels.pull_s": "s",
    "kernels.pull_bytes_computed": "bytes",
    "kernels.run_pull_s": "s",
    "core.run_s": "s",
    "core.passes": "count",
    "core.pass_s_p50": "s",
    "core.pass_s_p99": "s",
    "parallel.run_s": "s",
    "parallel.speedup": "ratio",
    "parallel.exchange_bytes": "bytes",
    "peer.compute_pass_s": "s",
    "peer.compute_pass_calls": "count",
    "peer.receive_batch_s": "s",
    "peer.updates_received": "count",
    "peer.updates_applied": "count",
    "peer.apply_ratio": "ratio",
    "sim.engine_self_s": "s",
    "sim.pass_s_p50": "s",
    "sim.pass_s_p99": "s",
    "faults.send_s": "s",
    "faults.tick_s": "s",
    "faults.retries": "count",
    "faults.dropped_updates": "count",
    "faults.redeliveries_suppressed": "count",
    "faults.abandoned_updates": "count",
    "faults.delivery_ratio": "ratio",
    "runtime.transport_s": "s",
    "runtime.reliability_s": "s",
    "runtime.self_s": "s",
    "runtime.rounds": "count",
    "runtime.messages": "count",
    "runtime.acks": "count",
    "search.corpus_s": "s",
    "search.index_build_s": "s",
    "search.refresh_ranks_s": "s",
    "search.refresh_calls": "count",
    "search.index_update_messages": "count",
    "serve.route_s": "s",
    "serve.route_calls": "count",
    "serve.self_s": "s",
    "serve.cache_hit_rate": "ratio",
    "serve.location_cache_hit_rate": "ratio",
    "serve.dht_hops": "count",
    "serve.admit_calls": "count",
    "serve.shed": "count",
    "serve.retries": "count",
    "serve.peak_queue_depth": "count",
    "serve.query_p50_s": "s",
    **{f"serve.query_p99_s.{label}": "s" for label in RATE_LABELS},
    "serve.shed_rate": "ratio",
    "serve.drop_rate": "ratio",
    "serve.capacity_qps": "1/s",
    "trace.overhead_frac": "ratio",
}


def _median(values: List[float]) -> Optional[float]:
    return float(statistics.median(values)) if values else None


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def host_record(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Where and how a result was measured."""
    import repro.bench

    nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "dataset_seed": wl.DATASET_SEED,
        "seconds": seconds,
        "nproc": nproc,
        "calibration_s": repro.bench.calibrate(),
        "parallel_workers": min(2, nproc),
    }


def _repeat(run_one, min_reps: int, seconds: float, cycle: int = 1) -> None:
    """Call ``run_one`` in whole cycles of ``cycle`` calls until
    ``min_reps`` calls are done and another cycle of average length
    would overrun ``seconds``.  Whole cycles give every realization the
    same weight in the medians."""
    start = time.perf_counter()
    done = 0
    while True:
        for _ in range(cycle):
            run_one()
        done += cycle
        elapsed = time.perf_counter() - start
        if done >= min_reps and elapsed * (done + cycle) / done > seconds:
            return


def _failures(reps: List[wl.Rep]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, stop reasons of the failures)."""
    reasons = [r for rep in reps for r in rep.stop_reasons]
    bad = [r for r in reasons if r != "converged"]
    return len(reasons), len(bad), bad


def end_to_end(
    reps: List[wl.Rep], firsts: List[wl.Rep], qualities: List[wl.Quality],
    peak_rss_mb: float,
) -> Dict[str, Optional[float]]:
    """Timings are medians over the repetitions whose runs all
    converged (a run that stopped for another reason is never reported
    as a timing); outputs are medians over the realizations."""
    good = [rep for rep in reps if all(r == "converged" for r in rep.stop_reasons)]
    return {
        "setup_s": _median([s for rep in good for s in rep.setup_s]),
        "run_s": _median([rep.run_s for rep in good]),
        "peak_rss_mb": peak_rss_mb,
        "passes": _median([rep.passes for rep in firsts]),
        "bytes_on_wire": _median([rep.bytes_on_wire for rep in firsts]),
        "rank_err_p99": _median([q.rank_err_p99 for q in qualities]),
        "error_bound": _median([q.error_bound for q in qualities]),
    }


def pull_metrics(graph) -> Dict[str, float]:
    """One full pull over the workload graph, median of five, and the
    bytes it moves, computed from the reverse-CSR array sizes."""
    import repro.core as core

    ws = core.make_workspace(graph)
    x = np.ones(graph.num_nodes)
    out = np.empty_like(x)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        ws.pull(x, wl.DAMPING, out=out)
        times.append(time.perf_counter() - t)
    n, e = graph.num_nodes, graph.num_edges
    # Per edge: index, weight and gathered value read, product written
    # and read back with its row id.  Per node: sum, output write and
    # the in-place epilogue.
    return {
        "kernels.pull_s": statistics.median(times),
        "kernels.pull_bytes_computed": 48 * e + 24 * n,
    }


def layer_metrics(
    workload: str, rep: wl.Rep, tracer: tracing.Tracer
) -> Dict[str, float]:
    """Per-layer figures of one traced repetition."""
    s = tracer.summary(wl.ROOT_SPAN[workload])
    counts = tracer.counts
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    m["graphs.synth_s"] = s.self_s.get("graphs.synth", 0.0)
    m["graphs.edges"] = rep.outputs[0][0].num_edges
    m["p2p.placement_s"] = s.self_s.get("p2p.placement", 0.0)
    m["p2p.network_build_s"] = s.self_s.get("p2p.network_build", 0.0)
    m["kernels.workspace_build_s"] = s.self_s.get("kernels.workspace_build", 0.0)
    m["kernels.run_pull_s"] = s.self_s.get("kernels.pull", 0.0)
    m["core.run_s"] = s.total_s.get("core.run", 0.0)
    if workload == "static_1m":
        m["core.passes"] = rep.passes
        m["core.pass_s_p50"] = _percentile(rep.pass_s, 50)
        m["core.pass_s_p99"] = _percentile(rep.pass_s, 99)
    elif workload in ("sim_100k", "lossy_churn_30k"):
        m["sim.pass_s_p50"] = _percentile(rep.pass_s, 50)
        m["sim.pass_s_p99"] = _percentile(rep.pass_s, 99)
    m["peer.compute_pass_s"] = s.self_s.get("peer.compute_pass", 0.0)
    m["peer.compute_pass_calls"] = s.calls.get("peer.compute_pass", 0)
    m["peer.receive_batch_s"] = s.self_s.get("peer.receive_batch", 0.0)
    received = counts.get("peer.updates_received", 0)
    applied = counts.get("peer.updates_applied", 0)
    m["peer.updates_received"] = received
    m["peer.updates_applied"] = applied
    m["peer.apply_ratio"] = applied / received if received else 0.0
    m["sim.engine_self_s"] = s.self_s.get("sim.run", 0.0)
    m["faults.send_s"] = s.self_s.get("faults.send", 0.0)
    m["faults.tick_s"] = s.self_s.get("faults.tick", 0.0)
    stats = rep.extra.get("fault_stats")
    if stats is not None:
        m["faults.retries"] = stats.retries
        m["faults.dropped_updates"] = stats.dropped_updates
        m["faults.redeliveries_suppressed"] = stats.redeliveries_suppressed
        m["faults.abandoned_updates"] = stats.abandoned_updates
        m["faults.delivery_ratio"] = rep.messages / (rep.messages + stats.dropped_updates)
    m["runtime.transport_s"] = s.self_s.get("runtime.transport", 0.0)
    m["runtime.reliability_s"] = s.self_s.get("runtime.reliability", 0.0)
    m["runtime.self_s"] = s.self_s.get("runtime.run", 0.0)
    m["search.corpus_s"] = s.self_s.get("search.corpus", 0.0)
    m["search.index_build_s"] = s.self_s.get("search.index_build", 0.0)
    m["search.refresh_ranks_s"] = s.self_s.get("search.refresh_ranks", 0.0)
    m["search.refresh_calls"] = s.calls.get("search.refresh_ranks", 0)
    m["search.index_update_messages"] = counts.get("search.index_update_messages", 0)
    m["serve.route_s"] = s.self_s.get("serve.route", 0.0)
    m["serve.route_calls"] = s.calls.get("serve.route", 0)
    # The session's own event loop, cache and admission work.
    m["serve.self_s"] = sum(
        v for k, v in s.self_s.items()
        if k.startswith("serve.") and k not in ("serve.route", "serve.build")
    )
    m["serve.admit_calls"] = s.calls.get("serve.admit", 0)
    m.update(serve_metrics(rep))
    return m


def serve_metrics(rep: wl.Rep) -> Dict[str, float]:
    """Ladder figures of a serving repetition (empty for the others)."""
    per_rate = rep.extra.get("per_rate")
    if not per_rate:
        return {}
    rows = list(per_rate.values())
    offered = sum(r["offered"] for r in rows)
    lookups = sum(r["location_lookups"] for r in rows)
    ref = rows[REFERENCE_RATE]
    capacity = 0.0
    for qps, r in per_rate.items():
        if r["p99"] <= wl.SERVE_P99_LIMIT and r["dropped"] == 0:
            capacity = max(capacity, qps)
    m = {
        "runtime.rounds": sum(r["rounds"] for r in rows),
        "runtime.messages": sum(r["runtime_messages"] for r in rows),
        "runtime.acks": sum(r["runtime_acks"] for r in rows),
        "serve.cache_hit_rate": sum(r["cache_hit_rate"] * r["offered"] for r in rows) / offered,
        "serve.location_cache_hit_rate": (
            sum(r["location_hits"] for r in rows) / lookups if lookups else 0.0
        ),
        "serve.dht_hops": sum(r["dht_hops"] for r in rows),
        "serve.shed": sum(r["shed"] for r in rows),
        "serve.retries": sum(r["retries"] for r in rows),
        "serve.peak_queue_depth": max(r["peak_queue_depth"] for r in rows),
        "serve.query_p50_s": ref["p50"],
        "serve.shed_rate": ref["shed_rate"],
        "serve.drop_rate": sum(r["dropped"] for r in rows) / offered,
        "serve.capacity_qps": capacity,
    }
    for label, r in zip(RATE_LABELS, rows):
        m[f"serve.query_p99_s.{label}"] = r["p99"]
    return m


def parallel_metrics(p: wl.Params, rep: wl.Rep) -> Tuple[Dict[str, float], List[str]]:
    """The multi-process engine on the static workload's inputs, with
    ``min(2, nproc)`` workers; its ranks must equal the serial ones."""
    import repro.parallel as parallel

    graph, serial_ranks = rep.outputs[0]
    engine = parallel.ParallelPagerank(
        graph, rep.extra["assignment"], num_peers=p.peers,
        workers=min(2, os.cpu_count() or 1), damping=wl.DAMPING, epsilon=wl.EPSILON,
    )
    try:
        t = time.perf_counter()
        report = engine.run(keep_history=False, max_passes=wl.MAX_PASSES)
        run_s = time.perf_counter() - t
    finally:
        stop_resource_tracker()
    problems = []
    if not np.array_equal(report.ranks, serial_ranks):
        problems.append("parallel engine ranks differ from the serial engine's")
    return {
        "parallel.run_s": run_s,
        "parallel.exchange_bytes": engine.last_exchange.bytes_on_wire,
    }, problems


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process and wait for it.

    Shared memory and semaphores start it on first use, and it would
    otherwise outlive this process.  Collecting first runs the
    finalizers of the engine's semaphores while the tracker still
    listens, so none of them starts it again at exit.
    """
    import multiprocessing.resource_tracker as resource_tracker

    gc.collect()
    resource_tracker._resource_tracker._stop()


def _originals() -> List[Tuple[str, str, object]]:
    out = []
    for owner_path, attr, _ in tracing.WRAPPED:
        owner = tracing.resolve(owner_path)
        out.append((owner_path, attr, owner.__dict__.get(attr, getattr(owner, attr))))
    return out


def measure(
    workload: str,
    params: wl.Params,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Optional[Path] = None,
    min_reps: Optional[int] = None,
) -> Dict[str, object]:
    """Run one workload and return its result record.

    Repetitions cycle through the workload's realizations; the first
    repetition of each keeps its outputs for the checks, later ones
    must reproduce its digest.
    """
    rep_fn = wl.REPS[workload]
    seeds = list(params.realization_seeds) or [seed]
    min_reps = MIN_REPS[workload] if min_reps is None else min_reps
    reps: List[wl.Rep] = []
    firsts: List[wl.Rep] = []
    traced: List[wl.Rep] = []
    per_rep: List[Dict[str, float]] = []
    last_tracer: List[tracing.Tracer] = []
    problems: List[str] = []

    def untraced() -> int:
        r = len(reps) % len(seeds)
        rep = rep_fn(params, seeds[r])
        rep.realization = r
        if len(firsts) <= r:
            firsts.append(rep)
        else:
            if rep.digest != firsts[r].digest:
                problems.append("repeat runs on the same inputs gave different outputs")
            rep.drop_outputs()
        reps.append(rep)
        return r

    def pair() -> None:
        r = untraced()
        tracer = tracing.Tracer()
        with tracer:
            rep = rep_fn(params, seeds[r], observe=True)
        if rep.digest != firsts[r].digest:
            problems.append("traced and untraced runs gave different outputs")
        per_rep.append(layer_metrics(workload, rep, tracer))
        traced.append(rep.drop_outputs())
        last_tracer[:] = [tracer]

    if not trace:
        _repeat(untraced, min_reps, seconds, cycle=len(seeds))
    else:
        before = _originals()
        _repeat(pair, 1, seconds)
        if _originals() != before:
            problems.append("a traced callable was not restored")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, failure_reasons = _failures(reps + traced)
    checked, qualities = wl.check(workload, params, seeds[: len(firsts)], firsts)
    problems += checked

    if not trace:
        metrics = end_to_end(reps, firsts, qualities, peak_rss_mb)
        units = END_TO_END
    else:
        metrics = {
            name: float(statistics.median(m[name] for m in per_rep)) for name in PER_LAYER
        }
        metrics.update(pull_metrics(firsts[0].outputs[0][0]))
        untraced_run = statistics.median(r.run_s for r in reps)
        traced_run = statistics.median(r.run_s for r in traced)
        metrics["trace.overhead_frac"] = (traced_run - untraced_run) / untraced_run
        if workload == "static_1m":
            par, par_problems = parallel_metrics(params, firsts[0])
            problems += par_problems
            metrics.update(par)
            metrics["parallel.speedup"] = metrics["core.run_s"] / par["parallel.run_s"]
        units = PER_LAYER
        problems += _span_layout_problems(workload, last_tracer[0])
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            last_tracer[0].save(out_dir / f"{workload}-seed{seed}-spans.npz")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
        "problems": sorted(set(problems)),
        "failure_reasons": failure_reasons,
        "reps": [_rep_record(rep, False) for rep in reps]
        + [_rep_record(rep, True) for rep in traced],
    }


def _rep_record(rep: wl.Rep, traced: bool) -> Dict[str, object]:
    return {
        "traced": traced,
        "realization": rep.realization,
        "setup_s": rep.setup_s,
        "run_s": rep.run_s,
        "passes": rep.passes,
        "stop_reasons": rep.stop_reasons,
    }


#: Layers that must stay silent on a workload.
ABSENT_LAYERS = {
    "static_1m": ("peer", "faults", "serve", "sim", "runtime", "search"),
    "sim_100k": ("faults", "serve", "runtime", "search", "core"),
    "lossy_churn_30k": ("serve", "runtime", "search", "core"),
    "serve_zipf": ("faults", "sim", "core"),
}


def _span_layout_problems(workload: str, tracer: tracing.Tracer) -> List[str]:
    """The layer self times must add up to the traced run, and layers a
    workload does not use must stay silent."""
    problems = []
    s = tracer.summary(wl.ROOT_SPAN[workload])
    for layer in ABSENT_LAYERS[workload]:
        if layer in s.layers:
            problems.append(f"layer {layer!r} traced on {workload}")
    covered = sum(s.layer_self_s.values())
    if not s.root_s or abs(covered / s.root_s - 1.0) > 1e-6:
        problems.append(f"layer self times add up to {covered:.6f} s of a {s.root_s:.6f} s run")
    return problems
