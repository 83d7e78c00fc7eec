"""repro.obs — unified observability: metrics registry + event tracing.

One instrumentation layer for the whole system, sitting *below* every
engine in the import graph.  Two primitives:

* **Metrics** (:mod:`repro.obs.registry`): named counters, gauges,
  histograms and timers behind a :class:`MetricsRegistry`, snapshot-
  able as plain data.  The process default is a no-op registry, so all
  instrumentation is zero-cost until explicitly enabled.
* **Traces** (:mod:`repro.obs.trace`): a JSON-lines
  :class:`TraceSink` of point events and named spans, for per-pass /
  per-message timelines the aggregate metrics cannot express.

Quickstart::

    from repro import obs
    from repro.core import distributed_pagerank
    from repro.graphs import broder_graph

    with obs.use_registry() as reg:
        distributed_pagerank(broder_graph(10_000, seed=0), epsilon=1e-3)
        print(obs.render_snapshot(reg.snapshot()))

Or from the shell: ``python -m repro obs report``.  Every metric name,
its unit and its mapping to the paper's tables is documented in
``docs/OBSERVABILITY.md``.
"""

from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    CounterMirror,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    TimerMetric,
    disable,
    enable,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.report import layer_of, render_snapshot, snapshot_to_json
from repro.obs.trace import (
    NULL_TRACE_SINK,
    NullTraceSink,
    TraceSink,
    get_trace_sink,
    set_trace_sink,
    use_trace_sink,
)

__all__ = [
    "Counter",
    "CounterMirror",
    "Gauge",
    "Histogram",
    "TimerMetric",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "use_registry",
    "TraceSink",
    "NullTraceSink",
    "NULL_TRACE_SINK",
    "get_trace_sink",
    "set_trace_sink",
    "use_trace_sink",
    "render_snapshot",
    "snapshot_to_json",
    "layer_of",
]
