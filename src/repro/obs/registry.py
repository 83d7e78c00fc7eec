"""Process-local metrics registry (counters, gauges, histograms, timers).

The paper's whole evaluation is *measured* behaviour — convergence
passes (Table 1), message counts (Table 3), bytes on the wire and the
Eq. 4 execution time (§4.6) — and the ROADMAP's "no optimisation
without measuring" rule needs those measurements to come from one
shared instrument set instead of ad hoc arithmetic inside each engine.
This module provides that set:

* :class:`Counter` — monotonically increasing totals (messages sent,
  passes executed);
* :class:`Gauge` — last-observed values (current residual, live peers);
* :class:`Histogram` — bounded-memory distributions with exact
  count/total and percentile estimates (DHT hops, store depth);
* :class:`TimerMetric` — the existing :class:`repro._util.timers.Timer`
  folded into the registry so per-pass wall-clock shows up in the same
  snapshot.

All instruments are created *through* a :class:`MetricsRegistry`, and
the process-wide default registry is a :class:`NullRegistry` whose
instruments are shared no-op singletons: an uninstrumented run pays
only empty method calls, never allocation or arithmetic, so the
vectorized engines' timings do not regress (and their numerical output
is untouched either way — instrumentation only ever *reads* engine
state).

Enable collection for a region of code with::

    from repro import obs
    with obs.use_registry(obs.MetricsRegistry()) as reg:
        report = engine.run()
        print(obs.render_snapshot(reg.snapshot()))

or process-wide with :func:`enable` / :func:`disable`.  See
``docs/OBSERVABILITY.md`` for the metric catalogue.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro._util.timers import Timer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimerMetric",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "CounterMirror",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "use_registry",
]


class Counter:
    """Monotonically increasing count (messages, passes, bytes)."""

    __slots__ = ("name", "unit", "description", "value")

    def __init__(self, name: str, unit: str = "count", description: str = "") -> None:
        self.name = name
        self.unit = unit
        self.description = description
        self.value: Union[int, float] = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add ``n`` (must be >= 0) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc by {n})")
        self.value += n

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "counter",
            "unit": self.unit,
            "description": self.description,
            "value": self.value,
        }


class Gauge:
    """Last-observed value (current residual, live peers right now)."""

    __slots__ = ("name", "unit", "description", "value")

    def __init__(self, name: str, unit: str = "value", description: str = "") -> None:
        self.name = name
        self.unit = unit
        self.description = description
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "gauge",
            "unit": self.unit,
            "description": self.description,
            "value": self.value,
        }


class Histogram:
    """Distribution with exact count/sum and sampled percentiles.

    ``count``, ``total``, ``min`` and ``max`` are exact over every
    observation.  Percentiles come from a bounded sample buffer: when
    ``max_samples`` is reached the buffer is decimated (every other
    sample kept) and the keep-stride doubles, so memory stays O(cap)
    while the kept samples remain an even, deterministic thinning of
    the stream — no RNG, so test runs reproduce exactly.
    """

    __slots__ = (
        "name",
        "unit",
        "description",
        "count",
        "total",
        "min",
        "max",
        "max_samples",
        "_samples",
        "_stride",
        "_pending",
    )

    def __init__(
        self,
        name: str,
        unit: str = "value",
        description: str = "",
        *,
        max_samples: int = 4096,
    ) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.name = name
        self.unit = unit
        self.description = description
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.max_samples = int(max_samples)
        self._samples: List[float] = []
        self._stride = 1
        self._pending = 0  # observations until the next kept sample

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._pending == 0:
            self._samples.append(value)
            self._pending = self._stride - 1
            if len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2
        else:
            self._pending -= 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (0-100) from kept samples."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    def snapshot(self) -> Dict[str, object]:
        empty = self.count == 0
        return {
            "type": "histogram",
            "unit": self.unit,
            "description": self.description,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


@dataclass
class TimerMetric(Timer):
    """The :class:`~repro._util.timers.Timer` as a named registry
    instrument — same context-manager protocol (``with t: ...``), plus
    the metadata and ``snapshot()`` the registry needs."""

    name: str = ""
    unit: str = "seconds"
    description: str = ""

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": "timer",
            "unit": self.unit,
            "description": self.description,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named instrument store: get-or-create semantics per metric name.

    Instruments are identified by dotted names whose first segment is
    the emitting layer (``core.``, ``p2p.``, ``sim.`` — see
    ``docs/OBSERVABILITY.md``).  Asking twice for the same name returns
    the same instrument; asking for an existing name as a different
    instrument type raises ``TypeError``.
    """

    #: Real registries record; the null registry advertises False so hot
    #: paths can skip building trace payloads entirely.
    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # -- instrument factories ------------------------------------------
    def counter(self, name: str, *, unit: str = "count", description: str = "") -> Counter:
        return self._get_or_create(Counter, name, unit, description)

    def gauge(self, name: str, *, unit: str = "value", description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, unit, description)

    def histogram(
        self,
        name: str,
        *,
        unit: str = "value",
        description: str = "",
        max_samples: int = 4096,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = Histogram(
                name, unit, description, max_samples=max_samples
            )
        elif not isinstance(existing, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {type(existing).__name__}"
            )
        return existing

    def timer(self, name: str, *, description: str = "") -> TimerMetric:
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = TimerMetric(
                name=name, description=description
            )
        elif not isinstance(existing, TimerMetric):
            raise TypeError(
                f"metric {name!r} already registered as {type(existing).__name__}"
            )
        return existing

    def _get_or_create(self, cls, name: str, unit: str, description: str):
        existing = self._metrics.get(name)
        if existing is None:
            existing = self._metrics[name] = cls(name, unit, description)
        elif type(existing) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {type(existing).__name__}"
            )
        return existing

    # -- introspection --------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str):
        """The instrument registered under ``name`` (``None`` if absent)."""
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time copy of every metric, keyed by name.

        The returned dict is plain data (JSON-serialisable) — safe to
        store, diff, or attach to a results file.
        """
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    def clear(self) -> None:
        """Drop every registered instrument."""
        self._metrics.clear()


# ----------------------------------------------------------------------
# No-op twin: the zero-cost default
# ----------------------------------------------------------------------
class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, n: Union[int, float] = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullTimer(TimerMetric):
    def __enter__(self) -> "TimerMetric":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")
_NULL_TIMER = _NullTimer(name="null")


class NullRegistry(MetricsRegistry):
    """The default, disabled registry: every factory hands back a
    shared no-op instrument, ``snapshot()`` is always empty, and
    ``enabled`` is False so instrumentation sites can skip any work
    beyond the (empty) method call itself."""

    enabled = False

    def counter(self, name: str, *, unit: str = "count", description: str = "") -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, *, unit: str = "value", description: str = "") -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        *,
        unit: str = "value",
        description: str = "",
        max_samples: int = 4096,
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def timer(self, name: str, *, description: str = "") -> TimerMetric:
        return _NULL_TIMER


class CounterMirror:
    """Counters that mirror a dataclass of running totals field for
    field.

    A component keeps its plain-integer totals (readable without the
    obs layer) and calls :meth:`publish` whenever the registry should
    catch up; each counter gains what its field gained since the last
    call.  ``counters`` maps field names to counters the owner
    registered; ``baseline`` is the totals already accounted for.
    """

    __slots__ = ("_counters", "_published")

    def __init__(self, counters: Mapping[str, Counter], baseline: Any) -> None:
        self._counters = dict(counters)
        self._published = replace(baseline)

    def publish(self, totals: Any) -> None:
        """Add what ``totals`` gained since the last call to the counters."""
        for name, counter in self._counters.items():
            counter.inc(getattr(totals, name) - getattr(self._published, name))
        self._published = replace(totals)


#: The process-wide disabled registry (also the initial default).
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently active registry (the no-op one unless enabled)."""
    return _active


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active one and return it."""
    global _active
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(f"expected a MetricsRegistry, got {type(registry).__name__}")
    _active = registry
    return registry


def enable() -> MetricsRegistry:
    """Turn collection on process-wide.

    Installs a fresh :class:`MetricsRegistry` if the active one is the
    no-op registry; returns the already-active registry otherwise (so
    repeated ``enable()`` calls don't silently drop collected data).
    """
    if _active.enabled:
        return _active
    return set_registry(MetricsRegistry())


def disable() -> None:
    """Turn collection off process-wide (back to the no-op registry)."""
    set_registry(NULL_REGISTRY)


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Scoped activation: install ``registry`` (default: a fresh one)
    for the ``with`` body, restoring the previous registry after.

    >>> from repro.obs import use_registry
    >>> with use_registry() as reg:
    ...     reg.counter("demo.events").inc()
    ...     reg.snapshot()["demo.events"]["value"]
    1
    """
    previous = _active
    reg = set_registry(registry if registry is not None else MetricsRegistry())
    try:
        yield reg
    finally:
        set_registry(previous)
