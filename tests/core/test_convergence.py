"""Tests of the convergence tracker and run reports."""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.core import ConvergenceTracker, PassStats, RunReport
from repro.core.convergence import PassInstruments, sample_live


def make_stats(i, messages=10, max_change=0.5):
    return PassStats(
        pass_index=i,
        max_rel_change=max_change,
        active_documents=3,
        messages=messages,
        deferred_messages=0,
        live_peers=5,
        computed_documents=20,
    )


class TestTracker:
    def test_accumulates_totals(self):
        t = ConvergenceTracker(1e-3)
        for i in range(4):
            t.record(make_stats(i, messages=i * 10))
        report = t.finish(np.ones(5), True)
        assert report.passes == 4
        assert report.total_messages == 60
        assert report.converged
        assert report.epsilon == 1e-3
        assert len(report.history) == 4

    def test_history_optional(self):
        t = ConvergenceTracker(1e-3, keep_history=False)
        t.record(make_stats(0))
        report = t.finish(np.ones(2), False)
        assert report.history == ()
        assert report.total_messages == 10

    def test_empty_run(self):
        report = ConvergenceTracker(0.5).finish(np.zeros(0), True)
        assert report.passes == 0
        assert report.messages_per_document == 0.0


class TestRunReport:
    def test_series_accessors(self):
        t = ConvergenceTracker(1e-3)
        t.record(make_stats(0, messages=5, max_change=0.9))
        t.record(make_stats(1, messages=2, max_change=0.1))
        report = t.finish(np.ones(10), True)
        assert report.messages_by_pass().tolist() == [5, 2]
        assert np.allclose(report.max_change_by_pass(), [0.9, 0.1])

    def test_messages_per_document(self):
        t = ConvergenceTracker(1e-3)
        t.record(make_stats(0, messages=30))
        report = t.finish(np.ones(10), True)
        assert report.messages_per_document == pytest.approx(3.0)

    def test_frozen(self):
        report = ConvergenceTracker(0.1).finish(np.ones(1), True)
        with pytest.raises(AttributeError):
            report.passes = 99


def test_bytes_by_pass():
    t = ConvergenceTracker(1e-3)
    t.record(make_stats(0, messages=5))
    t.record(make_stats(1, messages=2))
    report = t.finish(np.ones(4), True)
    assert report.bytes_by_pass().tolist() == [120, 48]
    assert report.bytes_by_pass(message_size_bytes=10).tolist() == [50, 20]


class _Instruments(PassInstruments):
    __slots__ = ()
    event = "demo.pass"

    def __init__(self, reg):
        super().__init__()
        self.passes = reg.counter("demo.passes")
        self.dead_passes = reg.counter("demo.dead_passes")
        self.live_peers = reg.gauge("demo.live_peers")
        self.residual = reg.gauge("demo.residual")


class TestPassRecord:
    def test_dead_pass_rule_counts_consecutive_passes(self):
        t = ConvergenceTracker(1e-3, max_dead_passes=3)
        t.dead_pass(0, deferred=4)
        t.dead_pass(1, deferred=4)
        t.record(make_stats(2))  # a live pass resets the streak
        t.dead_pass(3, deferred=1)
        t.dead_pass(4, deferred=1)
        with pytest.raises(RuntimeError, match="no live peers for 3 consecutive"):
            t.dead_pass(5, deferred=0)
        report = t.finish(np.ones(2), False)
        assert report.passes == 6
        dead = report.history[0]
        assert dead == PassStats(0, 0.0, 0, 0, 4, 0, 0)

    def test_max_dead_passes_validated(self):
        with pytest.raises(ValueError, match="max_dead_passes"):
            ConvergenceTracker(1e-3, max_dead_passes=0)

    def test_one_event_per_pass_with_the_record_fields(self):
        buf = io.StringIO()
        with obs.use_registry() as reg, obs.use_trace_sink(obs.TraceSink(buf)):
            t = ConvergenceTracker(1e-3, instruments=_Instruments(reg))
            t.record(make_stats(0, max_change=0.25))
            t.dead_pass(1, deferred=7)
            snap = reg.snapshot()
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [e["name"] for e in events] == ["demo.pass", "demo.pass"]
        assert events[0]["fields"] == {
            "pass_index": 0, "residual": 0.25, "active_documents": 3,
            "messages": 10, "deferred": 0, "resent": 0, "live_peers": 5,
            "computed_documents": 20,
        }
        assert events[1]["fields"]["deferred"] == 7
        assert events[1]["fields"]["live_peers"] == 0
        assert snap["demo.passes"]["value"] == 2
        assert snap["demo.dead_passes"]["value"] == 1
        assert snap["demo.live_peers"]["value"] == 0
        # A dead pass computes nothing, so it leaves the residual alone.
        assert snap["demo.residual"]["value"] == 0.25

    def test_default_instruments_emit_nothing(self):
        buf = io.StringIO()
        with obs.use_trace_sink(obs.TraceSink(buf)):
            ConvergenceTracker(1e-3).record(make_stats(0))
        assert buf.getvalue() == ""


class TestSampleLive:
    def test_none_means_all_present(self):
        assert sample_live(None, 0, 3).tolist() == [True, True, True]

    def test_shape_checked(self):
        class Wrong:
            def sample(self, pass_index):
                return np.ones(2, dtype=bool)

        with pytest.raises(ValueError, match=r"shape \(3,\), got \(2,\)"):
            sample_live(Wrong(), 0, 3)
