"""Unit tests for the telemetry recorder and summariser.

The recorder is process-global, so every test runs under an autouse fixture
that strips ``REPRO_TRACE`` and disables the recorder afterwards -- no test
may leak an enabled recorder into the rest of the suite.
"""

import json
import time

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import TraceError


@pytest.fixture(autouse=True)
def _clean_recorder(monkeypatch):
    monkeypatch.delenv(telemetry.TRACE_ENV, raising=False)
    telemetry.disable()
    yield
    telemetry.disable()


class TestRecorderLifecycle:
    def test_disabled_by_default(self):
        assert telemetry.trace_enabled() is False
        assert telemetry.trace_path() is None

    def test_enable_disable_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.enable(path)
        assert telemetry.trace_enabled() is True
        assert telemetry.trace_path() == str(path)
        telemetry.disable()
        assert telemetry.trace_enabled() is False
        assert telemetry.trace_path() is None

    def test_refresh_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(telemetry.TRACE_ENV, str(path))
        telemetry.refresh_from_env()
        assert telemetry.trace_enabled() is True
        assert telemetry.trace_path() == str(path)
        monkeypatch.delenv(telemetry.TRACE_ENV)
        telemetry.refresh_from_env()
        assert telemetry.trace_enabled() is False

    def test_blank_env_value_stays_disabled(self, monkeypatch):
        monkeypatch.setenv(telemetry.TRACE_ENV, "   ")
        telemetry.refresh_from_env()
        assert telemetry.trace_enabled() is False


class TestDisabledPath:
    def test_span_returns_shared_noop(self):
        sp = telemetry.span("kernel.bfs", degree=9)
        assert sp is telemetry.NOOP_SPAN
        # The no-op span supports the full live-span surface.
        with sp as inner:
            assert inner is sp
            assert inner.add(extra=1) is sp
        assert sp.started == 0.0

    def test_counters_and_gauges_are_noops(self, tmp_path):
        telemetry.add_counter("store.write", bytes=123)
        telemetry.set_gauge("campaign.trials_per_second", 42.0)
        telemetry.emit_span("runner.shard", 0.5, status="ran")
        # Nothing was configured, so nothing may exist on disk.
        assert list(tmp_path.iterdir()) == []

    def test_tight_loop_overhead_guard(self):
        # 200k disabled span() calls must stay well under a second: the
        # disabled path is one attribute check plus returning a singleton.
        started = time.perf_counter()
        for _ in range(200_000):
            telemetry.span("kernel.bfs")
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"disabled span() too slow: {elapsed:.3f}s"


class TestEventEmission:
    def _events(self, path):
        events = telemetry.load_trace(path)
        telemetry.validate_trace_events(events)
        return events

    def test_span_event_schema(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.enable(path)
        with telemetry.span("unit.op", degree=5) as sp:
            sp.add(found=3)
        telemetry.disable()
        (event,) = self._events(path)
        assert event["event"] == "span"
        assert event["name"] == "unit.op"
        assert event["seconds"] >= 0
        assert event["attrs"] == {"degree": 5, "found": 3}

    def test_counter_and_gauge_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.enable(path)
        telemetry.add_counter("unit.hits", bytes=64)
        telemetry.add_counter("unit.hits", value=2)
        telemetry.set_gauge("unit.rate", 12.5, family="star")
        telemetry.disable()
        events = self._events(path)
        assert [e["event"] for e in events] == ["counter", "counter", "gauge"]
        assert events[0]["value"] == 1 and events[0]["attrs"]["bytes"] == 64
        assert events[1]["value"] == 2
        assert events[2]["value"] == 12.5

    def test_emit_span_records_caller_measured_duration(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.enable(path)
        telemetry.emit_span("runner.shard", 1.25, status="ran", attempts=1)
        telemetry.disable()
        (event,) = self._events(path)
        assert event["event"] == "span"
        assert event["seconds"] == 1.25
        assert event["attrs"]["status"] == "ran"

    def test_span_records_error_type_on_exception(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.enable(path)
        with pytest.raises(ValueError):
            with telemetry.span("unit.failing"):
                raise ValueError("boom")
        telemetry.disable()
        (event,) = self._events(path)
        assert event["attrs"]["error"] == "ValueError"

    def test_numpy_scalars_become_json_numbers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.enable(path)
        telemetry.add_counter("unit.np", n=np.int64(7), rate=np.float64(0.5))
        telemetry.disable()
        (event,) = self._events(path)
        assert event["attrs"] == {"n": 7, "rate": 0.5}

    def test_non_scalar_attrs_become_strings(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.enable(path)
        telemetry.add_counter("unit.weird", shape=(2, 3))
        telemetry.disable()
        (event,) = self._events(path)
        assert event["attrs"]["shape"] == "(2, 3)"

    def test_events_append_across_reconfigure(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.enable(path)
        telemetry.add_counter("unit.first")
        telemetry.disable()
        telemetry.enable(path)
        telemetry.add_counter("unit.second")
        telemetry.disable()
        assert [e["name"] for e in self._events(path)] == [
            "unit.first",
            "unit.second",
        ]


class TestLoadAndValidate:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="no trace file"):
            telemetry.load_trace(tmp_path / "absent.jsonl")

    def test_bad_json_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "counter"}\nnot json\n')
        with pytest.raises(TraceError, match=":2:"):
            telemetry.load_trace(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TraceError, match="not an object"):
            telemetry.load_trace(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry.enable(path)
        telemetry.add_counter("unit.one")
        telemetry.disable()
        path.write_text(path.read_text() + "\n\n")
        assert len(telemetry.load_trace(path)) == 1

    def _valid_event(self, **overrides):
        event = {
            "event": "counter",
            "name": "unit.x",
            "value": 1,
            "ts": 123.0,
            "pid": 42,
            "attrs": {},
        }
        event.update(overrides)
        return event

    def test_valid_event_passes(self):
        telemetry.validate_trace_events([self._valid_event()])

    @pytest.mark.parametrize("key", ["event", "name", "ts", "pid", "attrs"])
    def test_missing_common_key(self, key):
        event = self._valid_event()
        del event[key]
        with pytest.raises(TraceError, match=f"missing keys: {key}"):
            telemetry.validate_trace_events([event])

    def test_unknown_event_type(self):
        with pytest.raises(TraceError, match="unknown event type"):
            telemetry.validate_trace_events([self._valid_event(event="timer")])

    def test_span_requires_non_negative_seconds(self):
        bad = self._valid_event(event="span")
        del bad["value"]
        with pytest.raises(TraceError, match="seconds"):
            telemetry.validate_trace_events([bad])
        bad["seconds"] = -0.1
        with pytest.raises(TraceError, match="seconds"):
            telemetry.validate_trace_events([bad])

    def test_counter_requires_numeric_value(self):
        with pytest.raises(TraceError, match="numeric 'value'"):
            telemetry.validate_trace_events([self._valid_event(value="many")])

    def test_bad_field_types(self):
        with pytest.raises(TraceError, match="name"):
            telemetry.validate_trace_events([self._valid_event(name="")])
        with pytest.raises(TraceError, match="pid"):
            telemetry.validate_trace_events([self._valid_event(pid="42")])
        with pytest.raises(TraceError, match="attrs"):
            telemetry.validate_trace_events([self._valid_event(attrs=[])])


class TestSummarize:
    def _span(self, name, seconds):
        return {
            "event": "span",
            "name": name,
            "seconds": seconds,
            "ts": 0.0,
            "pid": 1,
            "attrs": {},
        }

    def test_span_aggregation_percentiles(self):
        events = [self._span("op", s / 100.0) for s in range(1, 101)]
        summary = telemetry.summarize_trace(events)
        stats = summary["spans"]["op"]
        assert stats["count"] == 100
        assert stats["min"] == 0.01
        assert stats["max"] == 1.0
        # Nearest-rank over 100 evenly spaced values.
        assert stats["p50"] == pytest.approx(0.5, abs=0.011)
        assert stats["p99"] == pytest.approx(0.99, abs=0.011)
        assert stats["total_seconds"] == pytest.approx(50.5)

    def test_counter_totals_and_bytes(self):
        events = [
            {
                "event": "counter",
                "name": "store.write",
                "value": 1,
                "ts": 0.0,
                "pid": 1,
                "attrs": {"bytes": size},
            }
            for size in (100, 250)
        ]
        summary = telemetry.summarize_trace(events)
        stats = summary["counters"]["store.write"]
        assert stats == {"count": 2, "total": 2.0, "bytes": 350.0}

    def test_gauge_stats(self):
        events = [
            {
                "event": "gauge",
                "name": "rate",
                "value": value,
                "ts": 0.0,
                "pid": 1,
                "attrs": {},
            }
            for value in (10.0, 30.0, 20.0)
        ]
        stats = telemetry.summarize_trace(events)["gauges"]["rate"]
        assert stats["last"] == 20.0
        assert stats["min"] == 10.0
        assert stats["max"] == 30.0
        assert stats["mean"] == pytest.approx(20.0)

    def test_pids_collected(self):
        events = [self._span("op", 0.1)]
        events.append(dict(self._span("op", 0.2), pid=2))
        summary = telemetry.summarize_trace(events)
        assert summary["pids"] == [1, 2]
        assert summary["events"] == 2

    def test_render_contains_sections_and_names(self):
        events = [
            self._span("kernel.bfs", 0.25),
            {
                "event": "counter",
                "name": "store.hit",
                "value": 1,
                "ts": 0.0,
                "pid": 1,
                "attrs": {},
            },
            {
                "event": "gauge",
                "name": "rate",
                "value": 5.0,
                "ts": 0.0,
                "pid": 1,
                "attrs": {},
            },
        ]
        text = telemetry.render_summary(
            telemetry.summarize_trace(events), title="my trace"
        )
        assert "my trace" in text
        assert "spans:" in text and "kernel.bfs" in text
        assert "counters:" in text and "store.hit" in text
        assert "gauges:" in text and "rate" in text

    def test_summary_is_json_safe(self):
        summary = telemetry.summarize_trace([self._span("op", 0.5)])
        json.dumps(summary)  # must not raise
