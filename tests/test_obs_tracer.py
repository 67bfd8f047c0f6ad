"""The span tracer: nesting, runs, events, and the exporters."""

import json

import pytest

from repro.clock import SimulatedClock
from repro.errors import ReproError
from repro.obs.export import (
    render_message_trace,
    render_span_tree,
    spans_to_jsonl,
)
from repro.obs.telemetry import NO_TELEMETRY, Telemetry
from repro.obs.trace import Tracer


@pytest.fixture
def clock():
    return SimulatedClock(1000.0)


@pytest.fixture
def tracer(clock):
    return Tracer(now=clock.now)


class TestNesting:
    def test_stack_parenting(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s for s in tracer.spans if s.parent_id == outer.span_id] == [
            inner
        ]

    def test_timing_comes_from_the_injected_clock(self, tracer, clock):
        with tracer.span("work") as span:
            clock.advance(2.5)
        assert span.start == 1000.0
        assert span.end == 1002.5
        assert span.duration == 2.5

    def test_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(ReproError):
            with tracer.span("doomed"):
                raise ReproError("boom")
        (span,) = tracer.spans
        assert span.status == "error"
        assert "boom" in span.attributes["error"]
        assert span.end is not None
        assert tracer.current_span is None

    def test_attributes_set_and_events(self, tracer, clock):
        with tracer.span("s", a=1) as span:
            span.set(b=2)
            tracer.event("checkpoint", detail="x")
        assert span.attributes == {"a": 1, "b": 2}
        (event,) = span.events
        assert event.name == "checkpoint"
        assert event.attributes == {"detail": "x"}

    def test_orphan_events(self, tracer):
        # Outside any span an event has nothing to attach to: dropped.
        assert tracer.event("floating") is None
        with tracer.span("s") as span:
            pass
        assert span.events == []


class TestRuns:
    def test_runs_stamp_ids_and_open_root_spans(self, tracer):
        with tracer.run("fig3"):
            with tracer.span("child"):
                pass
        with tracer.run("fig3"):
            pass
        run_ids = [s.run_id for s in tracer.spans]
        assert run_ids == ["run-1:fig3", "run-1:fig3", "run-2:fig3"]
        assert [s.name for s in tracer.roots()] == ["run:fig3", "run:fig3"]

    def test_outside_runs_spans_have_no_run_id(self, tracer):
        with tracer.span("loose"):
            pass
        assert tracer.spans[0].run_id is None

    def test_clear_keeps_open_spans(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            tracer.clear()
            assert [s.name for s in tracer.spans] == ["outer"]


class TestExporters:
    def test_jsonl_round_trip(self, tracer, clock):
        with tracer.span("a", who=b"\x01\x02", chain=("x", "y")):
            clock.advance(1)
        lines = spans_to_jsonl(tracer.spans).splitlines()
        (record,) = [json.loads(line) for line in lines]
        assert record["name"] == "a"
        assert record["attributes"]["who"] == "0102"  # bytes -> hex
        assert record["attributes"]["chain"] == ["x", "y"]
        assert record["end"] == record["start"] + 1

    def test_tree_renders_nesting_and_events(self, tracer):
        with tracer.span("outer"):
            tracer.event("mark")
            with tracer.span("inner"):
                pass
        tree = render_span_tree(tracer.spans)
        out = tree.splitlines()
        assert out[0].startswith("outer")
        assert any("* mark" in line for line in out)
        assert any("`- inner" in line for line in out)

    def test_message_trace_numbers_net_sends(self, tracer):
        with tracer.span(
            "net.send",
            source="a",
            destination="b",
            msg_type="request",
        ) as outer:
            outer.set(request_bytes=10, response_bytes=20)
            with tracer.span(
                "net.send", source="b", destination="c", msg_type="hop"
            ) as inner:
                inner.set(request_bytes=5)
        text = render_message_trace(tracer.spans)
        lines = text.splitlines()
        assert lines[0].startswith(" 1. a -> b : request")
        assert "(req 10 B, rsp 20 B)" in lines[0]
        # The nested server-to-server hop is indented one level.
        assert lines[1].startswith("     2. b -> c : hop")

    def test_empty_renders(self):
        assert render_span_tree([]) == "(no spans recorded)"
        assert render_message_trace([]) == "(no messages recorded)"


class TestTelemetryFacade:
    def test_null_telemetry_is_falsy_and_inert(self):
        assert not NO_TELEMETRY
        assert NO_TELEMETRY.enabled is False
        with NO_TELEMETRY.span("x", a=1) as span:
            span.set(b=2)
            span.add_event(0.0, "e")
        NO_TELEMETRY.inc("c")
        NO_TELEMETRY.observe("h", 1.0)
        NO_TELEMETRY.event("e")

    def test_live_telemetry_binds_realm_clock_once(self):
        clock_a = SimulatedClock(10.0)
        clock_b = SimulatedClock(99.0)
        t = Telemetry()
        t.bind_clock(clock_a)
        t.bind_clock(clock_b)  # second bind is ignored
        with t.span("s") as span:
            pass
        assert span.start == 10.0

    def test_pinned_clock_wins_over_bind(self):
        pinned = SimulatedClock(5.0)
        t = Telemetry(clock=pinned)
        t.bind_clock(SimulatedClock(77.0))
        with t.span("s") as span:
            pass
        assert span.start == 5.0

    def test_metric_conveniences(self):
        t = Telemetry()
        t.inc("ops_total", op="x")
        t.observe("lat", 0.5, buckets=(1.0,))
        assert t.metrics.counter("ops_total").value(op="x") == 1
        assert t.metrics.histogram("lat").count() == 1
