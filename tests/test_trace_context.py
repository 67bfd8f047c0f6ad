"""Wire-level trace context: the traceparent header and trace-id rules."""

import pytest

from repro.clock import SimulatedClock
from repro.obs.context import TraceContext, span_hex_id
from repro.obs.trace import Tracer

TRACE = "0af7651916cd43dd8448eb211c80319c"
SPAN = "b7ad6b7169203331"


@pytest.fixture
def clock():
    return SimulatedClock(1000.0)


@pytest.fixture
def tracer(clock):
    return Tracer(now=clock.now)


class TestTraceContext:
    def test_header_round_trip(self):
        context = TraceContext(trace_id=TRACE, span_id=SPAN)
        header = context.to_header()
        assert header == f"00-{TRACE}-{SPAN}-01"
        assert TraceContext.parse(header) == TraceContext(
            trace_id=TRACE, span_id=SPAN
        )

    def test_child_keeps_trace_and_chains_parent(self):
        context = TraceContext(trace_id=TRACE, span_id=SPAN)
        child = context.child(span_hex_id(42))
        assert child.trace_id == TRACE
        assert child.parent_span_id == SPAN
        assert child.span_id == span_hex_id(42)

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "junk",
            "00-short-b7ad6b7169203331-01",
            f"00-{TRACE}-tooshort-01",
            f"00-{TRACE.upper()}-{SPAN}-01",  # hex must be lowercase
            f"00-{TRACE}-{SPAN}",  # missing flags
        ],
    )
    def test_try_parse_rejects_junk(self, header):
        assert TraceContext.try_parse(header) is None

    def test_parse_raises_where_try_parse_returns_none(self):
        with pytest.raises(ValueError):
            TraceContext.parse("junk")
        assert TraceContext.try_parse(None) is None

    def test_malformed_ids_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TraceContext(trace_id="xyz", span_id=SPAN)
        with pytest.raises(ValueError):
            TraceContext(trace_id=TRACE, span_id="xyz")

    def test_span_hex_id_is_16_hex_and_collision_free(self):
        ids = {span_hex_id(n) for n in range(1, 200)}
        assert len(ids) == 199
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in ids)


class TestTracerTraceIds:
    def test_root_span_mints_a_deterministic_trace_id(self, clock):
        first = Tracer(now=clock.now)
        second = Tracer(now=clock.now)
        with first.span("a") as a:
            pass
        with second.span("b") as b:
            pass
        # Same seeded rng, same draw position -> same id; and it is
        # well-formed.
        assert a.trace_id == b.trace_id
        assert len(a.trace_id) == 32

    def test_children_inherit_the_parents_trace_id(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("leaf") as leaf:
                    pass
        assert inner.trace_id == outer.trace_id
        assert leaf.trace_id == outer.trace_id
        in_trace = [s for s in tracer.spans if s.trace_id == outer.trace_id]
        assert in_trace == [outer, inner, leaf]

    def test_sequential_roots_get_distinct_trace_ids(self, tracer):
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_remote_context_adopted_when_stack_is_empty(self, tracer):
        header = f"00-{TRACE}-{SPAN}-01"
        with tracer.span("rpc.handle", remote_context=header) as span:
            assert tracer.current_trace_id() == TRACE
        assert span.trace_id == TRACE
        assert span.remote_parent == SPAN
        assert span.parent_id is None
        # The emitted context chains causally through the remote parent.
        assert span.context().parent_span_id == SPAN

    def test_local_parent_wins_over_remote_context(self, tracer):
        header = f"00-{TRACE}-{SPAN}-01"
        with tracer.span("outer") as outer:
            with tracer.span("inner", remote_context=header) as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.trace_id != TRACE
        assert inner.remote_parent is None

    def test_malformed_remote_context_falls_back_to_fresh_id(self, tracer):
        with tracer.span("rpc.handle", remote_context="garbage") as span:
            pass
        assert len(span.trace_id) == 32
        assert span.remote_parent is None

    def test_current_context_names_the_active_span(self, tracer):
        assert tracer.current_context() is None
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                context = tracer.current_context()
                assert context.trace_id == outer.trace_id
                assert context.span_id == inner.hex_id
                assert context.parent_span_id == outer.hex_id
        assert tracer.current_context() is None

    def test_finish_listeners_see_each_completed_span(self, tracer):
        finished = []
        tracer.add_finish_listener(finished.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            assert [s.name for s in finished] == ["inner"]
        assert [s.name for s in finished] == ["inner", "outer"]

    def test_trace_id_survives_jsonl_round_trip(self, tracer):
        from repro.obs.export import spans_to_jsonl
        from repro.obs.store import load_spans_jsonl

        header = f"00-{TRACE}-{SPAN}-01"
        with tracer.span("handle", remote_context=header):
            with tracer.span("child"):
                pass
        restored = load_spans_jsonl(spans_to_jsonl(tracer.spans))
        assert [s.trace_id for s in restored] == [TRACE, TRACE]
        assert restored[0].remote_parent == SPAN
        assert restored[1].remote_parent is None
