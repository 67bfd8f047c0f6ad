"""Span folding: flame-graph stacks, call trees, speedscope export."""

from repro.obs import Telemetry, load_spans_jsonl, spans_to_jsonl
from repro.workloads.load import run_figure
from repro.obs.profile import (
    folded_stacks,
    frame_name,
    render_call_tree,
    self_times,
    speedscope_document,
)
from repro.obs.trace import Span

import pytest


def make_span(span_id, parent_id, name, start, end, trace_id="t" * 32,
              **attributes):
    span = Span(
        span_id=span_id,
        parent_id=parent_id,
        run_id=None,
        name=name,
        start=start,
        attributes=attributes,
        trace_id=trace_id,
    )
    span.end = end
    return span


@pytest.fixture(scope="module")
def fig5_spans():
    telemetry = Telemetry(capture_crypto=True)
    try:
        run_figure("fig5", telemetry)
    finally:
        telemetry.release_crypto()
    return telemetry.tracer.finished_spans()


class TestFrameNames:
    def test_detail_attributes_join_the_name(self):
        span = make_span(1, None, "net.send", 0.0, 1.0, msg_type="read")
        assert frame_name(span) == "net.send:read"

    def test_missing_detail_attributes_are_skipped(self):
        span = make_span(1, None, "rpc.handle", 0.0, 1.0, msg_type="read")
        assert frame_name(span) == "rpc.handle:read"

    def test_unknown_span_names_pass_through(self):
        assert frame_name(make_span(1, None, "custom", 0.0, 1.0)) == "custom"


class TestSelfTimes:
    def test_children_subtract_from_parents(self):
        parent = make_span(1, None, "a", 0.0, 10.0)
        child = make_span(2, 1, "b", 2.0, 5.0)
        selfs = self_times([parent, child])
        assert selfs[1] == pytest.approx(7.0)
        assert selfs[2] == pytest.approx(3.0)

    def test_self_time_never_goes_negative(self):
        parent = make_span(1, None, "a", 0.0, 1.0)
        child = make_span(2, 1, "b", 0.0, 5.0)
        assert self_times([parent, child])[1] == 0.0

    def test_unfinished_spans_are_ignored(self):
        open_span = Span(
            span_id=3, parent_id=None, run_id=None, name="open", start=0.0
        )
        assert 3 not in self_times([open_span])


class TestFoldedStacks:
    def test_paths_weighted_by_self_time_microseconds(self):
        parent = make_span(1, None, "a", 0.0, 10.0)
        child = make_span(2, 1, "b", 2.0, 5.0)
        lines = folded_stacks([parent, child])
        assert lines == ["a 7000000", "a;b 3000000"]

    def test_zero_weight_paths_are_dropped_in_time_mode(self):
        instant = make_span(1, None, "a", 1.0, 1.0)
        assert folded_stacks([instant]) == []
        assert folded_stacks([instant], weight="count") == ["a 1"]

    def test_identical_paths_accumulate(self):
        spans = [
            make_span(1, None, "a", 0.0, 1.0),
            make_span(2, None, "a", 5.0, 7.0),
        ]
        assert folded_stacks(spans) == ["a 3000000"]

    def test_weight_must_be_time_or_count(self):
        with pytest.raises(ValueError):
            folded_stacks([], weight="bytes")

    def test_output_is_sorted_and_deterministic(self, fig5_spans):
        first = folded_stacks(fig5_spans)
        assert first == sorted(first)
        assert first == folded_stacks(list(reversed(fig5_spans)))

    def test_round_trips_through_jsonl(self, fig5_spans):
        dumped = spans_to_jsonl(fig5_spans)
        reloaded = load_spans_jsonl(dumped)
        assert folded_stacks(reloaded) == folded_stacks(fig5_spans)
        assert folded_stacks(reloaded, weight="count") == folded_stacks(
            fig5_spans, weight="count"
        )

    def test_fig5_stacks_show_the_clearing_hop(self, fig5_spans):
        text = "\n".join(folded_stacks(fig5_spans))
        assert "run:fig5" in text
        assert "net.send:request;rpc.handle" in text


class TestCallTree:
    def test_counts_totals_and_selfs_render(self):
        parent = make_span(1, None, "a", 0.0, 10.0)
        child = make_span(2, 1, "b", 2.0, 5.0)
        tree = render_call_tree([parent, child])
        lines = tree.splitlines()
        assert "count" in lines[0]
        assert any("a" in line and "10.000000" in line for line in lines)
        assert any("  b" in line for line in lines)

    def test_fig5_tree_nests_by_indentation(self, fig5_spans):
        tree = render_call_tree(fig5_spans)
        assert "run:fig5" in tree
        assert "    fig.step" in tree  # indented under the run root


class TestSpeedscope:
    def test_document_structure(self, fig5_spans):
        doc = speedscope_document(fig5_spans, name="fig5")
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        assert doc["name"] == "fig5"
        assert doc["shared"]["frames"]
        for profile in doc["profiles"]:
            assert profile["type"] == "evented"
            assert profile["unit"] == "seconds"
            assert profile["startValue"] <= profile["endValue"]

    def test_events_nest_and_balance(self, fig5_spans):
        doc = speedscope_document(fig5_spans)
        for profile in doc["profiles"]:
            depth = 0
            for event in profile["events"]:
                depth += 1 if event["type"] == "O" else -1
                assert depth >= 0
            assert depth == 0

    def test_frames_are_shared_across_profiles(self):
        spans = [
            make_span(1, None, "a", 0.0, 1.0, trace_id="1" * 32),
            make_span(2, None, "a", 0.0, 1.0, trace_id="2" * 32),
        ]
        doc = speedscope_document(spans)
        assert len(doc["profiles"]) == 2
        assert len(doc["shared"]["frames"]) == 1
