"""Exporters: JSON-lines traces, Prometheus text, human-readable trees.

Three consumers, three formats:

* machines ingesting traces — :func:`spans_to_jsonl`, one span per line;
* scrapers ingesting metrics — :func:`prometheus_text`, the Prometheus
  text exposition format (counters, histograms with cumulative
  ``le`` buckets);
* humans reading a protocol run — :func:`render_span_tree` (the nested
  activity view) and :func:`render_message_trace` (the flat numbered
  message list in the paper's figure notation:
  ``N. source -> destination : type``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.metrics import (
    Counter,
    Histogram,
    Metric,
    MetricsRegistry,
    prometheus_name,
)
from repro.obs.trace import Span


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def spans_to_jsonl(spans: Sequence[Span]) -> str:
    """One JSON object per span, in start order; '' when nothing recorded."""
    return "\n".join(
        json.dumps(span.to_dict(), sort_keys=True) for span in spans
    )


def _span_label(span: Span) -> str:
    """Compact one-line rendering of a span for the tree view."""
    attrs = span.attributes
    if span.name == "net.send":
        arrow = f"{attrs.get('source')} -> {attrs.get('destination')}"
        sizes = ""
        if "request_bytes" in attrs:
            sizes = f" [req {attrs.get('request_bytes')} B"
            if "response_bytes" in attrs:
                sizes += f", rsp {attrs.get('response_bytes')} B"
            sizes += "]"
        label = f"net.send {arrow} : {attrs.get('msg_type')}{sizes}"
    elif span.name == "rpc.handle":
        label = f"rpc.handle {attrs.get('service')} : {attrs.get('msg_type')}"
    elif span.name == "verify.chain":
        parts = [f"verify.chain @{attrs.get('server')}"]
        if "grantor" in attrs:
            parts.append(f"grantor={attrs['grantor']}")
        if "chain_length" in attrs:
            parts.append(f"links={attrs['chain_length']}")
        if attrs.get("bearer") is not None:
            parts.append("bearer" if attrs.get("bearer") else "delegate")
        label = " ".join(str(p) for p in parts)
    elif span.name == "fig.step":
        label = f"message {attrs.get('step')}: {attrs.get('label')}"
    else:
        extra = " ".join(
            f"{k}={v}" for k, v in attrs.items() if k not in ("run", "error")
        )
        label = span.name + (f" {extra}" if extra else "")
    if span.status == "error":
        label += f"  !! {attrs.get('error', 'error')}"
    return label


def render_span_tree(
    spans: Sequence[Span], include_events: bool = True
) -> str:
    """ASCII tree of the recorded spans, with simulated-clock timings."""
    if not spans:
        return "(no spans recorded)"
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    known_ids = {span.span_id for span in spans}
    # Roots: no parent, or the parent was not captured (e.g. cleared).
    roots = [
        s
        for s in spans
        if s.parent_id is None or s.parent_id not in known_ids
    ]
    origin = min(s.start for s in spans)
    lines: List[str] = []

    def emit(span: Span, prefix: str, is_last: bool, depth: int) -> None:
        connector = "" if depth == 0 else ("`- " if is_last else "|- ")
        timing = f"(t=+{span.start - origin:.4f}s, {span.duration * 1000:.2f}ms)"
        lines.append(f"{prefix}{connector}{_span_label(span)}  {timing}")
        child_prefix = prefix if depth == 0 else (
            prefix + ("   " if is_last else "|  ")
        )
        if include_events:
            for event in span.events:
                attrs = " ".join(
                    f"{k}={v}" for k, v in event.attributes.items()
                )
                lines.append(
                    f"{child_prefix}   * {event.name}"
                    + (f" {attrs}" if attrs else "")
                )
        kids = children.get(span.span_id, [])
        for i, kid in enumerate(kids):
            emit(kid, child_prefix, i == len(kids) - 1, depth + 1)

    for i, root in enumerate(roots):
        if i:
            lines.append("")
        emit(root, "", True, 0)
    return "\n".join(lines)


def render_message_trace(spans: Sequence[Span]) -> str:
    """The flat, numbered wire-message view, in the paper's notation.

    Each ``net.send`` span is one request/response exchange — one numbered
    arrow in a figure (the reply is shown inline, as the figures do).
    Dropped requests are marked; nesting depth is shown by indentation so
    server-to-server hops (Fig. 5's E2) read as sub-messages.
    """
    sends = [s for s in spans if s.name == "net.send"]
    if not sends:
        return "(no messages recorded)"
    by_id = {s.span_id: s for s in spans}

    def net_depth(span: Span) -> int:
        depth = 0
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name == "net.send":
                depth += 1
            parent = by_id.get(parent.parent_id)
        return depth

    lines = []
    for number, span in enumerate(sends, start=1):
        attrs = span.attributes
        indent = "    " * net_depth(span)
        line = (
            f"{indent}{number:>2}. {attrs.get('source')} -> "
            f"{attrs.get('destination')} : {attrs.get('msg_type')}"
        )
        # A resend is a send under a resil.attempt span: mark it so the
        # same logical message on attempt 2+ is not a duplicate line.
        attempt_parent = by_id.get(span.parent_id)
        if (
            attempt_parent is not None
            and attempt_parent.name == "resil.attempt"
        ):
            attempt = attempt_parent.attributes.get("attempt")
            markers = []
            if isinstance(attempt, int) and attempt > 1:
                markers.append(f"attempt {attempt}")
            if attempt_parent.attributes.get("failover"):
                markers.append(
                    f"failover -> {attempt_parent.attributes.get('endpoint')}"
                )
            if markers:
                line += f"  [{', '.join(markers)}]"
        details = []
        if "request_bytes" in attrs:
            details.append(f"req {attrs['request_bytes']} B")
        if "response_bytes" in attrs:
            details.append(f"rsp {attrs['response_bytes']} B")
        if details:
            line += "  (" + ", ".join(details) + ")"
        if span.status == "error":
            if attrs.get("dropped"):
                line += f"  -- DROPPED ({attrs.get('drop_reason', '?')})"
            else:
                line += f"  -- ERROR ({attrs.get('error', '?')})"
        lines.append(line)
    return "\n".join(lines)


def render_trace_waterfall(
    spans: Sequence[Span], trace_id: Optional[str] = None, width: int = 32
) -> str:
    """Per-request causal waterfall: one trace, bars on the simulated clock.

    Filters ``spans`` to ``trace_id`` (or renders whatever it was given),
    orders causally (start time, then span id), indents children under
    parents, and draws each span's lifetime as a bar against the trace's
    own time base.  Span events are listed under their span with ``*``
    markers, so a dedupe hit, a vcache hit, or a ledger posting reads in
    causal position.
    """
    members = [
        s
        for s in spans
        if trace_id is None or s.trace_id == trace_id
    ]
    if not members:
        return "(no spans in trace)"
    members.sort(key=lambda s: (s.start, s.span_id))
    by_id = {s.span_id: s for s in members}

    def depth(span: Span) -> int:
        d = 0
        parent = by_id.get(span.parent_id)
        while parent is not None:
            d += 1
            parent = by_id.get(parent.parent_id)
        return d

    origin = min(s.start for s in members)
    horizon = max((s.end if s.end is not None else s.start) for s in members)
    window = max(horizon - origin, 1e-9)

    shown_id = trace_id if trace_id is not None else members[0].trace_id
    header = (
        f"trace {shown_id} — {len(members)} spans, "
        f"{horizon - origin:.4f}s on the simulated clock"
    )
    labels = []
    for span in members:
        indent = "  " * depth(span)
        status = "" if span.status == "ok" else "  !! error"
        labels.append((span, f"{indent}{_span_label(span)}{status}"))
    label_width = min(max(len(text) for _, text in labels), 64)

    lines = [header]
    for span, text in labels:
        begin = int((span.start - origin) / window * (width - 1))
        end_time = span.end if span.end is not None else span.start
        finish = int((end_time - origin) / window * (width - 1))
        bar = [" "] * width
        for i in range(begin, max(begin, finish) + 1):
            bar[i] = "="
        if span.end is None:
            bar[min(finish + 1, width - 1)] = ">"
        offset = f"+{span.start - origin:.4f}s"
        lines.append(
            f"{text[:label_width]:<{label_width}}  "
            f"|{''.join(bar)}|  {offset} ({span.duration * 1000:.2f}ms)"
        )
        for event in span.events:
            attrs = " ".join(
                f"{k}={v}" for k, v in event.attributes.items()
            )
            indent = "  " * (depth(span) + 1)
            lines.append(
                f"{indent}* {event.name}" + (f" {attrs}" if attrs else "")
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(pairs: Iterable, extra: Optional[Dict[str, str]] = None) -> str:
    items = list(pairs) + sorted((extra or {}).items())
    if not items:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in items
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_exemplar(exemplar) -> str:
    """OpenMetrics exemplar suffix for a bucket line, or ''.

    ``# {trace_id="..."} value`` — the trace to pull when this bucket's
    count looks anomalous.
    """
    if not exemplar:
        return ""
    trace_id, value = exemplar
    return (
        f' # {{trace_id="{_escape_label_value(str(trace_id))}"}}'
        f" {_format_value(value)}"
    )


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every family in the Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry.families():
        name = prometheus_name(metric.name)
        lines.append(f"# HELP {name} {metric.help or metric.name}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Counter):
            for key, value in metric.series():
                lines.append(
                    f"{name}{_format_labels(key)} "
                    f"{_format_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for key, series in metric.series():
                cumulative = 0
                for i, (bound, bucket_count) in enumerate(
                    zip(metric.buckets, series.bucket_counts)
                ):
                    cumulative = bucket_count
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels(key, {'le': _format_value(bound)})}"
                        f" {cumulative}"
                        f"{_format_exemplar(series.exemplars.get(i))}"
                    )
                inf_exemplar = series.exemplars.get(len(metric.buckets))
                lines.append(
                    f"{name}_bucket"
                    f"{_format_labels(key, {'le': '+Inf'})} {series.count}"
                    f"{_format_exemplar(inf_exemplar)}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(key)} "
                    f"{_format_value(series.sum)}"
                )
                lines.append(
                    f"{name}_count{_format_labels(key)} {series.count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
