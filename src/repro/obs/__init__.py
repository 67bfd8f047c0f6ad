"""Observability: span tracing, metrics, and exportable telemetry.

Everything the reproduction claims is a claim about *protocol shape* —
message counts, hops, who verified what, online vs. offline — and
everything the ROADMAP wants to optimize is a claim about *where time
goes*.  This package instruments both:

* :mod:`repro.obs.trace` — span-based tracing with parent/child links, so
  one protocol run renders as a single tree;
* :mod:`repro.obs.context` — W3C-traceparent-style :class:`TraceContext`
  stamped on wire messages, so retries, failovers, cascaded hops, and
  ledger postings all join on one trace id;
* :mod:`repro.obs.store` — the :class:`TraceStore`: completed spans
  indexed by trace id and principal for forensic queries;
* :mod:`repro.obs.metrics` — counters and fixed-bucket histograms
  with per-bucket trace-id exemplars;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade threaded
  through the network, services, KDC, and verifier (default
  :data:`NO_TELEMETRY`, a strict no-op);
* :mod:`repro.obs.export` — JSON-lines traces, Prometheus text exposition,
  and human-readable trace/figure/waterfall renderers;
* :mod:`repro.obs.usage` — the :class:`UsageMeter`: wire bytes, crypto
  and handler time, retries, and degraded grants, folded from finished
  spans and attributed to the *responsible principal*, priced by a
  :class:`Tariff` and postable
  into the ledger as conserved charges (§4 usage accounting);
* :mod:`repro.obs.profile` — folds finished spans into a self-time call
  tree with folded-stack / speedscope flame-graph export.

What ``python -m repro trace``, ``usage`` and ``profile`` record is
:func:`repro.workloads.load.run_figure`: one warm op of a load scenario,
the same op the load generator, the chaos campaigns and the benchmark
drive, with the paper's arrows marked as ``fig.step`` spans.
"""

from repro.obs.context import TraceContext, span_hex_id
from repro.obs.export import (
    prometheus_text,
    render_message_trace,
    render_span_tree,
    render_trace_waterfall,
    spans_to_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
)
from repro.obs.profile import (
    folded_stacks,
    frame_name,
    render_call_tree,
    self_times,
    speedscope_document,
)
from repro.obs.store import TraceStore, load_spans_jsonl, validate_spans
from repro.obs.telemetry import NO_TELEMETRY, NullTelemetry, Telemetry
from repro.obs.trace import Span, SpanEvent, Tracer
from repro.obs.usage import (
    QuantileDigest,
    Tariff,
    UsageMeter,
    UsageRecord,
    post_usage_charges,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NO_TELEMETRY",
    "Tracer",
    "Span",
    "SpanEvent",
    "TraceContext",
    "TraceStore",
    "span_hex_id",
    "load_spans_jsonl",
    "validate_spans",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "spans_to_jsonl",
    "render_span_tree",
    "render_message_trace",
    "render_trace_waterfall",
    "prometheus_text",
    "UsageMeter",
    "UsageRecord",
    "QuantileDigest",
    "Tariff",
    "post_usage_charges",
    "folded_stacks",
    "frame_name",
    "render_call_tree",
    "self_times",
    "speedscope_document",
]
