"""Span-based protocol tracing.

One protocol run — a Fig. 3 authorization, a Fig. 4 cascade, a Fig. 5
check-clearing — is a tree of nested activities: a client call opens a
network send, which opens a service dispatch, which may verify a proxy
chain, which may recursively call other servers.  A :class:`Span` records
one such activity with simulated-clock start/end times, free-form
attributes (principal ids, message types, restriction outcomes), and point
:class:`SpanEvent`\\ s; parent/child links make the whole run render as a
single tree.

The open spans live in a :class:`contextvars.ContextVar`, one per tracer:
each thread and each asyncio task sees its own nesting, and the async
runtime hands a request's context to the event loop with the request, so
one load op and every message it causes form one trace on either
runtime.  Across the *wire*, causality rides a W3C-traceparent-style
:class:`~repro.obs.context.TraceContext`: every span carries the
``trace_id`` of the logical request it serves (inherited from its parent,
adopted from a wire context, or freshly drawn from the tracer's seeded
rng), so retries, failovers, cascaded hops, and ledger postings all join
on one id.  Spans are also grouped into protocol **runs**
(:meth:`Tracer.run`): every span started inside the run inherits its id,
which is how audit records, metrics deltas, and trace trees are
correlated.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.context import TraceContext, span_hex_id


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation on a span (e.g. an audit record)."""

    time: float
    name: str
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "name": self.name,
            "attributes": dict(self.attributes),
        }


class Span:
    """One timed activity in a protocol run."""

    __slots__ = (
        "span_id",
        "parent_id",
        "run_id",
        "trace_id",
        "remote_parent",
        "name",
        "start",
        "end",
        "attributes",
        "events",
        "status",
        "elapsed",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        run_id: Optional[str],
        name: str,
        start: float,
        attributes: Optional[Dict[str, object]] = None,
        trace_id: Optional[str] = None,
        remote_parent: Optional[str] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.run_id = run_id
        #: The logical request this span serves; every span has one.
        self.trace_id = trace_id
        #: Wire span id of a parent recorded by *another* tracer (set only
        #: when a wire context was adopted with no local parent on stack).
        self.remote_parent = remote_parent
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.events: List[SpanEvent] = []
        self.status = "ok"
        #: Real ``perf_counter`` seconds from open to close (the CPU a
        #: handler took; not serialized, since it varies run to run).
        self.elapsed = 0.0

    def set(self, **attributes: object) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attributes.update(attributes)

    def add_event(
        self, time: float, name: str, **attributes: object
    ) -> SpanEvent:
        event = SpanEvent(time=time, name=name, attributes=dict(attributes))
        self.events.append(event)
        return event

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def hex_id(self) -> str:
        """This span's 16-hex wire span id (derived from the counter)."""
        return span_hex_id(self.span_id)

    def context(self) -> Optional[TraceContext]:
        """The wire context this span would emit, or None if untraced."""
        if self.trace_id is None:
            return None
        parent = (
            span_hex_id(self.parent_id)
            if self.parent_id is not None
            else self.remote_parent
        )
        return TraceContext(
            trace_id=self.trace_id,
            span_id=self.hex_id,
            parent_span_id=parent,
        )

    def to_dict(self) -> dict:
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "run_id": self.run_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": {k: _plain(v) for k, v in self.attributes.items()},
            "events": [e.to_dict() for e in self.events],
        }
        if self.remote_parent is not None:
            out["remote_parent"] = self.remote_parent
        return out

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """Rebuild a span from its :meth:`to_dict` form (forensics path)."""
        span = cls(
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            run_id=record.get("run_id"),
            name=str(record.get("name", "")),
            start=record.get("start", 0.0),
            attributes=dict(record.get("attributes") or {}),
            trace_id=record.get("trace_id"),
            remote_parent=record.get("remote_parent"),
        )
        span.end = record.get("end")
        span.status = str(record.get("status", "ok"))
        for event in record.get("events") or []:
            span.events.append(
                SpanEvent(
                    time=event.get("time", 0.0),
                    name=str(event.get("name", "")),
                    attributes=dict(event.get("attributes") or {}),
                )
            )
        return span

    def __repr__(self) -> str:
        return (
            f"Span(id={self.span_id}, name={self.name!r}, "
            f"parent={self.parent_id}, trace={self.trace_id}, "
            f"status={self.status})"
        )


def _plain(value: object) -> object:
    """Coerce attribute values to JSON-friendly plain types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


class Tracer:
    """Collects spans; owns the open spans, run ids, and trace ids.

    Args:
        now: time source for span timestamps.  Inject the simulated clock's
            ``now`` so trace timing is a consequence of message count and
            the latency model, exactly like protocol latency itself.
        rng: source of fresh trace ids.  Defaults to a
            :class:`~repro.crypto.rng.Rng` with a fixed seed, so trace ids
            are deterministic per run — the property that makes
            ``--follow TRACE_ID`` reproducible across invocations.
    """

    def __init__(self, now: Callable[[], float], rng=None) -> None:
        if rng is None:
            from repro.crypto.rng import Rng

            rng = Rng(seed=b"trace-context")
        self._now = now
        self._rng = rng
        self._rng_lock = threading.Lock()
        self.spans: List[Span] = []
        self.orphan_events: List[SpanEvent] = []
        #: The open spans, outermost first, of the running thread or task.
        #: One variable per tracer: another tracer's spans are never a
        #: local parent, so a second realm adopts the wire context.
        self._open: contextvars.ContextVar = contextvars.ContextVar(
            "repro.obs.trace.open", default=()
        )
        self._span_ids = itertools.count(1)
        self._run_ids = itertools.count(1)
        #: Called with each span as it finishes (TraceStore indexing).
        self._finish_listeners: List[Callable[[Span], None]] = []

    # -- recording -----------------------------------------------------------

    def add_finish_listener(self, listener: Callable[[Span], None]) -> None:
        self._finish_listeners.append(listener)

    def new_trace_id(self) -> str:
        """A fresh 32-hex trace id from the seeded rng."""
        with self._rng_lock:  # root spans open on many client threads
            return self._rng.bytes(16).hex()

    @contextmanager
    def span(
        self,
        name: str,
        remote_context: Optional[str] = None,
        **attributes: object,
    ) -> Iterator[Span]:
        """Open a child span of whatever span is currently active.

        ``remote_context`` is a traceparent header from the wire: with no
        local parent open, the new span adopts its trace id and records
        the remote span id as its causal parent — how a service with its
        *own* tracer still joins the sender's trace.  A local parent
        always wins (in process, the open spans are the truth).
        """
        open_spans = self._open.get()
        if open_spans:
            parent = open_spans[-1]
            parent_id, run_id = parent.span_id, parent.run_id
            trace_id, remote_parent = parent.trace_id, None
        else:
            parent_id = run_id = remote_parent = None
            remote = TraceContext.try_parse(remote_context)
            if remote is not None:
                trace_id, remote_parent = remote.trace_id, remote.span_id
            else:
                trace_id = self.new_trace_id()
        span = Span(
            span_id=next(self._span_ids),
            parent_id=parent_id,
            run_id=run_id,
            name=name,
            start=self._now(),
            attributes=attributes,
            trace_id=trace_id,
            remote_parent=remote_parent,
        )
        self.spans.append(span)
        token = self._open.set(open_spans + (span,))
        started = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attributes.setdefault(
                "error", f"{type(exc).__name__}: {exc}"
            )
            raise
        finally:
            span.elapsed = time.perf_counter() - started
            span.end = self._now()
            self._open.reset(token)
            for listener in self._finish_listeners:
                listener(span)

    @contextmanager
    def run(self, label: str) -> Iterator[Span]:
        """Group everything inside as one protocol run (a root span)."""
        run_id = f"run-{next(self._run_ids)}:{label}"
        with self.span(f"run:{label}", run=run_id) as span:
            span.run_id = run_id
            yield span

    def event(self, name: str, **attributes: object) -> SpanEvent:
        """Record a point event on the current span (or as an orphan)."""
        open_spans = self._open.get()
        if open_spans:
            return open_spans[-1].add_event(self._now(), name, **attributes)
        event = SpanEvent(
            time=self._now(), name=name, attributes=dict(attributes)
        )
        self.orphan_events.append(event)
        return event

    # -- inspection ----------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        open_spans = self._open.get()
        return open_spans[-1] if open_spans else None

    def active_spans(self) -> Tuple[Span, ...]:
        """The open spans of the running thread or task, outermost first."""
        return self._open.get()

    def current_context(self) -> Optional[TraceContext]:
        """The wire context of the active span, or None outside any span."""
        open_spans = self._open.get()
        return open_spans[-1].context() if open_spans else None

    def current_trace_id(self) -> Optional[str]:
        open_spans = self._open.get()
        return open_spans[-1].trace_id if open_spans else None

    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        """Drop recorded spans (open spans are kept)."""
        self.spans = [s for s in self.spans if s.end is None]
        self.orphan_events.clear()
