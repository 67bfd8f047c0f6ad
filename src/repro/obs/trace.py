"""Span-based protocol tracing.

One protocol run — a Fig. 3 authorization, a Fig. 4 cascade, a Fig. 5
check-clearing — is a tree of nested activities: a client call opens a
network send, which opens a service dispatch, which may verify a proxy
chain, which may recursively call other servers.  A :class:`Span` records
one such activity with simulated-clock start/end times, free-form
attributes (principal ids, message types, restriction outcomes), and point
:class:`SpanEvent`\\ s; parent/child links make the whole run render as a
single tree.

The simulator is synchronous and single-threaded, so the active-span stack
*is* the call stack — no context propagation machinery is needed in
process.  Across the *wire*, causality rides a W3C-traceparent-style
:class:`~repro.obs.context.TraceContext`: every span carries the
``trace_id`` of the logical request it serves (inherited from its parent,
adopted from a wire context, or freshly drawn from the tracer's seeded
rng), so retries, failovers, cascaded hops, and ledger postings all join
on one id.  Spans are also grouped into protocol **runs**
(:meth:`Tracer.run`): every span started inside the run carries its id,
which is how audit records, metrics deltas, and trace trees are
correlated.
"""

from __future__ import annotations

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
    """Collects spans; owns the active-span stack, run ids, and trace ids.

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
        self.spans: List[Span] = []
        self.orphan_events: List[SpanEvent] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._run_counter = 0
        self._run_id: Optional[str] = None
        #: Called with each span as it finishes (TraceStore indexing).
        self._finish_listeners: List[Callable[[Span], None]] = []

    # -- recording -----------------------------------------------------------

    def add_finish_listener(self, listener: Callable[[Span], None]) -> None:
        self._finish_listeners.append(listener)

    def new_trace_id(self) -> str:
        """A fresh 32-hex trace id from the seeded rng."""
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
        local parent on the stack, the new span adopts its trace id and
        records the remote span id as its causal parent — how a service
        with its *own* tracer still joins the sender's trace.  A local
        parent always wins (in process, the stack is the truth).
        """
        parent = self._stack[-1] if self._stack else None
        remote_parent = None
        if parent is not None:
            trace_id = parent.trace_id
        else:
            remote = TraceContext.try_parse(remote_context)
            if remote is not None:
                trace_id = remote.trace_id
                remote_parent = remote.span_id
            else:
                trace_id = self.new_trace_id()
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            run_id=self._run_id,
            name=name,
            start=self._now(),
            attributes=attributes,
            trace_id=trace_id,
            remote_parent=remote_parent,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.attributes.setdefault(
                "error", f"{type(exc).__name__}: {exc}"
            )
            raise
        finally:
            span.end = self._now()
            self._stack.pop()
            for listener in self._finish_listeners:
                listener(span)

    @contextmanager
    def run(self, label: str) -> Iterator[Span]:
        """Group everything inside as one protocol run (a root span)."""
        self._run_counter += 1
        run_id = f"run-{self._run_counter}:{label}"
        previous = self._run_id
        self._run_id = run_id
        try:
            with self.span(f"run:{label}", run=run_id) as span:
                yield span
        finally:
            self._run_id = previous

    def event(self, name: str, **attributes: object) -> SpanEvent:
        """Record a point event on the current span (or as an orphan)."""
        if self._stack:
            return self._stack[-1].add_event(self._now(), name, **attributes)
        event = SpanEvent(
            time=self._now(), name=name, attributes=dict(attributes)
        )
        self.orphan_events.append(event)
        return event

    # -- inspection ----------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def active_spans(self) -> Tuple[Span, ...]:
        """The open spans, outermost first (a snapshot of the stack)."""
        return tuple(self._stack)

    def current_context(self) -> Optional[TraceContext]:
        """The wire context of the active span, or None outside any span."""
        if not self._stack:
            return None
        return self._stack[-1].context()

    def current_trace_id(self) -> Optional[str]:
        if not self._stack:
            return None
        return self._stack[-1].trace_id

    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.end is not None]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        """Drop recorded spans (open spans on the stack are kept)."""
        self.spans = [s for s in self.spans if s.end is None]
        self.orphan_events.clear()
