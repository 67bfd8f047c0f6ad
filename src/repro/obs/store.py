"""Causal trace store: completed spans indexed for forensic queries.

A :class:`TraceStore` subscribes to a tracer's finish hook and indexes
every completed span by trace id and by the principals it names, so the
question the paper cares about — *which chain of grants caused this
effect?* — becomes a lookup instead of a log grep.  The store answers:

* :meth:`by_trace` — every span of one logical request, in causal order;
* :meth:`by_principal` — every trace a principal participated in;
* :meth:`slowest` / :meth:`failed` — the anomalies worth a forensic look.

:func:`validate_spans` is the schema check the CI obs job runs
over a ``--jsonl`` dump: every span carries a trace id, every parent
reference resolves, and no trace is an orphan collection of spanless ids.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.trace import Span

#: Span attribute keys whose values name principals (or things that act
#: like them) — the index feeding :meth:`TraceStore.by_principal`.
PRINCIPAL_ATTRS: Tuple[str, ...] = (
    "source",
    "destination",
    "service",
    "principal",
    "grantor",
    "grantee",
    "claimant",
    "subject",
    "endpoint",
    "logical",
)


class TraceStore:
    """Indexes completed spans by trace id and principal.

    Attach to a tracer with ``tracer.add_finish_listener(store.add)`` —
    the :class:`~repro.obs.telemetry.Telemetry` facade wires one up at
    construction.  The store holds references to the tracer's span
    objects; it never copies or mutates them.
    """

    def __init__(self) -> None:
        self._by_trace: Dict[str, List[Span]] = {}
        self._by_principal: Dict[str, Set[str]] = {}
        self._count = 0

    # -- ingestion -----------------------------------------------------------

    def add(self, span: Span) -> None:
        """Index one completed span (the tracer finish-listener target)."""
        if span.trace_id is None:
            return
        self._by_trace.setdefault(span.trace_id, []).append(span)
        self._count += 1
        for key in PRINCIPAL_ATTRS:
            value = span.attributes.get(key)
            if isinstance(value, str) and value:
                self._by_principal.setdefault(value, set()).add(span.trace_id)

    def extend(self, spans: Iterable[Span]) -> None:
        for span in spans:
            self.add(span)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def trace_ids(self) -> List[str]:
        """All known trace ids, in first-seen order."""
        return list(self._by_trace)

    def by_trace(self, trace_id: str) -> List[Span]:
        """Every span of one logical request, ordered by start then id.

        Accepts a unique prefix of the trace id (CLI convenience), like
        git does for commits.
        """
        spans = self._by_trace.get(trace_id)
        if spans is None:
            matches = [t for t in self._by_trace if t.startswith(trace_id)]
            if len(matches) == 1:
                spans = self._by_trace[matches[0]]
            elif len(matches) > 1:
                raise KeyError(
                    f"trace id prefix {trace_id!r} is ambiguous "
                    f"({len(matches)} matches)"
                )
            else:
                return []
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def resolve(self, prefix: str) -> Optional[str]:
        """The full trace id for a unique prefix, or None."""
        if prefix in self._by_trace:
            return prefix
        matches = [t for t in self._by_trace if t.startswith(prefix)]
        return matches[0] if len(matches) == 1 else None

    def by_principal(self, principal: str) -> List[str]:
        """Trace ids in which ``principal`` appears as a span attribute."""
        hits = self._by_principal.get(principal, set())
        return [t for t in self._by_trace if t in hits]

    def principals(self) -> List[str]:
        return sorted(self._by_principal)

    def duration_of(self, trace_id: str) -> float:
        """Wall span of a trace on the simulated clock (max end - min start)."""
        spans = self._by_trace.get(trace_id, [])
        timed = [s for s in spans if s.end is not None]
        if not timed:
            return 0.0
        return max(s.end for s in timed) - min(s.start for s in timed)

    def slowest(self, n: int = 5) -> List[Tuple[str, float]]:
        """The ``n`` longest traces as ``(trace_id, duration)`` pairs."""
        ranked = sorted(
            ((t, self.duration_of(t)) for t in self._by_trace),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[: max(0, n)]

    def failed(self) -> List[str]:
        """Trace ids containing at least one error-status span."""
        return [
            t
            for t, spans in self._by_trace.items()
            if any(s.status == "error" for s in spans)
        ]

    def clear(self) -> None:
        self._by_trace.clear()
        self._by_principal.clear()
        self._count = 0


# -- JSONL schema validation (CI obs job) ------------------------------------


def load_spans_jsonl(text: str) -> List[Span]:
    """Parse a spans ``--jsonl`` dump back into :class:`Span` objects."""
    spans: List[Span] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_no}: not JSON ({exc})") from exc
        spans.append(Span.from_dict(record))
    return spans


def validate_spans(spans: Iterable[Span]) -> List[str]:
    """Schema-check a span dump; returns human-readable violations.

    The invariants the obs CI job enforces:

    * every span carries a 32-hex ``trace_id``;
    * every non-null ``parent_id`` resolves to a span in the dump, and the
      parent belongs to the same trace;
    * every trace has exactly one local root (``parent_id`` null), unless
      the root adopted a remote parent — then the remote trace id must
      still match;
    * every finished span has ``end >= start``.
    """
    spans = list(spans)
    problems: List[str] = []
    by_id: Dict[int, Span] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"span {span.span_id}: duplicate span_id")
        by_id[span.span_id] = span

    traces: Dict[str, List[Span]] = {}
    for span in spans:
        label = f"span {span.span_id} ({span.name})"
        if not isinstance(span.trace_id, str) or len(span.trace_id) != 32:
            problems.append(f"{label}: missing or malformed trace_id")
            continue
        traces.setdefault(span.trace_id, []).append(span)
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(
                    f"{label}: parent_id {span.parent_id} does not resolve"
                )
            elif parent.trace_id != span.trace_id:
                problems.append(
                    f"{label}: parent {parent.span_id} is in trace "
                    f"{parent.trace_id}, not {span.trace_id}"
                )
        if span.end is not None and span.end < span.start:
            problems.append(f"{label}: end {span.end} < start {span.start}")

    for trace_id, members in traces.items():
        roots = [s for s in members if s.parent_id is None]
        if not roots:
            problems.append(f"trace {trace_id}: no root span (orphan trace)")
    return problems
