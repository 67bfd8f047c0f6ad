"""The :class:`Telemetry` facade — one object wired through every layer.

The network, the services, the KDC, the proxy verifier, and the audit log
all accept an optional ``Telemetry``.  A real instance bundles a
:class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`; the default is
:data:`NO_TELEMETRY`, a null object whose every operation is a no-op, so a
realm built without telemetry behaves byte-for-byte like the seed.

Span timestamps come from the *simulated* clock (bound by the realm that
owns the telemetry), so trace timing reflects protocol shape.  Duration
histograms for compute-bound hot paths (chain verification, signatures)
are fed ``time.perf_counter`` deltas by their call sites, because those
costs are real CPU, not simulated latency.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.clock import Clock, SystemClock
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.store import TraceStore
from repro.obs.trace import Span, SpanEvent, Tracer


class _NullSpan:
    """Absorbs every span operation; falsy so callers can test for it."""

    __slots__ = ()
    span_id = None
    parent_id = None
    run_id = None
    trace_id = None
    name = "<null>"
    start = 0.0
    end = 0.0
    status = "ok"
    duration = 0.0

    @property
    def attributes(self) -> dict:
        return {}

    @property
    def events(self) -> list:
        return []

    def set(self, **attributes: object) -> None:
        pass

    def add_event(self, time: float, name: str, **attributes: object) -> None:
        pass

    def __bool__(self) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _NullContext:
    """Reusable, re-entrant context manager yielding the null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTelemetry:
    """The default: every instrument is a no-op, and ``bool()`` is False.

    Hot paths may therefore either call through unconditionally (a null
    span context costs two attribute lookups) or guard with
    ``if telemetry:`` where even that matters.
    """

    enabled = False
    tracer = None
    metrics = None
    clock = None
    store = None
    usage = None

    def __bool__(self) -> bool:
        return False

    def bind_clock(self, clock: Clock) -> None:
        pass

    def span(self, name: str, **attributes: object) -> _NullContext:
        return _NULL_CONTEXT

    def wire_context(self) -> None:
        return None

    def current_trace_id(self) -> None:
        return None

    def run(self, label: str) -> _NullContext:
        return _NULL_CONTEXT

    def event(self, name: str, **attributes: object) -> None:
        pass

    def inc(
        self, name: str, amount: float = 1.0, help: str = "", **labels: object
    ) -> None:
        pass

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
        exemplar: Optional[str] = None,
        **labels: object,
    ) -> None:
        pass

    def capture_crypto(self) -> None:
        pass

    def release_crypto(self) -> None:
        pass


#: The shared null instance — the default everywhere a Telemetry is accepted.
NO_TELEMETRY = NullTelemetry()


class Telemetry:
    """Live tracer + metrics registry, wired through a deployment.

    Args:
        clock: time source for span timestamps.  Usually left ``None`` and
            bound by the :class:`~repro.testbed.Realm` that adopts this
            telemetry (so spans use the realm's simulated clock).
        capture_crypto: install a process-wide observer on
            :mod:`repro.crypto.signature` so every sign/verify lands in the
            ``signature_seconds`` histogram.  Process-wide because signers
            are value objects with no back-pointer to a deployment; release
            with :meth:`release_crypto` (or let the next capture replace it).
        meter_usage: attach a :class:`~repro.obs.usage.UsageMeter` as
            ``self.usage`` — it folds every finished span (wire bytes,
            handler time) and the crypto observer's sign/verify time into
            per-principal usage (§4 usage accounting).  Default off:
            metering costs a dict update per finished span.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Clock] = None,
        capture_crypto: bool = False,
        meter_usage: bool = False,
    ) -> None:
        self._clock_pinned = clock is not None
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.tracer = Tracer(now=lambda: self.clock.now())
        self.metrics = MetricsRegistry()
        self.store = TraceStore()
        self.tracer.add_finish_listener(self.store.add)
        self.usage = None
        if meter_usage:
            from repro.obs.usage import UsageMeter

            self.usage = UsageMeter()
            self.usage.attach(self)
            self.tracer.add_finish_listener(self.usage.on_span_finish)
        self._crypto_captured = False
        if capture_crypto:
            self.capture_crypto()

    def __bool__(self) -> bool:
        return True

    def bind_clock(self, clock: Clock) -> None:
        """Adopt a deployment's clock unless one was pinned at construction."""
        if not self._clock_pinned:
            self.clock = clock
            self._clock_pinned = True

    # -- tracing -------------------------------------------------------------

    def span(self, name: str, **attributes: object):
        return self.tracer.span(name, **attributes)

    def run(self, label: str):
        return self.tracer.run(label)

    def event(self, name: str, **attributes: object) -> Optional[SpanEvent]:
        return self.tracer.event(name, **attributes)

    def wire_context(self) -> Optional[str]:
        """The traceparent header the active span would stamp on a wire
        message, or None outside any span."""
        context = self.tracer.current_context()
        return context.to_header() if context is not None else None

    def current_trace_id(self) -> Optional[str]:
        """Trace id of the logical request currently in flight, if any."""
        return self.tracer.current_trace_id()

    # -- metrics -------------------------------------------------------------

    def inc(
        self, name: str, amount: float = 1.0, help: str = "", **labels: object
    ) -> None:
        self.metrics.counter(name, help=help).inc(amount, **labels)

    def observe(
        self,
        name: str,
        value: float,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
        exemplar: Optional[str] = None,
        **labels: object,
    ) -> None:
        if exemplar is None:
            exemplar = self.tracer.current_trace_id()
        self.metrics.histogram(name, help=help, buckets=buckets).observe(
            value, exemplar=exemplar, **labels
        )

    # -- crypto hot-path capture ---------------------------------------------

    def capture_crypto(self) -> None:
        from repro.crypto import signature as _signature

        def observer(scheme: str, op: str, seconds: float, ok: bool) -> None:
            self.inc(
                "signature_operations_total",
                help="Signature creations/verifications by scheme.",
                scheme=scheme,
                op=op,
                outcome="ok" if ok else "fail",
            )
            self.observe(
                "signature_seconds",
                seconds,
                help="Wall time per signature operation.",
                buckets=LATENCY_BUCKETS,
                scheme=scheme,
                op=op,
            )
            if self.usage is not None:
                self.usage.on_crypto(
                    scheme,
                    op,
                    seconds,
                    ok,
                    trace_id=self.tracer.current_trace_id(),
                    spans=self.tracer.active_spans(),
                )

        def cache_observer(event: str, scheme: str) -> None:
            if event == "evict":
                self.inc(
                    "vcache.evictions",
                    help="Verification cache evictions, by layer.",
                    layer="sig",
                )
            else:
                self.inc(
                    f"vcache.sig.{event}",
                    help="Signature memoization cache hits/misses.",
                    scheme=scheme,
                )
                # Pin the hit/miss to the request being served so a trace
                # shows which verifications the memo absorbed.
                if self.tracer.current_span is not None:
                    self.event(f"vcache.sig.{event}", scheme=scheme)

        _signature.set_signature_observer(observer)
        _signature.set_signature_cache_observer(cache_observer)
        self._crypto_captured = True

    def release_crypto(self) -> None:
        if self._crypto_captured:
            from repro.crypto import signature as _signature

            _signature.set_signature_observer(None)
            _signature.set_signature_cache_observer(None)
            self._crypto_captured = False

    # -- convenience exports (thin wrappers over repro.obs.export) -----------

    def spans_jsonl(self) -> str:
        from repro.obs.export import spans_to_jsonl

        return spans_to_jsonl(self.tracer.spans)

    def render_tree(self) -> str:
        from repro.obs.export import render_span_tree

        return render_span_tree(self.tracer.spans)

    def render_message_trace(self) -> str:
        from repro.obs.export import render_message_trace

        return render_message_trace(self.tracer.spans)

    def prometheus(self) -> str:
        from repro.obs.export import prometheus_text

        return prometheus_text(self.metrics)
