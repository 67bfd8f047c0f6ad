"""Per-principal resource metering and cost attribution (§4).

The paper's accounting vision is that servers *charge principals for the
resources their requests consume*.  The rest of the obs stack measures
the system in aggregate; this module answers *who caused the work*:

* :class:`UsageMeter` attributes wire bytes, message counts, crypto
  sign/verify time, handler self-time, retries, and degraded grants to
  the **responsible principal and operation** — the principal whose
  request opened the trace — as a fold over the tracer's finished spans
  (every ``net.send`` span carries both legs' sizes).  A nested Fig. 5
  clearing hop
  (bank-payee → bank-payor) is therefore billed to the *payee* who
  deposited the check, not to the bank that forwarded it.
* :class:`QuantileDigest` is a streaming log-bucket percentile estimate:
  per-principal p50/p95/p99 request latency without storing raw samples.
* :class:`Tariff` prices a usage record in integer currency units, and
  :func:`post_usage_charges` posts the result through the
  :class:`~repro.ledger.ledger.Ledger` as ordinary conserved transfer
  postings — "accounting for resources" as an end-to-end, machine-checked
  flow.

Two time bases coexist, mirroring the telemetry layer's rule: byte
counts, message counts, retries, degraded grants, and latency digests
are driven by the *simulated* clock and are therefore deterministic per
seed; crypto and handler self-time are real ``time.perf_counter`` CPU
measurements.  :meth:`UsageMeter.report` excludes the CPU columns by
default so the default report is byte-identical across runs of the same
seed (pass ``include_cpu=True`` for the full picture), and
:class:`Tariff` prices crypto by operation count, never by time, so the
charges are too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.bounded import BoundedStore
from repro.obs.metrics import LATENCY_BUCKETS

#: (principal, operation) — the attribution key for every metered cost.
UsageKey = Tuple[str, str]

#: Attribution for work no trace or span can name.
UNATTRIBUTED = "(unattributed)"

#: The server-owned account usage charges accrue to (§4).
REVENUE_ACCOUNT = "usage:revenue"

#: Span attribute keys consulted (in order) to resolve a responsible
#: principal when the trace registered no wire sender — the offline
#: figures (fig1/fig4) never touch the network, so their crypto time is
#: attributed to the grantor whose chain is being verified.
_PRINCIPAL_ATTRS = ("principal", "claimant", "source", "grantor", "service")

#: Span event names folded into usage counters at span finish.
_RETRY_EVENT = "resil.retry"
_DEGRADED_EVENT = "degraded.grant"


@dataclass
class UsageRecord:
    """Accumulated resource usage for one (principal, operation) key.

    ``messages``/``bytes_*``/``retries``/``degraded_grants`` are
    deterministic per seed; ``crypto_seconds``/``handler_seconds`` are
    real CPU time (see module docstring).
    """

    messages: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    crypto_ops: int = 0
    crypto_seconds: float = 0.0
    handler_seconds: float = 0.0
    retries: int = 0
    degraded_grants: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_sent + self.bytes_received

    def merge(self, other: "UsageRecord") -> None:
        for f in fields(self):
            setattr(
                self, f.name, getattr(self, f.name) + getattr(other, f.name)
            )

    def to_dict(self, include_cpu: bool = False) -> dict:
        out = {
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "retries": self.retries,
            "degraded_grants": self.degraded_grants,
        }
        if include_cpu:
            out["crypto_ops"] = self.crypto_ops
            out["crypto_seconds"] = self.crypto_seconds
            out["handler_seconds"] = self.handler_seconds
        return out


@functools.lru_cache(maxsize=8)
def _bucket_bounds(
    low: float, high: float, bins_per_decade: int
) -> Tuple[float, ...]:
    """The bucket upper bounds of one digest shape, computed once and
    shared: a meter makes a digest per principal, all of one shape."""
    decades = math.log10(high / low)
    n = int(math.ceil(decades * bins_per_decade))
    ratio = 10.0 ** (1.0 / bins_per_decade)
    return tuple(low * ratio**i for i in range(n + 1))


class QuantileDigest:
    """Streaming percentile estimate over fixed log-spaced buckets.

    Observations land in geometric buckets spanning ``low``..``high``
    seconds; :meth:`quantile` answers with the upper bound of the bucket
    containing the requested rank.  Bounded memory, no raw samples, and
    fully deterministic — the properties the per-principal latency
    digest needs.
    """

    def __init__(
        self,
        low: float = 1e-6,
        high: float = 100.0,
        bins_per_decade: int = 16,
    ) -> None:
        if low <= 0 or high <= low:
            raise ValueError("need 0 < low < high")
        self.bounds = _bucket_bounds(low, high, bins_per_decade)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect, kept dependency-free)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1) as a bucket upper bound."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        target = math.ceil(q * self.count)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.bounds[-1]  # overflow bucket: clamp to the top
        return self.bounds[-1]  # pragma: no cover - seen always reaches count


class UsageMeter:
    """Attributes metered resource usage to (principal, operation).

    Usage is a fold over the tracer's finished spans
    (:meth:`on_span_finish`), plus the crypto observer (:meth:`on_crypto`):

    * a ``net.send`` bills its request leg (``request_bytes``) and, when
      the reply came back, its response leg (``response_bytes``): the
      sizes the network metered, so ``total_bytes()`` reconciles exactly
      with ``network_bytes_total`` /
      :class:`~repro.net.metrics.NetworkMetrics`;
    * an ``rpc.handle`` that ran its handler (not ``deduped``) bills its
      self CPU time: its ``elapsed`` less that of the ``rpc.handle``
      spans nested in it;
    * ``resil.retry`` and ``degraded.grant`` events count when their
      span finishes, and each ``net.send`` lands in its payer's latency
      digest.

    Who pays (:meth:`_payer`) is the same rule for all of them: the
    first top-level ``net.send`` of a trace registers its sender and
    message type as the trace's owner, and every other cost in the
    trace — nested hops, responses, retries, crypto, handlers — bills
    to that owner.  Before that send finishes, the outermost open
    ``net.send`` (the same request, still in flight) stands in for it.
    Work in no such trace falls back to span attributes (grantor,
    claimant, …) and finally to :data:`UNATTRIBUTED`.
    """

    def __init__(self, max_traces: int = 4096) -> None:
        self.records: Dict[UsageKey, UsageRecord] = {}
        self.digests: Dict[str, QuantileDigest] = {}
        #: trace_id -> owning (principal, operation); bounded LRU.
        self._owners = BoundedStore(max_traces)
        #: open rpc.handle span id -> elapsed of the handlers nested in it.
        self._nested: Dict[int, float] = {}
        #: The open spans around a finishing span (the tracer's, once
        #: attached).
        self._active_spans: Callable[[], tuple] = tuple
        #: The metrics usage is mirrored into, once attached.
        self._messages = self._bytes = self._latency = None
        self._retries = self._degraded = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, telemetry) -> None:
        """Read ``telemetry``'s open spans, and mirror usage into its
        metrics registry as it accrues."""
        self._active_spans = telemetry.tracer.active_spans
        metrics = telemetry.metrics
        self._messages = metrics.counter(
            "usage.messages_total",
            help="Wire messages attributed to a responsible principal.",
        )
        self._bytes = metrics.counter(
            "usage.bytes_total",
            help="Wire bytes attributed to a responsible principal.",
        )
        self._retries = metrics.counter(
            "usage.retries_total",
            help="Retried sends attributed to a responsible principal.",
        )
        self._degraded = metrics.counter(
            "usage.degraded_grants_total",
            help="Degraded-mode grants attributed to a responsible "
            "principal.",
        )
        self._latency = metrics.histogram(
            "usage.request_seconds",
            help="Round-trip time of wire sends, by responsible principal.",
            buckets=LATENCY_BUCKETS,
        )

    # -- attribution ----------------------------------------------------------

    def owner_of(self, trace_id: Optional[str]) -> Optional[UsageKey]:
        if trace_id is None:
            return None
        return self._owners.lookup(trace_id)

    def _payer(self, trace_id: Optional[str], active, named) -> UsageKey:
        """Who pays for work in ``trace_id`` while ``active`` spans are
        open: the trace's owner; before it has one, the outermost open
        ``net.send``; else the innermost of ``named`` naming a principal."""
        owner = self.owner_of(trace_id)
        if owner is not None:
            return owner
        for span in active:
            if span.name == "net.send":
                named = (span,)
                break
        for span in reversed(named):
            attrs = span.attributes
            for attr in _PRINCIPAL_ATTRS:
                value = attrs.get(attr)
                if isinstance(value, str) and value:
                    operation = attrs.get("operation") or attrs.get(
                        "msg_type"
                    )
                    return (value, str(operation or span.name))
        return (UNATTRIBUTED, UNATTRIBUTED)

    def _record(self, key: UsageKey) -> UsageRecord:
        record = self.records.get(key)
        if record is None:
            record = self.records.setdefault(key, UsageRecord())
        return record

    # -- meter inputs ---------------------------------------------------------

    def on_crypto(
        self,
        scheme: str,
        op: str,
        seconds: float,
        ok: bool,
        trace_id: Optional[str] = None,
        spans=(),
    ) -> None:
        """Attribute one sign/verify operation (signature-observer feed);
        ``spans`` are the open spans, outermost first."""
        record = self._record(self._payer(trace_id, spans, spans))
        record.crypto_ops += 1
        record.crypto_seconds += seconds

    def on_span_finish(self, span) -> None:
        """Tracer finish-listener: fold one finished span into usage."""
        active = self._active_spans()
        if span.name == "net.send":
            self._on_send(span, active)
        elif span.name == "rpc.handle":
            self._on_handle(span, active)
        retries = degraded = 0
        for event in span.events:
            if event.name == _RETRY_EVENT:
                retries += 1
            elif event.name == _DEGRADED_EVENT:
                degraded += 1
        if retries or degraded:
            key = self._payer(span.trace_id, active, (span,))
            record = self._record(key)
            record.retries += retries
            record.degraded_grants += degraded
            if self._retries is not None:
                principal, operation = key
                if retries:
                    self._retries.inc(
                        retries, principal=principal, operation=operation
                    )
                if degraded:
                    self._degraded.inc(
                        degraded, principal=principal, operation=operation
                    )

    def _on_send(self, span, active) -> None:
        key = self._payer(span.trace_id, active, (span,))
        if span.trace_id is not None and not any(
            s.name == "net.send" for s in active
        ):
            self._owners.put(span.trace_id, key)
        attrs = span.attributes
        sent = attrs.get("request_bytes")
        if sent is not None:
            record = self._record(key)
            record.messages += 1
            record.bytes_sent += sent
            self._mirror(key, "request", sent)
            received = attrs.get("response_bytes")
            if received is not None:
                record.messages += 1
                record.bytes_received += received
                self._mirror(key, "response", received)
        digest = self.digests.get(key[0])
        if digest is None:
            digest = self.digests[key[0]] = QuantileDigest()
        digest.observe(span.duration)
        if self._latency is not None:
            self._latency.observe(
                span.duration, exemplar=span.trace_id, principal=key[0]
            )

    def _mirror(self, key: UsageKey, leg: str, size: int) -> None:
        if self._messages is not None:
            principal, operation = key
            self._messages.inc(
                1, principal=principal, operation=operation, leg=leg
            )
            self._bytes.inc(
                size, principal=principal, operation=operation, leg=leg
            )

    def _on_handle(self, span, active) -> None:
        if span.attributes.get("deduped"):
            return  # answered from the response cache: no handler ran
        nested = self._nested.pop(span.span_id, 0.0)
        for outer in reversed(active):
            if outer.name == "rpc.handle":
                self._nested[outer.span_id] = (
                    self._nested.get(outer.span_id, 0.0) + span.elapsed
                )
                break
        record = self._record(self._payer(span.trace_id, active, (span,)))
        record.handler_seconds += max(span.elapsed - nested, 0.0)

    # -- queries --------------------------------------------------------------

    def total_messages(self) -> int:
        return sum(r.messages for r in self.records.values())

    def total_bytes(self) -> int:
        return sum(r.bytes_total for r in self.records.values())

    def reconcile(self, net_messages: int, net_bytes: int) -> Tuple[bool, str]:
        """``(ok, verdict line)`` against the network's own counters; an
        empty meter fails too, since a reconciliation over nothing proves
        nothing."""
        messages, size = self.total_messages(), self.total_bytes()
        if messages == 0:
            verdict = "EMPTY"
        elif (messages, size) == (net_messages, net_bytes):
            verdict = "ok"
        else:
            verdict = "MISMATCH"
        return verdict == "ok", (
            f"metered {messages} messages / {size} bytes; net counters "
            f"{net_messages} / {net_bytes} -> {verdict}"
        )

    def by_principal(self) -> Dict[str, UsageRecord]:
        """Per-principal usage, operations merged."""
        out: Dict[str, UsageRecord] = {}
        for (principal, _), record in self.records.items():
            merged = out.setdefault(principal, UsageRecord())
            merged.merge(record)
        return out

    def percentiles(self, principal: str) -> Tuple[float, float, float]:
        """(p50, p95, p99) request latency for ``principal``, seconds."""
        digest = self.digests.get(principal)
        if digest is None or digest.count == 0:
            return (0.0, 0.0, 0.0)
        return (
            digest.quantile(0.50),
            digest.quantile(0.95),
            digest.quantile(0.99),
        )

    def to_json(self, include_cpu: bool = False) -> dict:
        """A JSON-friendly dump; deterministic per seed unless
        ``include_cpu`` adds the real-CPU fields."""
        records = [
            {"principal": p, "operation": o, **r.to_dict(include_cpu)}
            for (p, o), r in sorted(self.records.items())
        ]
        principals = {}
        for principal, record in sorted(self.by_principal().items()):
            p50, p95, p99 = self.percentiles(principal)
            principals[principal] = {
                **record.to_dict(include_cpu),
                "latency_p50": p50,
                "latency_p95": p95,
                "latency_p99": p99,
            }
        return {
            "records": records,
            "principals": principals,
            "totals": {
                "messages": self.total_messages(),
                "bytes": self.total_bytes(),
            },
        }

    def report(
        self,
        top: Optional[int] = None,
        principal: Optional[str] = None,
        include_cpu: bool = False,
    ) -> str:
        """Human-readable per-principal usage table.

        Deterministic per seed by default; ``include_cpu`` appends the
        measured crypto/handler CPU columns (see module docstring).
        """
        rows = sorted(
            self.records.items(),
            key=lambda item: (-item[1].bytes_total, item[0]),
        )
        if principal is not None:
            rows = [r for r in rows if r[0][0] == principal]
        if top is not None:
            rows = rows[:top]
        header = (
            f"{'principal':<20} {'operation':<24} {'msgs':>5} "
            f"{'sent(B)':>8} {'recv(B)':>8} {'retry':>5} {'degr':>4} "
            f"{'p50(s)':>9} {'p95(s)':>9} {'p99(s)':>9}"
        )
        if include_cpu:
            header += f" {'crypto(ms)':>10} {'handler(ms)':>11}"
        lines = [header, "-" * len(header)]
        for (who, op), record in rows:
            p50, p95, p99 = self.percentiles(who)
            line = (
                f"{who:<20} {op:<24} {record.messages:>5} "
                f"{record.bytes_sent:>8} {record.bytes_received:>8} "
                f"{record.retries:>5} {record.degraded_grants:>4} "
                f"{p50:>9.6f} {p95:>9.6f} {p99:>9.6f}"
            )
            if include_cpu:
                line += (
                    f" {record.crypto_seconds * 1000:>10.3f}"
                    f" {record.handler_seconds * 1000:>11.3f}"
                )
            lines.append(line)
        lines.append(
            f"totals: {self.total_messages()} messages, "
            f"{self.total_bytes()} bytes"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cost attribution: tariff pricing and ledger charge postings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tariff:
    """Integer prices per metered unit (ledger amounts are integers).

    Only deterministic units are priced — messages, bytes, crypto
    operations, retries, degraded grants — so the same seed posts the
    same charges on every run; the measured ``*_seconds`` columns are
    reported, never billed.  Bytes round *up* to whole KiB (``ceil``): a
    principal who sent anything is charged at least one unit of it, and
    the sum of per-principal charges can never undercount the metered
    total.
    """

    currency: str = "credits"
    per_message: int = 1
    per_kib: int = 1
    per_crypto_op: int = 1
    per_retry: int = 1
    per_degraded_grant: int = 5

    def price(self, record: UsageRecord) -> int:
        cost = record.messages * self.per_message
        if record.bytes_total:
            cost += math.ceil(record.bytes_total / 1024) * self.per_kib
        cost += record.crypto_ops * self.per_crypto_op
        cost += record.retries * self.per_retry
        cost += record.degraded_grants * self.per_degraded_grant
        return cost


@dataclass(frozen=True)
class Charge:
    """One priced, posted usage charge."""

    principal: str
    amount: int
    currency: str
    posting_id: int


def post_usage_charges(
    ledger,
    meter: UsageMeter,
    tariff: Optional[Tariff] = None,
    period: str = "",
    revenue_account: str = REVENUE_ACCOUNT,
) -> List[Charge]:
    """Price the meter's per-principal usage and post conserved charges.

    Each charge is an ordinary balanced transfer — debit the principal's
    account, credit ``revenue_account`` — applied atomically by
    :meth:`~repro.ledger.ledger.Ledger.post`, so
    ``audit_discrepancies()`` machine-checks that charging changed no
    totals.  ``period`` makes charges idempotent: re-charging the same
    period dedupes instead of double-billing.  Accounts must already
    exist and be funded; see ``AccountingServer.charge_usage`` for the
    variant that provisions them.
    """
    from repro.ledger.posting import usage_charge

    tariff = tariff or Tariff()
    charges: List[Charge] = []
    for principal, record in sorted(meter.by_principal().items()):
        amount = tariff.price(record)
        if amount <= 0:
            continue
        posting = usage_charge(
            principal,
            revenue_account,
            tariff.currency,
            amount,
            description=f"usage charge {principal}"
            + (f" [{period}]" if period else ""),
        )
        dedupe_key = f"usage:{period}:{principal}" if period else None
        posted = ledger.post(posting, dedupe_key=dedupe_key)
        charges.append(
            Charge(
                principal=principal,
                amount=amount,
                currency=tariff.currency,
                posting_id=posted.posting_id,
            )
        )
    return charges


def charges_to_json(charges: List[Charge]) -> List[dict]:
    return [
        {
            "principal": c.principal,
            "amount": c.amount,
            "currency": c.currency,
            "posting_id": c.posting_id,
        }
        for c in charges
    ]


__all__ = [
    "Charge",
    "QuantileDigest",
    "REVENUE_ACCOUNT",
    "Tariff",
    "UNATTRIBUTED",
    "UsageKey",
    "UsageMeter",
    "UsageRecord",
    "charges_to_json",
    "post_usage_charges",
]
