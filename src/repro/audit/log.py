"""Audit trails from delegate cascades (§3.4).

"An important difference between the two approaches to cascaded
authorization is that the use of a delegate proxy leaves an audit trail
since the new proxy identifies the intermediate server."

:class:`AuditLog` collects one record per verified presentation: who was
authorized (root grantor), through whom (the identity-signed intermediates),
exercised by whom, for what.  End-servers append to it; operators query it.

When a :class:`~repro.obs.telemetry.Telemetry` is attached, every record is
also emitted as an ``audit.record`` span event on whatever span is active
at verification time, so audit trails and protocol traces correlate by
protocol-run id — the auditable, attributable evidence a tracing layer
exists to provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.verification import VerifiedProxy
from repro.durable import Durable
from repro.encoding.identifiers import PrincipalId
from repro.encoding.schema import wire


@wire
@dataclass(frozen=True)
class AuditRecord:
    """One verified use of delegated rights; its wire form is the WAL and
    snapshot payload."""

    time: float
    server: PrincipalId
    grantor: PrincipalId
    claimant: Optional[PrincipalId]
    intermediates: Tuple[PrincipalId, ...]
    operation: str
    target: Optional[str]
    bearer: bool
    #: The grant was honoured while the issuing authority was unreachable
    #: (degraded mode, §3.1–3.2) — flagged so operators can review every
    #: decision taken on cached credentials after the outage.
    degraded: bool = False

    def describe(self) -> str:
        via = (
            " via " + " -> ".join(str(p) for p in self.intermediates)
            if self.intermediates
            else ""
        )
        actor = str(self.claimant) if self.claimant else "<bearer>"
        text = (
            f"t={self.time:.3f} {self.server}: {actor} exercised rights of "
            f"{self.grantor}{via}: {self.operation} {self.target or ''}"
        ).rstrip()
        if self.degraded:
            text += " [degraded]"
        return text


class AuditLog(Durable):
    """Append-only audit store with simple queries.

    Durable: each record is logged as one ``audit`` record — the trail
    is evidence, and evidence that dies with the process is no evidence
    at all.
    """

    SNAPSHOT = "audit"
    RECORDS = ("audit",)

    def __init__(self, telemetry=None) -> None:
        self._records: List[AuditRecord] = []
        self._telemetry = telemetry

    def record(
        self,
        time: float,
        server: PrincipalId,
        verified: VerifiedProxy,
        operation: str,
        target: Optional[str],
    ) -> AuditRecord:
        entry = AuditRecord(
            time=time,
            server=server,
            grantor=verified.grantor,
            claimant=verified.claimant,
            intermediates=verified.audit_trail,
            operation=operation,
            target=target,
            bearer=verified.bearer,
            degraded=verified.degraded,
        )
        self._records.append(entry)
        self.wal.append("audit", entry)
        telemetry = self._telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.event(
                "audit.record",
                server=str(server),
                grantor=str(entry.grantor),
                claimant=(
                    str(entry.claimant)
                    if entry.claimant is not None
                    else None
                ),
                via=" -> ".join(str(p) for p in entry.intermediates),
                operation=operation,
                target=target,
                bearer=entry.bearer,
                degraded=entry.degraded,
            )
            telemetry.inc(
                "audit_records_total",
                help="Audit records written, by server and kind.",
                server=str(server),
                kind="bearer" if entry.bearer else "delegate",
            )
        return entry

    def replay(self, kind: str, data: dict) -> None:
        """Re-append one record during recovery — without telemetry:
        recovery must not re-count records in the metrics."""
        self._records.append(AuditRecord.from_wire(data))

    def capture_state(self) -> dict:
        """Snapshot of the full trail."""
        return {"records": [r.to_wire() for r in self._records]}

    def restore_state(self, state: dict) -> None:
        for data in state["records"]:
            self._records.append(AuditRecord.from_wire(data))

    def all(self) -> Tuple[AuditRecord, ...]:
        return tuple(self._records)

    def involving(self, principal: PrincipalId) -> Tuple[AuditRecord, ...]:
        """Records where ``principal`` granted, exercised, or relayed."""
        return tuple(
            r
            for r in self._records
            if r.grantor == principal
            or r.claimant == principal
            or principal in r.intermediates
        )

    def anonymous_uses(self) -> Tuple[AuditRecord, ...]:
        """Bearer-cascade uses — the ones with *no* audit trail (§3.4)."""
        return tuple(
            r
            for r in self._records
            if r.claimant is None and not r.intermediates
        )

    def __len__(self) -> int:
        return len(self._records)
