"""Request evaluation context for restriction checking.

A restricted proxy is presented to an end-server together with a concrete
*request* — perform operation X on object Y, consume N units of currency C.
Every restriction type (§7) is a predicate over this context.  The context is
assembled by the end-server's verification engine
(:mod:`repro.core.verification`) and handed to each restriction's ``check``
method; restrictions never see server internals directly.

Some fields are filled in per *chain link* by the verifier (``grantor``,
``exercisers``) because their meaning depends on the position in a cascaded
chain — e.g. the ``grantee`` restriction of link *i* is satisfied by the
principal that signed link *i+1*, not by the final claimant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Protocol

from repro.encoding.identifiers import GroupId, PrincipalId


class ReplayRegistry(Protocol):
    """State the ``accept-once`` restriction needs (§7.7).

    The end-server owns the registry; the restriction only asks "have you
    seen this (grantor, identifier) pair before?" and registers it.
    """

    def register(self, grantor: PrincipalId, identifier: str, expires_at: float) -> bool:
        """Record the identifier.  Returns True iff this is the first time."""

    def register_counted(
        self,
        grantor: PrincipalId,
        identifier: str,
        expires_at: float,
        limit: int,
    ) -> bool:
        """Count a use.  Returns True while the count stays within limit."""


@dataclass(frozen=True)
class RequestContext:
    """Everything a restriction may examine when deciding a request.

    Attributes:
        server: the end-server evaluating the request (its principal id).
        operation: the operation requested (free-form; grantor and end-server
            must agree on vocabulary — §7.5).
        target: the object the operation applies to, or None for
            object-less operations (e.g. "assert group membership").
        claimant: the authenticated identity of the presenter, or None when
            the presenter authenticated only by proof of proxy-key
            possession (pure bearer presentation).
        supporting_groups: groups asserted via group proxies presented
            alongside the main proxy (for ``for-use-by-group``, §7.2).
        asserting_group: when the request *is* a group-membership assertion,
            the group being asserted (checked by ``group-membership``, §7.6).
        amounts: resources requested in this operation, by currency
            (for ``quota``, §7.4).
        time: current time at the end-server.
        grantor: the grantor of the chain link being evaluated (set by the
            verifier; used by ``accept-once`` to scope identifiers).
        exercisers: principals considered to be exercising the link being
            evaluated — the signer of the next link, or the final claimant
            (used by ``grantee``, §7.1).
        replay_registry: server-side accept-once state, or None when the
            server does not support accept-once proxies.
        link_expires_at: expiration of the certificate link under
            evaluation (used by ``accept-once`` to bound registry entries).
    """

    server: PrincipalId
    operation: str
    target: Optional[str] = None
    claimant: Optional[PrincipalId] = None
    supporting_groups: FrozenSet[GroupId] = frozenset()
    asserting_group: Optional[GroupId] = None
    amounts: Dict[str, int] = field(default_factory=dict)
    time: float = 0.0
    grantor: Optional[PrincipalId] = None
    exercisers: FrozenSet[PrincipalId] = frozenset()
    replay_registry: Optional[ReplayRegistry] = None
    link_expires_at: float = float("inf")

    def for_link(
        self,
        grantor: PrincipalId,
        exercisers: FrozenSet[PrincipalId],
        link_expires_at: float,
    ) -> "RequestContext":
        """Specialize this context for one chain link (verifier use)."""
        return self.with_values(
            grantor=grantor,
            exercisers=exercisers,
            link_expires_at=link_expires_at,
        )

    def with_values(self, **changes) -> "RequestContext":
        """A copy with the fields in ``changes`` replaced: what
        :func:`dataclasses.replace` returns.  The class has no
        ``__post_init__`` and its ``__init__`` only stores the fields, so
        the copy is built from this instance's fields directly, without
        re-reading the field list on every verification."""
        copy = object.__new__(type(self))
        fields = copy.__dict__
        fields.update(self.__dict__)
        fields.update(changes)
        return copy


def evaluate(
    restrictions: Iterable, context: RequestContext, telemetry=None
) -> None:
    """Check every restriction against ``context``, reporting outcomes.

    Additive semantics (§6.2): all must pass, so the first refusal
    propagates.  With telemetry attached, each decision lands in the
    ``restriction_checks_total`` counter (labelled by restriction kind and
    outcome) and refusals are recorded as ``restriction.denied`` span
    events — the per-link evidence trail a span tree shows alongside the
    messages.  Without telemetry this is exactly
    :func:`repro.core.restrictions.check_all`.
    """
    if telemetry is None or not telemetry.enabled:
        for restriction in restrictions:
            restriction.check(context)
        return
    for restriction in restrictions:
        kind = type(restriction).__name__
        try:
            restriction.check(context)
        except Exception as exc:
            telemetry.inc(
                "restriction_checks_total",
                help="Restriction evaluations, by kind and outcome.",
                kind=kind,
                outcome="denied",
            )
            telemetry.event(
                "restriction.denied",
                kind=kind,
                operation=context.operation,
                reason=str(exc),
            )
            raise
        telemetry.inc(
            "restriction_checks_total",
            help="Restriction evaluations, by kind and outcome.",
            kind=kind,
            outcome="allowed",
        )
