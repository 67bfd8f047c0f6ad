"""The restriction vocabulary (§7).

The restrictions field of a proxy "should be interpreted as a collection of
typed subfields, each type corresponding to a different restriction" (§7).
Restrictions are **additive only**: "each subfield places additional
restrictions on the use of credentials, never removing restrictions or
granting additional privileges" (§6.2).  Additivity is enforced structurally:
the only composition operation is set union across chain links, and every
restriction in every link must pass for a request to be allowed.

Implemented types (paper section in parentheses):

* :class:`Grantee` (§7.1) — named delegates, k-of-n.
* :class:`ForUseByGroup` (§7.2) — group proxies required, k-of-n.
* :class:`IssuedFor` (§7.3) — servers allowed to accept the proxy.
* :class:`Quota` (§7.4) — per-currency resource limit.
* :class:`Authorized` (§7.5) — allowed (object, operations) pairs.
* :class:`GroupMembership` (§7.6) — groups assertable via this proxy.
* :class:`AcceptOnce` (§7.7) — single-use identifier (check numbers).
* :class:`LimitRestriction` (§7.8) — server-scoped nested restrictions.
* :class:`Expiration` — a validity bound carried as a restriction, used in
  ACL-entry restriction lists (§3.5) where there is no certificate envelope
  to carry an expiry.

Each restriction is a :func:`~repro.encoding.schema.wire` dataclass — its
wire form (a ``dict`` tagged by ``type``) comes from its field declarations
— and knows how to ``check`` a :class:`~repro.core.evaluation.RequestContext`,
raising :class:`~repro.errors.RestrictionViolation` on failure.  An
application declares a restriction of its own the same way; the Kerberos
protocol's authorization-data field is likewise open-ended (§6.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import List, Optional, Tuple

from repro.core.evaluation import RequestContext
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.encoding.schema import decoder, union, wire
from repro.errors import ReplayError, RestrictionError, RestrictionViolation


@union("type", "TYPE")
class Restriction(ABC):
    """A typed subfield of a proxy's restrictions collection."""

    #: Wire type tag; unique per restriction class.
    TYPE: str = ""

    @abstractmethod
    def check(self, context: RequestContext) -> None:
        """Raise :class:`RestrictionViolation` unless the request satisfies
        this restriction."""


#: Decode any declared restriction from its wire dict.
restriction_from_wire = Restriction.from_wire
restrictions_from_wire = decoder(Tuple[Restriction, ...], "Restriction", "list")


def restrictions_to_wire(restrictions: Tuple[Restriction, ...]) -> List[dict]:
    return [r.to_wire() for r in restrictions]


# ---------------------------------------------------------------------------
# §7.1 grantee
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class Grantee(Restriction):
    """Principals authorized to use the proxy, and how many must concur.

    Presence of this restriction makes the proxy a *delegate* proxy; absence
    makes it a *bearer* proxy (§2, §7.1).
    """

    TYPE = "grantee"

    principals: Tuple[PrincipalId, ...]
    required: int = 1

    def __post_init__(self) -> None:
        if not self.principals:
            raise RestrictionError("grantee restriction needs >= 1 principal")
        if not 1 <= self.required <= len(self.principals):
            raise RestrictionError(
                f"required must be in [1, {len(self.principals)}]"
            )

    def check(self, context: RequestContext) -> None:
        present = sum(
            1 for p in self.principals if p in context.exercisers
        )
        if present < self.required:
            raise RestrictionViolation(
                self.TYPE,
                f"{present} of required {self.required} named grantees "
                f"present (named: {[str(p) for p in self.principals]})",
            )


# ---------------------------------------------------------------------------
# §7.2 for-use-by-group
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class ForUseByGroup(Restriction):
    """Groups whose membership must be asserted to use the proxy (k-of-n).

    "One way to implement separation of privilege is to require assertion of
    membership in multiple groups with disjoint members" (§7.2).
    """

    TYPE = "for-use-by-group"

    groups: Tuple[GroupId, ...]
    required: int = 1

    def __post_init__(self) -> None:
        if not self.groups:
            raise RestrictionError("for-use-by-group needs >= 1 group")
        if not 1 <= self.required <= len(self.groups):
            raise RestrictionError(
                f"required must be in [1, {len(self.groups)}]"
            )

    def check(self, context: RequestContext) -> None:
        asserted = sum(
            1 for g in self.groups if g in context.supporting_groups
        )
        if asserted < self.required:
            raise RestrictionViolation(
                self.TYPE,
                f"{asserted} of required {self.required} group memberships "
                f"asserted",
            )


# ---------------------------------------------------------------------------
# §7.3 issued-for
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class IssuedFor(Restriction):
    """Servers authorized to accept the proxy.

    "This restriction is important for public-key proxies which are otherwise
    verifiable by and exercisable on all servers" (§7.3).
    """

    TYPE = "issued-for"

    servers: Tuple[PrincipalId, ...]

    def __post_init__(self) -> None:
        if not self.servers:
            raise RestrictionError("issued-for needs >= 1 server")

    def check(self, context: RequestContext) -> None:
        if context.server not in self.servers:
            raise RestrictionViolation(
                self.TYPE,
                f"proxy not issued for server {context.server}",
            )


# ---------------------------------------------------------------------------
# §7.4 quota
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class Quota(Restriction):
    """Limit on the quantity of a resource that may be consumed (§7.4).

    The check is per-request; cumulative enforcement across requests is the
    accounting server's job (it debits the account as resources are used).
    """

    TYPE = "quota"

    currency: str
    limit: int

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise RestrictionError("quota limit must be non-negative")
        if not self.currency:
            raise RestrictionError("quota needs a currency name")

    def check(self, context: RequestContext) -> None:
        requested = context.amounts.get(self.currency, 0)
        if requested > self.limit:
            raise RestrictionViolation(
                self.TYPE,
                f"requested {requested} {self.currency} exceeds limit "
                f"{self.limit}",
            )


# ---------------------------------------------------------------------------
# §7.5 authorized
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True)
class AuthorizedEntry:
    """One (object pattern, operations) pair in an ``authorized`` restriction.

    ``target`` is matched with shell-style globbing (``*`` and ``?``), since
    "there are no constraints on the form of the object names ... these
    fields are to be interpreted by the end-server" (§7.5).  ``operations``
    of None allows every operation on matching objects.
    """

    target: str
    operations: Optional[Tuple[str, ...]] = None

    def matches(self, operation: str, target: Optional[str]) -> bool:
        if target is None or not fnmatchcase(target, self.target):
            return False
        if self.operations is None:
            return True
        return operation in self.operations


@wire
@dataclass(frozen=True, eq=False)
class Authorized(Restriction):
    """Complete list of objects (and operations) the proxy may touch (§7.5).

    This is the restriction that turns a proxy into a capability (§3.1) and
    the one an authorization server copies from its database (§3.2).
    """

    TYPE = "authorized"

    entries: Tuple[AuthorizedEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise RestrictionError("authorized needs >= 1 entry")

    def check(self, context: RequestContext) -> None:
        if any(
            entry.matches(context.operation, context.target)
            for entry in self.entries
        ):
            return
        raise RestrictionViolation(
            self.TYPE,
            f"operation {context.operation!r} on {context.target!r} not in "
            f"authorized list",
        )


# ---------------------------------------------------------------------------
# §7.6 group-membership
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class GroupMembership(Restriction):
    """Limits the groups whose membership this proxy can assert (§7.6).

    Found in proxies issued by a group server: "without this restriction, the
    grantee would be considered a member of all groups maintained by the
    group server granting the proxy."
    """

    TYPE = "group-membership"

    groups: Tuple[GroupId, ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise RestrictionError("group-membership needs >= 1 group")

    def check(self, context: RequestContext) -> None:
        if context.asserting_group is None:
            # Not a membership assertion; nothing to limit.
            return
        if context.asserting_group not in self.groups:
            raise RestrictionViolation(
                self.TYPE,
                f"proxy cannot assert membership in {context.asserting_group}",
            )


# ---------------------------------------------------------------------------
# §7.7 accept-once
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class AcceptOnce(Restriction):
    """The end-server must accept this proxy at most once (§7.7).

    "Any subsequent proxy from the same grantor bearing the same identifier
    and received by the end-server within the expiration time of the first
    proxy is rejected.  A real life example of such an identifier is a check
    number."
    """

    TYPE = "accept-once"

    identifier: str

    def __post_init__(self) -> None:
        if not self.identifier:
            raise RestrictionError("accept-once needs an identifier")

    def check(self, context: RequestContext) -> None:
        if context.replay_registry is None:
            raise RestrictionViolation(
                self.TYPE,
                "end-server does not support accept-once proxies",
            )
        if context.grantor is None:
            raise RestrictionViolation(
                self.TYPE, "no grantor bound to this chain link"
            )
        first_time = context.replay_registry.register(
            context.grantor, self.identifier, context.link_expires_at
        )
        if not first_time:
            raise ReplayError(
                f"accept-once identifier {self.identifier!r} from "
                f"{context.grantor} already accepted"
            )


# ---------------------------------------------------------------------------
# use-limit (from the restriction vocabulary of the companion TR [10]:
# §7 says the listed restrictions are not a complete list; count-limited
# proxies generalize accept-once)
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class UseLimit(Restriction):
    """The end-server accepts this proxy at most ``limit`` times.

    A generalization of :class:`AcceptOnce` (which is ``limit=1`` with a
    shared identifier space): "punch-card" style delegations — e.g. a
    build service allowed three compile jobs.  Counts are per
    (grantor, identifier) at each end-server, transactional like check
    numbers, and expire with the certificate link.
    """

    TYPE = "use-limit"

    identifier: str
    limit: int

    def __post_init__(self) -> None:
        if not self.identifier:
            raise RestrictionError("use-limit needs an identifier")
        if self.limit < 1:
            raise RestrictionError("use-limit must allow >= 1 use")

    def check(self, context: RequestContext) -> None:
        if context.replay_registry is None:
            raise RestrictionViolation(
                self.TYPE, "end-server does not support counted proxies"
            )
        if context.grantor is None:
            raise RestrictionViolation(
                self.TYPE, "no grantor bound to this chain link"
            )
        allowed = context.replay_registry.register_counted(
            context.grantor,
            self.identifier,
            context.link_expires_at,
            self.limit,
        )
        if not allowed:
            raise ReplayError(
                f"use-limit {self.identifier!r} from {context.grantor} "
                f"exhausted ({self.limit} uses)"
            )


# ---------------------------------------------------------------------------
# time-window (TR vocabulary: restrict use to hours of the day)
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class TimeWindow(Restriction):
    """The proxy is honoured only within a daily time window.

    ``start``/``end`` are seconds since local midnight; a window may wrap
    midnight (``start > end``).  Useful for operational policies like
    "backup proxies work only at night".
    """

    TYPE = "time-window"

    start: float
    end: float

    _DAY = 86_400.0

    def __post_init__(self) -> None:
        if not (0 <= self.start < self._DAY and 0 <= self.end < self._DAY):
            raise RestrictionError(
                "time-window bounds must be within [0, 86400)"
            )
        if self.start == self.end:
            raise RestrictionError("time-window must be non-empty")

    def check(self, context: RequestContext) -> None:
        moment = context.time % self._DAY
        if self.start < self.end:
            inside = self.start <= moment < self.end
        else:  # wraps midnight
            inside = moment >= self.start or moment < self.end
        if not inside:
            raise RestrictionViolation(
                self.TYPE,
                f"time-of-day {moment:.0f}s outside window "
                f"[{self.start:.0f}, {self.end:.0f})",
            )


# ---------------------------------------------------------------------------
# §7.8 limit-restriction
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class LimitRestriction(Restriction):
    """Nested restrictions enforced only by the named servers (§7.8).

    "The restrictions embedded within this restriction will be enforced by
    the named servers and ignored by others."
    """

    TYPE = "limit-restriction"

    servers: Tuple[PrincipalId, ...]
    restrictions: Tuple[Restriction, ...]

    def __post_init__(self) -> None:
        if not self.servers:
            raise RestrictionError("limit-restriction needs >= 1 server")
        if not self.restrictions:
            raise RestrictionError("limit-restriction needs >= 1 restriction")

    def check(self, context: RequestContext) -> None:
        if context.server not in self.servers:
            return
        for inner in self.restrictions:
            inner.check(context)


# ---------------------------------------------------------------------------
# Expiration (carried as a restriction inside ACL entries, §3.5)
# ---------------------------------------------------------------------------

@wire
@dataclass(frozen=True, eq=False)
class Expiration(Restriction):
    """Validity deadline carried inside a restrictions list.

    Certificates have their own expiry envelope; this restriction exists so
    ACL entries (§3.5) and authorization-server databases can attach
    time bounds that propagate into issued proxies.
    """

    TYPE = "expiration"

    not_after: float

    def check(self, context: RequestContext) -> None:
        if context.time > self.not_after:
            raise RestrictionViolation(
                self.TYPE,
                f"expired at {self.not_after}, now {context.time}",
            )


# ---------------------------------------------------------------------------
# §7.9 propagation of restrictions
# ---------------------------------------------------------------------------

def propagate_restrictions(
    incoming: Tuple[Restriction, ...],
    reachable_servers: Optional[Tuple[PrincipalId, ...]] = None,
) -> Tuple[Restriction, ...]:
    """Compute the restrictions an issuing server must copy forward (§7.9).

    "If a proxy is issued based upon a proxy that includes restrictions,
    those restrictions should be passed on to the proxy to be issued.  If a
    restriction is limited (see limit-restriction) then the restriction may
    be left out if it can be guaranteed that the proxy to be issued ... can
    not be used for any of the servers listed."

    Args:
        incoming: restrictions on the proxy presented to the issuing server.
        reachable_servers: when given, the *complete* set of servers the
            proxy to be issued (and derivatives) could ever reach; a
            limit-restriction whose server list is disjoint from it is
            dropped.  When None, everything is copied (safe default).
    """
    outgoing: List[Restriction] = []
    for restriction in incoming:
        if (
            isinstance(restriction, LimitRestriction)
            and reachable_servers is not None
            and not set(restriction.servers) & set(reachable_servers)
        ):
            continue
        outgoing.append(restriction)
    return tuple(outgoing)


def is_narrower(
    tighter: Tuple[Restriction, ...],
    looser: Tuple[Restriction, ...],
) -> bool:
    """True when ``tighter`` is a superset of ``looser`` (additive check).

    Because restrictions only ever accumulate, a derived proxy's restriction
    multiset must contain every restriction of its ancestor.  This is the
    structural form of the paper's "restrictions may be added, but not
    removed" (§6.2).
    """
    remaining = list(tighter)
    for restriction in looser:
        if restriction in remaining:
            remaining.remove(restriction)
        else:
            return False
    return True


def is_bearer(restrictions: Tuple[Restriction, ...]) -> bool:
    """True when no ``grantee`` restriction is present (§7.1).

    "If the grantee restriction is missing, the proxy is a bearer proxy and
    may be used by anyone possessing it."
    """
    return not any(isinstance(r, Grantee) for r in restrictions)


def check_all(
    restrictions: Tuple[Restriction, ...], context: RequestContext
) -> None:
    """Check every restriction; additive semantics mean all must pass."""
    for restriction in restrictions:
        restriction.check(context)
