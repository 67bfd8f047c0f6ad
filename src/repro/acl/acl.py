"""Access-control lists with per-entry restrictions (§3.5).

"Application servers would be designed to base authorization on a local
access-control-list" — the same abstraction is used on end-servers,
authorization servers, group servers, and accounting-server accounts, so one
module serves all of them.

Each :class:`AclEntry` couples a :class:`~repro.acl.compound.Subject` with
the operations and target patterns it permits and an optional list of
restrictions.  On an authorization server, "the restrictions field of a
matching access-control-list entry can be copied to the restrictions field
of the resulting proxy" (§3.5) — :meth:`AccessControlList.authorize` returns
the matched entry so issuers can do exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from heapq import merge
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.acl.compound import Anyone, SinglePrincipal, Subject
from repro.core.restrictions import Restriction
from repro.encoding.identifiers import GroupId, PrincipalId
from repro.encoding.schema import wire
from repro.errors import AuthorizationDenied


@wire
@dataclass(frozen=True)
class AclEntry:
    """One line of an ACL.

    Attributes:
        subject: who this entry applies to (possibly compound).
        operations: permitted operations, or None for all.
        targets: glob patterns over object names; ``("*",)`` for all.
        restrictions: restrictions attached to the grant (copied into
            proxies issued on the strength of this entry, §3.5).
    """

    subject: Subject
    operations: Optional[Tuple[str, ...]] = None
    targets: Tuple[str, ...] = ("*",)
    restrictions: Tuple[Restriction, ...] = ()

    def permits(
        self,
        principals: FrozenSet[PrincipalId],
        groups: FrozenSet[GroupId],
        operation: str,
        target: Optional[str],
    ) -> bool:
        if not self.subject.matches(principals, groups):
            return False
        if self.operations is not None and operation not in self.operations:
            return False
        if target is None:
            return True
        return any(fnmatchcase(target, pattern) for pattern in self.targets)


@wire(root="entries")
@dataclass
class AccessControlList:
    """An ordered list of entries; the first match wins.

    ``entries`` is the list and the only thing serialized (as a bare list)
    or compared.
    Beside it the ACL keeps the positions of every entry whose subject is
    exactly a :class:`SinglePrincipal`, by principal, and the positions of
    all the others in one ordered bucket, so :meth:`match` visits only the
    entries that could name one of the concurring principals — an
    authorization database holds one entry per user (§3.2), and a shared
    server must not get slower with every user it serves.  Change the
    list through :meth:`add` and :meth:`remove_subject`, which keep the
    index in step.
    """

    entries: List[AclEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._reindex()

    def _reindex(self) -> None:
        self._by_principal: Dict[PrincipalId, List[int]] = {}
        self._others: List[int] = []
        for position, entry in enumerate(self.entries):
            self._index(position, entry)

    def _index(self, position: int, entry: AclEntry) -> None:
        subject = entry.subject
        if type(subject) is SinglePrincipal:
            self._by_principal.setdefault(subject.principal, []).append(
                position
            )
        else:
            self._others.append(position)

    def add(self, entry: AclEntry) -> None:
        self._index(len(self.entries), entry)
        self.entries.append(entry)

    def remove_subject(self, subject: Subject) -> int:
        """Drop all entries for ``subject``; returns how many were removed.

        This is the revocation lever of §3.1: "one can revoke a capability
        by changing the access rights available to the grantor of the
        capability."
        """
        before = len(self.entries)
        self.entries = [e for e in self.entries if e.subject != subject]
        self._reindex()
        return before - len(self.entries)

    def match(
        self,
        principals: FrozenSet[PrincipalId],
        groups: FrozenSet[GroupId],
        operation: str,
        target: Optional[str] = None,
    ) -> Optional[AclEntry]:
        """First entry permitting the request, or None."""
        buckets = [self._others] if self._others else []
        for principal in principals:
            positions = self._by_principal.get(principal)
            if positions:
                buckets.append(positions)
        # Each bucket is ascending, so merging them restores list order.
        candidates = buckets[0] if len(buckets) == 1 else merge(*buckets)
        entries = self.entries
        for position in candidates:
            entry = entries[position]
            if entry.permits(principals, groups, operation, target):
                return entry
        return None

    def authorize(
        self,
        principals: FrozenSet[PrincipalId],
        groups: FrozenSet[GroupId],
        operation: str,
        target: Optional[str] = None,
    ) -> AclEntry:
        """Like :meth:`match` but raises on denial."""
        entry = self.match(principals, groups, operation, target)
        if entry is None:
            names = ",".join(str(p) for p in sorted(principals)) or "<nobody>"
            raise AuthorizationDenied(
                f"{names} may not {operation} "
                f"{target if target is not None else '<any>'}"
            )
        return entry

    @classmethod
    def open_to_all(cls) -> "AccessControlList":
        """An ACL with a single anyone/* entry (capability-style servers)."""
        return cls(entries=[AclEntry(subject=Anyone())])

    def __len__(self) -> int:
        return len(self.entries)
