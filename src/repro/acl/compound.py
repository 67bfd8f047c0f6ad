"""Subjects of ACL entries, including compound principals (§3.5).

"By supporting compound principal identifiers in access-control-list
entries, it becomes possible to require the concurrence of multiple
principals for certain operations ... the need for both user and host
credentials ... as well as the separation of privilege so that a single
user can't act alone."

A :class:`Subject` is matched against the set of principals that concur in a
request (the authenticated claimant plus the grantors of any supporting
proxies) and the set of groups asserted via group proxies:

* :class:`SinglePrincipal` — one named principal.
* :class:`GroupSubject` — membership in a (globally named) group, §3.3.
* :class:`Anyone` — matches everything; used for public operations and for
  the capability pattern where the *proxy chain*, not the ACL, carries the
  policy.
* :class:`Compound` — k-of-n over nested subjects (conjunction when
  ``required`` equals the subject count).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.encoding.identifiers import GroupId, PrincipalId
from repro.encoding.schema import union, wire


@union("kind", "KIND")
class Subject(ABC):
    """Who (or what combination) an ACL entry names."""

    KIND: str = ""

    @abstractmethod
    def matches(
        self,
        principals: FrozenSet[PrincipalId],
        groups: FrozenSet[GroupId],
    ) -> bool:
        """True when the concurring principals/groups satisfy this subject."""


@wire
@dataclass(frozen=True, eq=False)
class SinglePrincipal(Subject):
    KIND = "principal"

    principal: PrincipalId

    def matches(
        self,
        principals: FrozenSet[PrincipalId],
        groups: FrozenSet[GroupId],
    ) -> bool:
        return self.principal in principals


@wire
@dataclass(frozen=True, eq=False)
class GroupSubject(Subject):
    """Matches when membership in the group has been asserted (§3.3).

    "It should be possible for the name of a group to appear in
    authorization databases anywhere that the name of any other principal
    might appear."
    """

    KIND = "group"

    group: GroupId

    def matches(
        self,
        principals: FrozenSet[PrincipalId],
        groups: FrozenSet[GroupId],
    ) -> bool:
        return self.group in groups


@wire
@dataclass(frozen=True, eq=False)
class Anyone(Subject):
    KIND = "anyone"

    def matches(
        self,
        principals: FrozenSet[PrincipalId],
        groups: FrozenSet[GroupId],
    ) -> bool:
        return True


@wire
@dataclass(frozen=True, eq=False)
class Compound(Subject):
    """k-of-n over nested subjects (§3.5 compound principal identifiers)."""

    KIND = "compound"

    subjects: Tuple[Subject, ...]
    required: int = 0  # 0 means "all of them"

    def __post_init__(self) -> None:
        if not self.subjects:
            raise ValueError("compound subject needs >= 1 nested subject")
        need = self.required or len(self.subjects)
        if not 1 <= need <= len(self.subjects):
            raise ValueError(
                f"required must be in [1, {len(self.subjects)}], got {need}"
            )

    @property
    def needed(self) -> int:
        return self.required or len(self.subjects)

    def matches(
        self,
        principals: FrozenSet[PrincipalId],
        groups: FrozenSet[GroupId],
    ) -> bool:
        satisfied = sum(
            1 for subject in self.subjects if subject.matches(principals, groups)
        )
        return satisfied >= self.needed

