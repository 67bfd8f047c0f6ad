"""Global naming for principals, servers, groups, and accounts.

The paper composes global names out of (server, local-name) pairs:

* §3.3 — "a global name of a group is composed of the name of the group
  server, and the name of the group on that server."
* §4  — "Accounts are identified as the composition of the principal
  identifier for the accounting server and the name of the account."

A :class:`PrincipalId` names any principal: a user, a host, or a service
(servers are principals too — they authenticate, grant proxies, and appear on
ACLs).  :class:`GroupId` and :class:`AccountId` are the composed global names.

All identifier types are frozen dataclasses so they are hashable and usable
as dict keys.  On the wire each is its ``str`` rendering, a
:func:`~repro.encoding.schema.leaf` whose ``from_wire`` refuses anything
but a ``str`` that parses back to the same name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.encoding.schema import leaf

#: Separator in the human-readable rendering ``name@realm``.
_REALM_SEP = "@"
#: Separator in composed names ``server-principal!local-name``.
_COMPOSE_SEP = "!"


def _check_component(component: str, what: str) -> None:
    if not component:
        raise ValueError(f"{what} must be non-empty")
    if _REALM_SEP in component or _COMPOSE_SEP in component:
        raise ValueError(
            f"{what} may not contain {_REALM_SEP!r} or {_COMPOSE_SEP!r}: "
            f"{component!r}"
        )


def _principal(text: str) -> "PrincipalId":
    # A missing separator leaves an empty component, which is refused.
    name, _, realm = text.partition(_REALM_SEP)
    return PrincipalId(name, realm)


def _composed(cls: type, text: str):
    server, _, local = text.partition(_COMPOSE_SEP)
    return cls(PrincipalId.from_wire(server), local)


@leaf(str, str, _principal)
@dataclass(frozen=True, order=True)
class PrincipalId:
    """A globally-unique principal name, ``name`` within ``realm``.

    Realms mirror Kerberos realms: an authentication domain with its own
    key-distribution infrastructure.
    """

    name: str
    realm: str = "REPRO.ORG"

    def __post_init__(self) -> None:
        _check_component(self.name, "principal name")
        _check_component(self.realm, "realm")
        # The rendering is the wire form and a label on every span, so it
        # is built once.  It lives in __dict__, not in a field, so eq,
        # hash, order and repr never see it.
        object.__setattr__(self, "_text", f"{self.name}{_REALM_SEP}{self.realm}")

    def __str__(self) -> str:
        return self._text


@leaf(str, str, lambda text: _composed(GroupId, text))
@dataclass(frozen=True, order=True)
class GroupId:
    """Global group name: (group server principal, local group name) — §3.3."""

    server: PrincipalId
    group: str

    def __post_init__(self) -> None:
        _check_component(self.group, "group name")

    def __str__(self) -> str:
        return f"{self.server}{_COMPOSE_SEP}{self.group}"


@leaf(str, str, lambda text: _composed(AccountId, text))
@dataclass(frozen=True, order=True)
class AccountId:
    """Global account name: (accounting server principal, account name) — §4."""

    server: PrincipalId
    account: str

    def __post_init__(self) -> None:
        _check_component(self.account, "account name")

    def __str__(self) -> str:
        return f"{self.server}{_COMPOSE_SEP}{self.account}"
